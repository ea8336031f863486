"""Counterfactually intervened distributions: force endogenous tuples into
or out of every world and push the mass along.

On an explicit space each world is mapped to (W minus the out-targets) union
the in-targets and masses of colliding images are merged; on a
tuple-independent space `Intervention.force` sets the targets' marginals to
1 or 0 and leaves every other marginal untouched, so the result is again
tuple-independent.  A single application may mix in- and out-targets (two
disjoint sets pushed jointly); the plain do(T in) / do(T out) constructors
cover the common case.  `intervene` returns a plain `PDBSpace` over the
base instance; `intervened_query_value` sums the base worlds by their
pushed images instead of building it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Union

from .core import (
    ExplicitWorlds,
    InputError,
    PDBSpace,
    Probability,
    TupleIndependent,
)
from .queries import Aggregate, Query, _world_sum, evaluate, expected_value, is_boolean

_ONE, _ZERO = Probability(1), Probability(0)


@dataclass(frozen=True)
class Intervention:
    """Disjoint sets of endogenous tuples to force present (``ins``) and
    absent (``outs``); at least one target overall."""

    ins: frozenset[str] = frozenset()
    outs: frozenset[str] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "ins", frozenset(self.ins))
        object.__setattr__(self, "outs", frozenset(self.outs))
        if not self.ins and not self.outs:
            raise InputError("intervention needs at least one target tuple")
        overlap = self.ins & self.outs
        if overlap:
            raise InputError(
                f"tuples {sorted(overlap)} cannot be forced both in and out"
            )

    @classmethod
    def do_in(cls, targets: Union[str, Iterable[str]]) -> "Intervention":
        return cls(ins=_as_set(targets))

    @classmethod
    def do_out(cls, targets: Union[str, Iterable[str]]) -> "Intervention":
        return cls(outs=_as_set(targets))

    @property
    def targets(self) -> frozenset[str]:
        return self.ins | self.outs

    def push(self, world: frozenset[str]) -> frozenset[str]:
        return (world - self.outs) | self.ins

    def force(self, marginals: Mapping[str, Fraction]) -> dict[str, Fraction]:
        """The do() rule on an independent space: the marginals with the
        in-targets set to 1 and the out-targets to 0."""
        return {**marginals, **dict.fromkeys(self.ins, _ONE),
                **dict.fromkeys(self.outs, _ZERO)}

    def __str__(self) -> str:
        parts = []
        if self.ins:
            parts.append("do({} in)".format(",".join(sorted(self.ins))))
        if self.outs:
            parts.append("do({} out)".format(",".join(sorted(self.outs))))
        return " ".join(parts)


def _as_set(targets) -> frozenset[str]:
    if isinstance(targets, str):
        return frozenset([targets])
    return frozenset(targets)


def intervene(pdb: PDBSpace, iv: Intervention) -> PDBSpace:
    """Apply an intervention: a space over the same instance, of the
    representation kind of the base."""
    pdb.instance.require_endogenous(iv.targets)
    rep = pdb.representation
    if isinstance(rep, ExplicitWorlds):  # colliding images merge
        pushed = ExplicitWorlds((iv.push(w), mass) for w, mass in rep.masses.items())
        return PDBSpace(pdb.instance, pushed)
    assert isinstance(rep, TupleIndependent)
    return PDBSpace(pdb.instance, TupleIndependent(iv.force(rep.marginals)))


def intervened_query_value(
    pdb: PDBSpace, q: Query, iv: Intervention, value, cap: int | None = None
) -> Probability:
    """P(Q = value) under the intervened distribution, computed directly as
    the base-world sum of masses whose pushed world evaluates to ``value``
    (no materialization of the intervened space)."""
    pdb.instance.require_endogenous(iv.targets)
    if is_boolean(q) and value not in (0, 1):
        raise InputError(f"Boolean queries take values 0 or 1, not {value!r}")
    return Probability(_world_sum(
        pdb, lambda world: evaluate(q, pdb.instance, iv.push(world)) == value, cap
    ))


def intervened_expectation(
    pdb: PDBSpace, q: Aggregate, iv: Intervention, cap: int | None = None
) -> Fraction:
    """Expectation of a scalar aggregate under the materialized intervened
    space."""
    if not isinstance(q, Aggregate):
        raise InputError("intervened_expectation takes an aggregate query")
    return expected_value(intervene(pdb, iv), q, cap)
