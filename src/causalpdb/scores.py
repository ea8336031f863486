"""Attribution scores for endogenous tuples: the causal-effect score under
an arbitrary world distribution, its uniform-1/2 independent special case,
Shapley and Banzhaf values, and the swing-counting power functions.

Every score is exact.  The causal effect of a target set is the difference
of the query's expectations under the do(T in) and do(T out) distributions;
for Boolean queries these are intervened probabilities.  On a
tuple-independent space an intervention changes only the probabilities of
the targets' facts, so self-join-free hierarchical BCQs (the lifted
evaluator) and single-atom sums (a closed form) read one validated per-fact
map with those facts forced, and no intervened space is built.  The route
comes from `queries._route`, the one place a backend is chosen; `score_all`
asks for it once, so the map and the lifted plan that reads it are built
once for all its tuples.  Every other case sums over worlds.

Every subset score is one weighted swing sum over one value table
(`swing_sum`): the sum, over the endogenous subsets S without tuple t, of
Q(S + t) - Q(S) times a weight that depends only on the score.  Shapley
weighs by |S| (2^N subsets beat N! permutations), Banzhaf and power weigh
uniformly, weighted power by the mass p(S), and the causal effect's subset
form by p(S) + p(S + t).

The value table of a BCQ or a union comes from its lineage: over a fixed
instance such a query is the DNF of its homomorphism images, so a subset
satisfies it iff it holds an image's endogenous part.  Aggregates and the
world-level forms are evaluated subset by subset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Sequence, Union

from .core import (
    DEFAULT_WORLD_CAP,
    ExplicitWorlds,
    InputError,
    InstanceStore,
    PDBSpace,
    ResourceLimitError,
    TupleIndependent,
    enumerate_worlds,
    fraction_to_decimal,
    make_uniform_tid,
    require_valid,
)
from .interventions import (
    Intervention,
    intervene,
    intervened_expectation,
    intervened_query_value,
)
from .queries import (
    BCQ,
    BRUTE,
    UBCQ,
    Query,
    _forced,
    _homomorphism_images,
    _Route,
    _route,
    evaluate,
    is_boolean,
    query_probability,
    query_text,
)

#: Cap on endogenous tuples for subset-enumeration scores (shared with the
#: world-enumeration cap).
DEFAULT_SUBSET_CAP = DEFAULT_WORLD_CAP


class ScoreKind(str, Enum):
    GCES = "gces"
    CES_TID = "ces-tid"
    CES_UI = "ces-ui"
    SHAPLEY = "shapley"
    BANZHAF = "banzhaf"
    POWER_TUPLE = "power"
    WEIGHTED_POWER = "weighted-power"


def _instance_of(source: Union[PDBSpace, InstanceStore]) -> InstanceStore:
    return source.instance if isinstance(source, PDBSpace) else source


class EndoWorlds:
    """Subsets of the endogenous tuples as bitmasks (bit order = sorted
    tids), with cached query values and distribution masses per mask."""

    def __init__(self, instance: InstanceStore, cap: int | None = None):
        limit = DEFAULT_SUBSET_CAP if cap is None else cap
        self.instance = instance
        self.order = instance.endogenous_order
        if len(self.order) > limit:
            raise ResourceLimitError(
                f"{len(self.order)} endogenous tuples exceed the subset "
                f"enumeration cap of {limit}"
            )
        self.bit = {tid: i for i, tid in enumerate(self.order)}
        self.size = 1 << len(self.order)

    def mask_of(self, tids: Iterable[str]) -> int:
        mask = 0
        for tid in tids:
            try:
                mask |= 1 << self.bit[tid]
            except KeyError:
                raise InputError(f"tuple {tid!r} is not endogenous") from None
        return mask

    def endo_tids(self, mask: int) -> frozenset[str]:
        return frozenset(t for i, t in enumerate(self.order) if mask >> i & 1)

    def world(self, mask: int) -> frozenset[str]:
        return self.endo_tids(mask) | self.instance.exogenous

    def value_table(self, q: Query) -> list:
        """Q[W union D_ex] for every endogenous subset W.

        A BCQ or union is the DNF of its homomorphism images: W satisfies
        it iff W holds the endogenous part of some image, so the table is
        the upward closure of those parts' masks.  With more images than
        masks, and for the other forms, every subset is evaluated instead;
        Boolean forms are monotone, so a mask whose strict submask already
        holds needs no homomorphism search."""
        if isinstance(q, (BCQ, UBCQ)):
            table = self._lineage_table(q)
            if table is not None:
                return table
        table = [None] * self.size
        monotone = is_boolean(q)
        for mask in range(self.size):
            if monotone and mask:
                low = mask & -mask
                if table[mask ^ low] == 1:
                    table[mask] = 1
                    continue
            table[mask] = evaluate(q, self.instance, self.world(mask))
        return table

    def _lineage_table(self, q: BCQ | UBCQ) -> list[int] | None:
        table = [0] * self.size
        images = _homomorphism_images(self.instance, q)
        for count, image in enumerate(images, start=1):
            if count > self.size:
                return None
            table[self.mask_of(image & self.instance.endogenous)] = 1
        bits = [1 << i for i in range(len(self.order))]
        for mask in range(self.size):  # increasing, so subsets come first
            if table[mask]:
                for bit in bits:
                    table[mask | bit] = 1
        return table

    def mass_table(self, pdb: PDBSpace) -> list[Fraction]:
        """p(W union D_ex) for every endogenous subset W."""
        if pdb.instance is not self.instance and pdb.instance.tids != self.instance.tids:
            raise InputError("space and subset table use different instances")
        require_valid(pdb)
        rep = pdb.representation
        if isinstance(rep, ExplicitWorlds):
            table = [Fraction(0)] * self.size
            for world, mass in rep.masses.items():
                table[self.mask_of(world & self.instance.endogenous)] += mass
            return table
        assert isinstance(rep, TupleIndependent)
        table = [Fraction(1)]
        for tid in self.order:
            p = rep.marginals.get(tid)
            if p is None:
                raise InputError(f"tuple {tid!r} has no marginal")
            table = [t * (1 - p) for t in table] + [t * p for t in table]
        return table


def swing_sum(values, bit: int, weight=None) -> Fraction:
    """Sum of the swings ``values[S | bit] - values[S]`` over the masks S
    without ``bit``, each nonzero swing multiplied by ``weight(S)`` when a
    weight is given."""
    total = 0
    for high in range(0, len(values), bit << 1):
        for mask in range(high, high + bit):
            swing = values[mask | bit] - values[mask]
            if swing:
                total += swing if weight is None else swing * weight(mask)
    return Fraction(total)


def _swing_scores(
    source: Union[PDBSpace, InstanceStore], q: Query, kind: ScoreKind,
    tids: Sequence[str], cap: int | None = None,
) -> list[Fraction]:
    """Scores of the given tuples for a subset-enumeration kind (GCES meaning
    its subset form), all from one value table and, for the mass-weighted
    kinds, one mass table."""
    instance = _instance_of(source)
    instance.require_endogenous(tids)
    worlds = EndoWorlds(instance, cap)
    values = worlds.value_table(q)
    n = len(worlds.order)
    weight = None  # Banzhaf and power weigh every swing alike
    scale = Fraction(1, 1 << max(n - 1, 0)) if kind is ScoreKind.BANZHAF else 1
    if kind is ScoreKind.SHAPLEY:
        # The weight |S|! (n-|S|-1)! / n! as an integer over the common
        # denominator n!, so the sum adds integers and divides once.  One
        # weight per mask (a list lookup costs less than a call per swing);
        # the full mask holds every bit, so no swing starts there.
        shares = [math.factorial(k) * math.factorial(n - k - 1) for k in range(n)]
        by_mask = [shares[mask.bit_count()] for mask in range(worlds.size - 1)]
        weight = by_mask.__getitem__
        scale = Fraction(1, math.factorial(n))
    elif kind is ScoreKind.WEIGHTED_POWER:
        weight = worlds.mass_table(source).__getitem__
    elif kind is ScoreKind.GCES:
        masses = worlds.mass_table(source)
    scores = []
    for tid in tids:
        bit = 1 << worlds.bit[tid]
        if kind is ScoreKind.GCES:
            weight = lambda mask: masses[mask] + masses[mask | bit]
        scores.append(swing_sum(values, bit, weight) * scale)
    return scores


def delta(
    instance: InstanceStore, q: Query, world: Iterable[str], tid: str
) -> Fraction:
    """Marginal contribution of an endogenous tuple on top of an endogenous
    subset (exogenous tuples always present); zero when the tuple is already
    in the subset."""
    instance.require_endogenous([tid])
    base = frozenset(world)
    outside = base - instance.endogenous
    if outside:
        raise InputError(f"subset contains non-endogenous tuples {sorted(outside)}")
    if tid in base:
        return Fraction(0)
    with_exo = base | instance.exogenous
    return Fraction(
        evaluate(q, instance, with_exo | {tid}) - evaluate(q, instance, with_exo)
    )


# ---------------------------------------------------------------------------
# Causal effect
# ---------------------------------------------------------------------------

def _causal_effect(
    pdb: PDBSpace, q: Query, targets: frozenset[str], cap: int | None = None,
    route: _Route | None = None,
) -> tuple[Fraction, str]:
    """A target set's causal effect and the backend that computed it.  The
    route (`_route`) is chosen here, or passed in by a caller scoring many
    target sets; the lifted and closed-form routes read the route's
    per-fact map with the targets' facts forced, and the world route sums
    over the base worlds."""
    if not targets:
        raise InputError("causal effect needs a nonempty target set")
    pdb.instance.require_endogenous(targets)
    if route is None:
        route = _route(pdb, q)
    if route.backend is not BRUTE:
        e_in = route.expectation(_forced(pdb, route.fact_probs, targets, True))
        e_out = route.expectation(_forced(pdb, route.fact_probs, targets, False))
        return Fraction(e_in - e_out), route.backend
    going_in = Intervention.do_in(targets)
    going_out = Intervention.do_out(targets)
    if is_boolean(q):
        p_in = intervened_query_value(pdb, q, going_in, 1, cap)
        p_out = intervened_query_value(pdb, q, going_out, 1, cap)
        return Fraction(p_in - p_out), BRUTE
    e_in = intervened_expectation(pdb, q, going_in, cap)
    e_out = intervened_expectation(pdb, q, going_out, cap)
    return e_in - e_out, BRUTE


def causal_effect(
    pdb: PDBSpace, q: Query, targets: Union[str, Iterable[str]],
    cap: int | None = None,
) -> Fraction:
    """Generalized causal effect of a set of endogenous tuples: the query's
    expectation with the targets forced in, minus with them forced out."""
    if isinstance(targets, str):
        targets = [targets]
    value, _ = _causal_effect(pdb, q, frozenset(targets), cap)
    return value


def ces_ui(instance: InstanceStore, q: Query, tid: str, cap: int | None = None) -> Fraction:
    """Causal effect on the uniform-1/2 independent space built from the
    instance; on Boolean queries it coincides with the Banzhaf value."""
    return causal_effect(make_uniform_tid(instance), q, tid, cap)


def gces_subset_form(
    pdb: PDBSpace, q: Query, tid: str, cap: int | None = None
) -> Fraction:
    """Single-tuple causal effect as a swing sum: over subsets not holding
    the tuple, the contribution weighted by the mass at the subset plus the
    mass at the subset with the tuple added."""
    return _swing_scores(pdb, q, ScoreKind.GCES, [tid], cap)[0]


@dataclass(frozen=True)
class OracleReport:
    """One causal effect computed along independent routes; exactness means
    the routes must agree to the last digit."""

    targets: tuple[str, ...]
    materialized: Fraction
    direct: Fraction
    subset_form: Fraction | None

    @property
    def agree(self) -> bool:
        forms = [self.materialized, self.direct]
        if self.subset_form is not None:
            forms.append(self.subset_form)
        return all(f == forms[0] for f in forms)

    @property
    def value(self) -> Fraction:
        return self.materialized


def gces_oracle(
    pdb: PDBSpace, q: Query, targets: Union[str, Iterable[str]],
    cap: int | None = None,
) -> OracleReport:
    """Compute one causal effect three ways: on the materialized intervened
    spaces, by direct base-world sums, and (single Boolean targets) by the
    swing-sum form."""
    if isinstance(targets, str):
        targets = [targets]
    target_set = pdb.instance.require_endogenous(targets)
    going_in = Intervention.do_in(target_set)
    going_out = Intervention.do_out(target_set)
    if is_boolean(q):
        materialized = Fraction(
            query_probability(intervene(pdb, going_in), q, "brute", cap)
            - query_probability(intervene(pdb, going_out), q, "brute", cap)
        )
        direct = Fraction(
            intervened_query_value(pdb, q, going_in, 1, cap)
            - intervened_query_value(pdb, q, going_out, 1, cap)
        )
        subset = (
            gces_subset_form(pdb, q, next(iter(target_set)), cap)
            if len(target_set) == 1
            else None
        )
    else:
        materialized = intervened_expectation(pdb, q, going_in, cap) - \
            intervened_expectation(pdb, q, going_out, cap)
        direct = Fraction(0)
        for world, mass in enumerate_worlds(pdb, cap):
            direct += mass * (
                evaluate(q, pdb.instance, going_in.push(world))
                - evaluate(q, pdb.instance, going_out.push(world))
            )
        subset = None
    return OracleReport(tuple(sorted(target_set)), materialized, direct, subset)


# ---------------------------------------------------------------------------
# Shapley and Banzhaf
# ---------------------------------------------------------------------------

def shapley(
    instance: InstanceStore, q: Query, tid: str, cap: int | None = None
) -> Fraction:
    """Shapley value by subset enumeration with exact factorial weights."""
    return _swing_scores(instance, q, ScoreKind.SHAPLEY, [tid], cap)[0]


def banzhaf(
    instance: InstanceStore, q: Query, tid: str, cap: int | None = None
) -> Fraction:
    """Banzhaf value: the uniformly weighted swing sum."""
    return _swing_scores(instance, q, ScoreKind.BANZHAF, [tid], cap)[0]


# ---------------------------------------------------------------------------
# Power functions
# ---------------------------------------------------------------------------

def power_of_set(
    source: Union[PDBSpace, InstanceStore], q: Query, world: Iterable[str]
) -> Fraction:
    """Number of tuples whose addition to the given strict endogenous subset
    changes the query value (for Boolean queries; the swing total in
    general)."""
    instance = _instance_of(source)
    base = frozenset(world)
    if base == instance.endogenous:
        raise InputError("power of a set is defined for strict subsets only")
    total = Fraction(0)
    for tid in instance.endogenous_order:
        total += delta(instance, q, base, tid)
    return total


def power_of_tuple(
    source: Union[PDBSpace, InstanceStore], q: Query, tid: str,
    cap: int | None = None,
) -> Fraction:
    """Number of endogenous subsets the tuple swings."""
    return _swing_scores(source, q, ScoreKind.POWER_TUPLE, [tid], cap)[0]


def weighted_power(
    pdb: PDBSpace, q: Query, tid: str, cap: int | None = None
) -> Fraction:
    """Swing sum weighted by the distribution's mass at each subset."""
    return _swing_scores(pdb, q, ScoreKind.WEIGHTED_POWER, [tid], cap)[0]


def total_power(
    source: Union[PDBSpace, InstanceStore], q: Query, cap: int | None = None
) -> Fraction:
    """Double swing sum over all strict endogenous subsets and all tuples
    outside them; equals the sum of the tuples' powers."""
    tids = _instance_of(source).endogenous_order
    powers = _swing_scores(source, q, ScoreKind.POWER_TUPLE, tids, cap)
    return sum(powers, Fraction(0))


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScoreEntry:
    tid: str
    value: Fraction
    backend: str
    positive_ceui: bool | None = None


@dataclass(frozen=True)
class ScoreReport:
    kind: ScoreKind
    query: str
    n_endogenous: int
    entries: tuple[ScoreEntry, ...]
    ranking: tuple[str, ...]

    def entry(self, tid: str) -> ScoreEntry:
        for e in self.entries:
            if e.tid == tid:
                return e
        raise InputError(f"no score entry for tuple {tid!r}")

    def values(self) -> dict[str, Fraction]:
        return {e.tid: e.value for e in self.entries}

    def to_json_dict(self) -> dict:
        scores = []
        for e in self.entries:
            item = {
                "tid": e.tid,
                "value": f"{e.value.numerator}/{e.value.denominator}",
                "decimal": fraction_to_decimal(e.value),
                "backend": e.backend,
            }
            if e.positive_ceui is not None:
                item["positive-ceui"] = e.positive_ceui
            scores.append(item)
        return {
            "kind": self.kind.value,
            "query": self.query,
            "n_endogenous": self.n_endogenous,
            "scores": scores,
            "ranking": list(self.ranking),
        }

    def to_table(self, by_rank: bool = False) -> str:
        order = list(self.ranking) if by_rank else [e.tid for e in self.entries]
        by_tid = {e.tid: e for e in self.entries}
        rank_of = {tid: i + 1 for i, tid in enumerate(self.ranking)}
        rows = [("rank", "tid", "value", "exact", "backend")]
        for tid in order:
            e = by_tid[tid]
            rows.append(
                (
                    str(rank_of[tid]),
                    tid,
                    fraction_to_decimal(e.value),
                    f"{e.value.numerator}/{e.value.denominator}",
                    e.backend,
                )
            )
        widths = [max(len(r[c]) for r in rows) for c in range(len(rows[0]))]
        lines = [
            "  ".join(cell.ljust(widths[c]) for c, cell in enumerate(row)).rstrip()
            for row in rows
        ]
        return "\n".join(lines)


def _rank(values: dict[str, Fraction]) -> tuple[str, ...]:
    return tuple(sorted(values, key=lambda tid: (-values[tid], tid)))


def score_all(
    source: Union[PDBSpace, InstanceStore], q: Query, kind: ScoreKind,
    cap: int | None = None,
) -> ScoreReport:
    """Score every endogenous tuple and rank them (value descending, ties by
    tuple id)."""
    kind = ScoreKind(kind)
    instance = _instance_of(source)
    tids = instance.endogenous_order
    entries: list[ScoreEntry] = []
    if kind in (ScoreKind.GCES, ScoreKind.CES_TID, ScoreKind.CES_UI):
        if kind is ScoreKind.CES_UI:
            space = make_uniform_tid(instance)
        elif not isinstance(source, PDBSpace):
            raise InputError(f"{kind.value} needs a probability space")
        elif kind is ScoreKind.CES_TID and not source.is_tid:
            raise InputError("ces-tid needs a tuple-independent space")
        else:
            space = source
        # One route, with its fact map and lifted plan, serves every tuple.
        route = _route(space, q) if tids else None
        for tid in tids:
            value, backend = _causal_effect(space, q, frozenset([tid]), cap, route)
            positive = value > 0 if kind is ScoreKind.CES_UI else None
            entries.append(ScoreEntry(tid, value, backend, positive))
    elif kind in (
        ScoreKind.SHAPLEY, ScoreKind.BANZHAF, ScoreKind.POWER_TUPLE,
        ScoreKind.WEIGHTED_POWER,
    ):
        if kind is ScoreKind.WEIGHTED_POWER and not isinstance(source, PDBSpace):
            raise InputError("weighted-power needs a probability space")
        for tid, value in zip(tids, _swing_scores(source, q, kind, tids, cap)):
            entries.append(ScoreEntry(tid, value, BRUTE))
    else:  # pragma: no cover - ScoreKind is exhaustive
        raise InputError(f"unknown score kind {kind!r}")
    report_values = {e.tid: e.value for e in entries}
    return ScoreReport(
        kind=kind,
        query=query_text(q),
        n_endogenous=len(tids),
        entries=tuple(entries),
        ranking=_rank(report_values),
    )
