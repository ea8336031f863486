"""Checks for the axioms a tuple-scoring function may satisfy (dummy,
efficiency, symmetry, linearity, and their distribution-aware generalized
forms), plus the fresh-expansion construction, the component-product
identity for query probability, and the minimal-set decomposition check.

Each check takes an abstract score function ``(space, query, tid) ->
Fraction`` so the same machinery can vet the causal-effect score, Shapley,
Banzhaf, or anything user-supplied, and returns a verdict carrying every
counterexample found (exact LHS/RHS values, no sampling: the axioms'
hypotheses are universally quantified, so subsets are enumerated
exhaustively up to a cap).  EFF and G-EFF are one walk over swing sums
(`_check_sum`), SYM and G-SYM one pair loop over
`EndoWorlds.pair_swings` (`_check_pairs`); only `scores` reads the packed
value table's bits.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction

from .core import (
    InputError,
    InstanceStore,
    PDBSpace,
    Probability,
    ResourceLimitError,
    TupleIndependent,
    TupleRecord,
    fraction_to_decimal,
)
from .queries import (
    BCQ,
    ComponentPartition,
    ConjQuery,
    Query,
    UBCQ,
    Var,
    _disjuncts,
    components,
    evaluate,
    is_boolean,
    minimal_satisfiable_sets,
    query_probability,
)
from .scores import (
    EndoWorlds,
    ScoreKind,
    _swing_scorer,
    _swing_scores,
    banzhaf,
    causal_effect,
    shapley,
)

#: SYM and G-SYM quantify over all subsets excluding a tuple pair; the
#: exhaustive pair check is capped here.
DEFAULT_SYM_CAP = 20

ScoreFunction = Callable[[PDBSpace, Query, str], Fraction]


def gces_score(pdb: PDBSpace, q: Query, tid: str, cap: int | None = None) -> Fraction:
    return causal_effect(pdb, q, tid, cap)


def banzhaf_score(pdb: PDBSpace, q: Query, tid: str, cap: int | None = None) -> Fraction:
    return banzhaf(pdb.instance, q, tid, cap)


def shapley_score(pdb: PDBSpace, q: Query, tid: str, cap: int | None = None) -> Fraction:
    return shapley(pdb.instance, q, tid, cap)


def constant_score(value) -> ScoreFunction:
    frozen = Fraction(value)

    def score(pdb: PDBSpace, q: Query, tid: str) -> Fraction:
        return frozen

    return score


SCORE_FUNCTIONS: dict[str, ScoreFunction] = {
    "gces": gces_score,
    "banzhaf": banzhaf_score,
    "shapley": shapley_score,
}


@dataclass(frozen=True)
class Witness:
    subject: str
    lhs: Fraction
    rhs: Fraction

    def to_json_dict(self) -> dict:
        return {
            "subject": self.subject,
            "lhs": f"{self.lhs.numerator}/{self.lhs.denominator}",
            "rhs": f"{self.rhs.numerator}/{self.rhs.denominator}",
        }

    def __str__(self) -> str:
        return (
            f"{self.subject}: {self.lhs} != {self.rhs} "
            f"({fraction_to_decimal(self.lhs)} vs {fraction_to_decimal(self.rhs)})"
        )


@dataclass(frozen=True)
class AxiomVerdict:
    axiom: str
    holds: bool
    witnesses: tuple[Witness, ...]

    def to_json_dict(self) -> dict:
        return {
            "axiom": self.axiom,
            "holds": self.holds,
            "witnesses": [w.to_json_dict() for w in self.witnesses],
        }


def _verdict(axiom: str, witnesses: list[Witness]) -> AxiomVerdict:
    return AxiomVerdict(axiom, not witnesses, tuple(witnesses))


def _require_boolean(q: Query):
    if not is_boolean(q):
        raise InputError("axiom checks take monotone Boolean queries")


def check_dum(
    pdb: PDBSpace, q: Query, score_fn: ScoreFunction, cap: int | None = None
) -> AxiomVerdict:
    """Tuples that swing no subset must score zero."""
    _require_boolean(q)
    tids = pdb.instance.endogenous_order
    powers = _swing_scores(pdb, q, ScoreKind.POWER_TUPLE, tids, cap)
    witnesses = []
    for tid, power in zip(tids, powers):
        if power == 0:
            score = score_fn(pdb, q, tid)
            if score != 0:
                witnesses.append(Witness(f"dummy tuple {tid}", score, Fraction(0)))
    return _verdict("DUM", witnesses)


def _check_sum(
    pdb: PDBSpace, q: Query, score_fn: ScoreFunction, cap: int | None, generalized: bool
) -> AxiomVerdict:
    """EFF, or G-EFF when ``generalized``: the scores must sum to the
    Banzhaf values' total (EFF) or to the total of the causal effects'
    subset forms (G-EFF), both one walk of swing sums."""
    _require_boolean(q)
    tids = pdb.instance.endogenous_order
    kind = ScoreKind.GCES if generalized else ScoreKind.BANZHAF
    rhs = sum(_swing_scores(pdb, q, kind, tids, cap), Fraction(0))
    lhs = sum((score_fn(pdb, q, tid) for tid in tids), Fraction(0))
    witnesses = [] if lhs == rhs else [Witness("sum of scores", lhs, rhs)]
    return _verdict("G-EFF" if generalized else "EFF", witnesses)


def check_eff(
    pdb: PDBSpace, q: Query, score_fn: ScoreFunction, cap: int | None = None
) -> AxiomVerdict:
    """The scores must sum to the total power divided by 2^(N-1), which is
    the Banzhaf values' total."""
    return _check_sum(pdb, q, score_fn, cap, generalized=False)


def _check_pairs(
    pdb: PDBSpace, q: Query, score_fn: ScoreFunction, cap: int | None, generalized: bool
) -> AxiomVerdict:
    """SYM, or G-SYM when ``generalized``.  A pair of tuples is admitted
    when the subsets without both that each one swings
    (`EndoWorlds.pair_swings`) are equal (SYM) or both empty (G-SYM); its
    scores (SYM) or scores minus weighted power (G-SYM) must coincide."""
    _require_boolean(q)
    worlds = EndoWorlds(pdb.instance, cap if cap is not None else DEFAULT_SYM_CAP)
    table = worlds.packed_table(q)
    if generalized:
        weighted = _swing_scorer(worlds, ScoreKind.WEIGHTED_POWER, pdb)(table)
        value = functools.cache(lambda tid: score_fn(pdb, q, tid) - weighted(tid))
        subject = "pair ({},{}) score minus weighted power"
    else:
        value = functools.cache(lambda tid: score_fn(pdb, q, tid))
        subject = "symmetric pair ({},{})"
    witnesses = []
    for a, b in itertools.combinations(worlds.order, 2):
        swings_a, swings_b = worlds.pair_swings(table, a, b)
        admitted = not (swings_a or swings_b) if generalized else swings_a == swings_b
        if admitted and value(a) != value(b):
            witnesses.append(Witness(subject.format(a, b), value(a), value(b)))
    return _verdict("G-SYM" if generalized else "SYM", witnesses)


def check_sym(
    pdb: PDBSpace, q: Query, score_fn: ScoreFunction, cap: int | None = None
) -> AxiomVerdict:
    """Tuples that are interchangeable on every subset excluding both must
    score equally."""
    return _check_pairs(pdb, q, score_fn, cap, generalized=False)


def check_lin(
    pdb: PDBSpace, qa: Query, qb: Query, score_fn: ScoreFunction,
    cap: int | None = None,
) -> AxiomVerdict:
    """Scores must add across the disjunction and conjunction of two
    monotone Boolean queries.  Each must be a BCQ or a union: their
    disjunction is the union of their disjuncts, scored like any union, and
    their conjunction the world-level `ConjQuery`."""
    _require_boolean(qa)
    _require_boolean(qb)
    refused = "LIN's disjunction is defined"
    either = UBCQ(_disjuncts(qa, refused) + _disjuncts(qb, refused))
    both = ConjQuery((qa, qb))
    witnesses = []
    for tid in pdb.instance.endogenous_order:
        lhs = score_fn(pdb, either, tid) + score_fn(pdb, both, tid)
        rhs = score_fn(pdb, qa, tid) + score_fn(pdb, qb, tid)
        if lhs != rhs:
            witnesses.append(Witness(f"tuple {tid}", lhs, rhs))
    return _verdict("LIN", witnesses)


def check_g_eff(
    pdb: PDBSpace, q: Query, score_fn: ScoreFunction, cap: int | None = None
) -> AxiomVerdict:
    """The scores must sum to the swing total weighted, per subset and
    tuple, by the mass at the subset plus the mass with the tuple added."""
    return _check_sum(pdb, q, score_fn, cap, generalized=True)


def check_g_sym(
    pdb: PDBSpace, q: Query, score_fn: ScoreFunction, cap: int | None = None
) -> AxiomVerdict:
    """For pairs of tuples that swing nothing on subsets excluding both,
    score minus weighted power must coincide."""
    return _check_pairs(pdb, q, score_fn, cap, generalized=True)


# ---------------------------------------------------------------------------
# Fresh expansion and the component-product identity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FreshExpansion:
    """The instance extended with one new endogenous tuple per query atom,
    over constants absent from the base active domain (one fresh constant
    per variable, substituted consistently across atoms)."""

    base: InstanceStore
    query: BCQ
    per_atom: tuple[TupleRecord, ...]
    expanded: InstanceStore
    partition: ComponentPartition

    def selection_functions(self) -> tuple[dict[int, TupleRecord], ...]:
        """Every way of picking one fresh tuple per component."""
        choices = [
            [(idx, self.per_atom[i]) for i in group]
            for idx, group in enumerate(self.partition.groups)
        ]
        return tuple(
            {idx: rec for idx, rec in combo}
            for combo in itertools.product(*choices)
        )


def fresh_expansion(instance: InstanceStore, q: BCQ) -> FreshExpansion:
    """Build the fresh expansion: fresh constants ``_f1, _f2, ...`` indexed
    by variable order of first occurrence (prefixed further if a user
    constant collides), one new tuple per atom."""
    if not isinstance(q, BCQ):
        raise InputError("fresh expansion takes a BCQ")
    taken = {c for c in instance.adom() if isinstance(c, str)}
    mapping: dict[str, str] = {}
    counter = 0
    for atom in q.atoms:
        for term in atom.terms:
            if isinstance(term, Var) and term.name not in mapping:
                counter += 1
                name = f"_f{counter}"
                while name in taken:
                    name = "_" + name
                taken.add(name)
                mapping[term.name] = name
    tids = set(instance.tids)
    records = []
    for i, atom in enumerate(q.atoms, start=1):
        tid = f"_u{i}"
        while tid in tids:
            tid = "_" + tid
        tids.add(tid)
        args = tuple(
            mapping[t.name] if isinstance(t, Var) else t for t in atom.terms
        )
        records.append(TupleRecord(tid, atom.predicate, args, "endogenous"))
    per_atom = tuple(records)
    return FreshExpansion(
        base=instance,
        query=q,
        per_atom=per_atom,
        expanded=instance.with_records(per_atom),
        partition=components(q),
    )


@dataclass(frozen=True)
class ProductFormulaReport:
    """Query probability versus the product, over components, of one minus
    the causal effect of the component's fresh tuple; identical for every
    selection function."""

    lhs: Fraction
    fresh_effects: dict[str, Fraction]
    per_sigma: tuple[tuple[str, Fraction], ...]

    @property
    def agree(self) -> bool:
        return all(rhs == self.lhs for _, rhs in self.per_sigma)


def verify_product_formula(
    pdb: PDBSpace, q: BCQ, cap: int | None = None
) -> ProductFormulaReport:
    """On a tuple-independent space, check that brute-force P(Q) equals the
    component product of (1 - causal effect) of fresh tuples at marginal 1,
    for every selection function."""
    if not pdb.is_tid:
        raise InputError("the product identity is stated for tuple-independent spaces")
    if not isinstance(q, BCQ):
        raise InputError("the product identity takes a BCQ")
    expansion = fresh_expansion(pdb.instance, q)
    fresh = dict.fromkeys((rec.tid for rec in expansion.per_atom), Probability(1))
    rep = TupleIndependent({**pdb.representation.marginals, **fresh})
    expanded_pdb = PDBSpace(expansion.expanded, rep)
    effects = {
        rec.tid: causal_effect(expanded_pdb, q, rec.tid, cap)
        for rec in expansion.per_atom
    }
    lhs = Fraction(query_probability(pdb, q, "brute", cap))
    sigmas = []
    for sigma in expansion.selection_functions():
        rhs = Fraction(1)
        parts = []
        for idx in sorted(sigma):
            rec = sigma[idx]
            rhs *= 1 - effects[rec.tid]
            parts.append(f"C{idx + 1}->{rec.tid}")
        sigmas.append((", ".join(parts), rhs))
    return ProductFormulaReport(lhs, effects, tuple(sigmas))


# ---------------------------------------------------------------------------
# Minimal-set decomposition
# ---------------------------------------------------------------------------

def mss_decomposition_check(
    instance: InstanceStore, q: Query, cap: int = 12
) -> AxiomVerdict:
    """Exhaustively confirm that on every subinstance the query holds iff
    the subinstance contains one of the query's minimal satisfiable sets."""
    _require_boolean(q)
    tids = sorted(instance.tids)
    if len(tids) > cap:
        raise ResourceLimitError(
            f"{len(tids)} tuples exceed the decomposition check cap of {cap}"
        )
    family = minimal_satisfiable_sets(instance, q)
    witnesses = []
    for mask in range(1 << len(tids)):
        world = frozenset(t for i, t in enumerate(tids) if mask >> i & 1)
        direct = evaluate(q, instance, world)
        via_family = int(any(s <= world for s in family))
        if direct != via_family:
            witnesses.append(
                Witness(f"world {sorted(world)}", Fraction(direct), Fraction(via_family))
            )
    return _verdict("mss-decomposition", witnesses)
