"""Fixture loaders, independent brute-force oracles, and random-corpus
generators shared across the test suite.

The oracles deliberately avoid the engine's code paths: query evaluation
tries every total atom-to-fact choice with itertools.product, probabilities
and scores are definition sums over itertools-enumerated subsets, Shapley is
averaged over permutations.  They are slow and only run at desk scale.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from pathlib import Path

from causalpdb import (
    Aggregate,
    BCQ,
    ExplicitWorlds,
    InstanceStore,
    PDBSpace,
    Probability,
    RelationSchema,
    TupleIndependent,
    TupleRecord,
    UBCQ,
    Var,
    evaluate,
    load_pdb_file,
    load_query_file,
)
from causalpdb.queries import Atom

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def count_validations(monkeypatch) -> list[PDBSpace]:
    """Record every space `core.validate` is called on, in call order."""
    from causalpdb import core

    calls = []

    def counting(pdb, _validate=core.validate):
        calls.append(pdb)
        return _validate(pdb)

    monkeypatch.setattr(core, "validate", counting)
    return calls


# ---------------------------------------------------------------------------
# Fixture loaders
# ---------------------------------------------------------------------------

def four_worlds_space() -> PDBSpace:
    return load_pdb_file(FIXTURES / "four_worlds_pdb.json").space


def paths_instance() -> InstanceStore:
    return load_pdb_file(FIXTURES / "paths_instance.json").instance


def paths_full_instance() -> InstanceStore:
    return load_pdb_file(FIXTURES / "paths_full_instance.json").instance


def path_query(schema=None):
    return load_query_file(FIXTURES / "path_query.q", schema)


def sum_query(schema=None):
    return load_query_file(FIXTURES / "sum_query.q", schema)


def power_p_space() -> PDBSpace:
    return load_pdb_file(FIXTURES / "power_p.json").space


def power_pprime_space() -> PDBSpace:
    return load_pdb_file(FIXTURES / "power_pprime.json").space


def power_query(schema=None):
    return load_query_file(FIXTURES / "power_query.q", schema)


def power_query_prime(schema=None):
    return load_query_file(FIXTURES / "power_query2.q", schema)


def ground_pair_query(schema=None):
    return load_query_file(FIXTURES / "ground_pair_query.q", schema)


def two_component_space() -> PDBSpace:
    return load_pdb_file(FIXTURES / "two_component_tid.json").space


def two_component_query(schema=None):
    return load_query_file(FIXTURES / "two_component_query.q", schema)


def nonhier_space() -> PDBSpace:
    return load_pdb_file(FIXTURES / "nonhier_pdb.json").space


def nonhier_query(schema=None):
    return load_query_file(FIXTURES / "nonhier_query.q", schema)


# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------

def _oracle_bindings(atoms, facts):
    """The variable binding of every total choice of one fact per atom that
    maps each atom onto its fact."""
    facts = list(facts)
    pools = [[args for pred, args in facts if pred == atom.predicate] for atom in atoms]
    for choice in itertools.product(*pools):
        binding = {}
        if all(_oracle_match(atom, args, binding) for atom, args in zip(atoms, choice)):
            yield binding


def _oracle_match(atom, args, binding) -> bool:
    for term, value in zip(atom.terms, args):
        if isinstance(term, Var):
            if binding.setdefault(term.name, value) != value:
                return False
        elif term != value:
            return False
    return True


def oracle_eval_bcq(q: BCQ, facts) -> int:
    """Existence of a homomorphism by trying every total choice of one fact
    per atom."""
    return int(any(True for _ in _oracle_bindings(q.atoms, facts)))


def oracle_eval_aggregate(q: Aggregate, facts) -> Fraction:
    """COUNT of, or SUM of the target over, the distinct full assignments
    among every total choice of one fact per atom."""
    assignments = {tuple(sorted(b.items())) for b in _oracle_bindings(q.atoms, facts)}
    if q.op == "count":
        return Fraction(len(assignments))
    return sum((dict(a)[q.target.name] for a in assignments), Fraction(0))


def oracle_eval(q, facts) -> int:
    if isinstance(q, BCQ):
        return oracle_eval_bcq(q, facts)
    if isinstance(q, UBCQ):
        return max(oracle_eval_bcq(d, facts) for d in q.disjuncts)
    raise TypeError(q)


def all_worlds_with_mass(pdb: PDBSpace):
    """Every subset of the instance with its mass, straight from the
    definition (explicit lookup or marginal product over all tuples)."""
    inst = pdb.instance
    tids = sorted(inst.tids)
    rep = pdb.representation
    for included in itertools.chain.from_iterable(
        itertools.combinations(tids, k) for k in range(len(tids) + 1)
    ):
        world = frozenset(included)
        if isinstance(rep, ExplicitWorlds):
            mass = rep.masses.get(world, Fraction(0))
        else:
            mass = Fraction(1)
            for tid in tids:
                p = rep.marginals[tid]
                mass *= p if tid in world else 1 - p
        yield world, mass


def world_facts(instance: InstanceStore, world) -> set:
    """The (predicate, args) facts of a world's tuples."""
    return {instance.record(t).fact for t in world}


def oracle_query_probability(pdb: PDBSpace, q) -> Fraction:
    total = Fraction(0)
    for world, mass in all_worlds_with_mass(pdb):
        if mass and oracle_eval(q, world_facts(pdb.instance, world)):
            total += mass
    return total


def oracle_causal_effect(pdb: PDBSpace, q, targets) -> Fraction:
    """Definition sum: mass-weighted difference of the query on each world
    with the targets forced in versus forced out."""
    targets = frozenset([targets] if isinstance(targets, str) else targets)
    total = Fraction(0)
    for world, mass in all_worlds_with_mass(pdb):
        if not mass:
            continue
        total += mass * (
            evaluate(q, pdb.instance, world | targets)
            - evaluate(q, pdb.instance, world - targets)
        )
    return total


def endo_subsets(instance: InstanceStore, excluding=()):
    pool = [t for t in instance.endogenous_order if t not in set(excluding)]
    for k in range(len(pool) + 1):
        for combo in itertools.combinations(pool, k):
            yield frozenset(combo)


def oracle_delta(instance, q, subset, tid) -> Fraction:
    subset = frozenset(subset)
    if tid in subset:
        return Fraction(0)
    base = subset | instance.exogenous
    return Fraction(
        evaluate(q, instance, base | {tid}) - evaluate(q, instance, base)
    )


def oracle_shapley(instance: InstanceStore, q, tid) -> Fraction:
    """Average marginal contribution over every permutation of the
    endogenous tuples."""
    order = instance.endogenous_order
    total = Fraction(0)
    count = 0
    for perm in itertools.permutations(order):
        before = frozenset(perm[: perm.index(tid)])
        total += oracle_delta(instance, q, before, tid)
        count += 1
    return total / count


def oracle_banzhaf(instance: InstanceStore, q, tid) -> Fraction:
    n = len(instance.endogenous_order)
    total = Fraction(0)
    for subset in endo_subsets(instance, excluding=[tid]):
        total += oracle_delta(instance, q, subset, tid)
    return total / (1 << max(n - 1, 0))


def oracle_power_of_tuple(instance, q, tid) -> Fraction:
    return sum(
        (oracle_delta(instance, q, s, tid) for s in endo_subsets(instance, [tid])),
        Fraction(0),
    )


def oracle_weighted_power(pdb: PDBSpace, q, tid) -> Fraction:
    from causalpdb import world_probability

    inst = pdb.instance
    total = Fraction(0)
    for subset in endo_subsets(inst, [tid]):
        d = oracle_delta(inst, q, subset, tid)
        if d:
            total += d * world_probability(pdb, subset | inst.exogenous)
    return total


def oracle_mss(instance: InstanceStore, q) -> set[frozenset[str]]:
    """Minimal satisfiable sets by checking every subset for satisfaction
    and minimality."""
    tids = sorted(instance.tids)
    out = set()
    for k in range(len(tids) + 1):
        for combo in itertools.combinations(tids, k):
            world = frozenset(combo)
            if not evaluate(q, instance, world):
                continue
            if all(
                not evaluate(q, instance, world - {t}) for t in world
            ):
                out.add(world)
    return out


# ---------------------------------------------------------------------------
# Random corpora
# ---------------------------------------------------------------------------

CORPUS_SCHEMA = {
    "P": RelationSchema("P", 1),
    "R": RelationSchema("R", 2),
    "S": RelationSchema("S", 2),
    "T": RelationSchema("T", 1),
}
CORPUS_CONSTANTS = ["a", "b", "c", "d"]
#: Integer constants, so that every position can be a sum target.
CORPUS_NUMBERS = [Fraction(n) for n in (-1, 0, 1, 2)]


def random_instance(
    rng: random.Random, max_endogenous: int = 8, n_exogenous: int | None = None,
    min_endogenous: int = 1, constants=CORPUS_CONSTANTS,
) -> InstanceStore:
    n_en = rng.randint(min_endogenous, max_endogenous)
    n_ex = rng.randint(0, 1) if n_exogenous is None else n_exogenous
    seen = set()
    records = []
    i = 0
    while len(records) < n_en + n_ex:
        pred = rng.choice(sorted(CORPUS_SCHEMA))
        args = tuple(
            rng.choice(constants)
            for _ in range(CORPUS_SCHEMA[pred].arity)
        )
        if (pred, args) in seen:
            i += 1
            if i > 200:
                break
            continue
        seen.add((pred, args))
        kind = "endogenous" if len(records) < n_en else "exogenous"
        records.append(TupleRecord(f"t{len(records) + 1}", pred, args, kind))
    return InstanceStore(CORPUS_SCHEMA, records)


def random_explicit_space(
    rng: random.Random, instance: InstanceStore, max_support: int = 10
) -> PDBSpace:
    endo = list(instance.endogenous_order)
    support = set()
    size = rng.randint(1, max_support)
    for _ in range(size):
        subset = frozenset(t for t in endo if rng.random() < 0.5)
        support.add(subset | instance.exogenous)
    weights = {world: rng.randint(1, 9) for world in sorted(support, key=sorted)}
    total = sum(weights.values())
    return PDBSpace(
        instance,
        ExplicitWorlds(
            [(world, Fraction(w, total)) for world, w in weights.items()]
        ),
    )


def random_tid_space(rng: random.Random, instance: InstanceStore) -> PDBSpace:
    marginals = {}
    for tid in sorted(instance.tids):
        if tid in instance.exogenous:
            marginals[tid] = Probability(1)
        else:
            marginals[tid] = Probability(rng.randint(0, 10), 10)
    return PDBSpace(instance, TupleIndependent(marginals))


def random_bcq(rng: random.Random, max_atoms: int = 3, constants=CORPUS_CONSTANTS) -> BCQ:
    n = rng.randint(1, max_atoms)
    variables = ["X", "Y", "Z"]
    atoms = []
    for _ in range(n):
        pred = rng.choice(sorted(CORPUS_SCHEMA))
        terms = tuple(
            Var(rng.choice(variables)) if rng.random() < 0.7
            else rng.choice(constants)
            for _ in range(CORPUS_SCHEMA[pred].arity)
        )
        atoms.append(Atom(pred, terms))
    return BCQ(tuple(atoms))


def random_boolean_query(rng: random.Random, max_atoms: int = 3):
    if rng.random() < 0.3:
        return UBCQ((random_bcq(rng, max_atoms), random_bcq(rng, max_atoms)))
    return random_bcq(rng, max_atoms)


def random_hierarchical_sjf_bcq(rng: random.Random, max_atoms: int = 3) -> BCQ:
    from causalpdb import is_hierarchical, is_self_join_free

    while True:
        q = random_bcq(rng, max_atoms)
        if is_self_join_free(q) and is_hierarchical(q):
            return q


# ---------------------------------------------------------------------------
# Inputs that nest one level per atom or per variable
# ---------------------------------------------------------------------------

def half_tid_document(schema: dict, facts) -> dict:
    """The wire form of a TID with one endogenous tuple per (predicate,
    args) fact, each at marginal 1/2."""
    tids = [f"t{i}" for i in range(1, len(facts) + 1)]
    return {
        "schema": schema,
        "tuples": [
            {"tid": tid, "predicate": pred, "args": list(args), "kind": "endogenous"}
            for tid, (pred, args) in zip(tids, facts)
        ],
        "marginals": dict.fromkeys(tids, "1/2"),
    }


def _chain_atom(i: int, prefix: str) -> list[str]:
    return [f"{prefix}{j}" for j in range(1, i + 1)]


def deep_inputs() -> dict[str, tuple[dict, str]]:
    """(document, query text) pairs deeper than Python's recursion limit
    at one frame per atom or per variable: a body of 1000 atoms ``R(X)``
    over one tuple ``R(a)``; a chain of 450 atoms ``A_i(X1..Xi)`` with one
    tuple ``A_i(c1..ci)`` each; and one 1500-ary atom over one tuple."""
    chain = range(1, 451)
    wide = range(1500)
    return {
        "long-body": (
            half_tid_document({"R": 1}, [("R", ["a"])]),
            "Q() :- " + ", ".join(["R(X)"] * 1000),
        ),
        "chain": (
            half_tid_document(
                {f"A{i}": i for i in chain},
                [(f"A{i}", _chain_atom(i, "c")) for i in chain],
            ),
            "Q() :- " + ", ".join(
                f"A{i}({','.join(_chain_atom(i, 'X'))})" for i in chain
            ),
        ),
        "wide-atom": (
            half_tid_document({"R": 1500}, [("R", [f"c{j}" for j in wide])]),
            f"Q() :- R({','.join(f'X{j}' for j in wide)})",
        ),
    }
