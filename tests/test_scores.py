"""Attribution scores: causal effects, Shapley, Banzhaf, power functions."""

import itertools
import json
import math
import random
from fractions import Fraction

import pytest

from causalpdb import (
    Aggregate,
    ExplicitWorlds,
    InputError,
    InstanceStore,
    PDBSpace,
    Probability,
    RelationSchema,
    ResourceLimitError,
    ScoreKind,
    TupleIndependent,
    TupleRecord,
    banzhaf,
    causal_effect,
    ces_ui,
    check_sym,
    clear_kept,
    delta,
    gces_oracle,
    gces_subset_form,
    make_uniform_tid,
    parse_query,
    power_of_set,
    power_of_tuple,
    score_all,
    shapley,
    total_power,
    weighted_power,
)
from causalpdb import queries as queries_module
from causalpdb import scores as scores_module
from causalpdb.queries import (
    BCQ, COUNT, SUM, UBCQ, Atom, ConjQuery, DisjQuery, QueryOfSet, Var, evaluate,
)
from causalpdb.scores import (
    EndoWorlds,
    ScoreEntry,
    ScoreReport,
    _causal_effect,
    _pack,
    _rank,
    _swing_scorer,
)

from helpers import (
    CORPUS_SCHEMA,
    all_worlds_with_mass,
    endo_subsets,
    oracle_delta,
    oracle_banzhaf,
    oracle_causal_effect,
    oracle_power_of_tuple,
    oracle_shapley,
    oracle_weighted_power,
    path_query,
    paths_full_instance,
    paths_instance,
    power_p_space,
    power_pprime_space,
    power_query,
    power_query_prime,
    random_bcq,
    random_boolean_query,
    random_explicit_space,
    random_hierarchical_sjf_bcq,
    random_instance,
    random_tid_space,
    four_worlds_space,
    sum_query,
)


# ---------------------------------------------------------------------------
# Marginal contributions
# ---------------------------------------------------------------------------

def test_delta_examples():
    space = power_p_space()
    q = power_query(space.instance.schema)
    assert delta(space.instance, q, {"t2"}, "t3") == 1
    assert delta(space.instance, q, {"t3"}, "t2") == 0
    assert delta(space.instance, q, {"t3"}, "t3") == 0


def test_delta_rejects_exogenous():
    space = power_p_space()
    q = power_query(space.instance.schema)
    with pytest.raises(InputError, match="exogenous"):
        delta(space.instance, q, set(), "t1")
    with pytest.raises(InputError, match="non-endogenous"):
        delta(space.instance, q, {"t1"}, "t2")


# ---------------------------------------------------------------------------
# Causal effects
# ---------------------------------------------------------------------------

def test_four_worlds_causal_effect():
    space = four_worlds_space()
    q = path_query(space.instance.schema)
    assert causal_effect(space, q, "t3") == Fraction(11, 20)


def test_ces_ui_path_values():
    inst = paths_instance()
    q = path_query(inst.schema)
    assert ces_ui(inst, q, "t1") == Fraction(21, 32)
    assert ces_ui(inst, q, "t2") == Fraction(7, 32)
    assert ces_ui(inst, q, "t3") == Fraction(7, 32)
    for tid in ("t4", "t5", "t6"):
        assert ces_ui(inst, q, tid) == Fraction(3, 32)


def test_ces_ui_join_values():
    space = power_p_space()
    inst = space.instance
    q = power_query(inst.schema)
    assert ces_ui(inst, q, "t3") == Fraction(1, 2)
    assert ces_ui(inst, power_query_prime(inst.schema), "t3") == 1


def test_dummy_tuple_scores_zero():
    space = power_p_space()
    q = power_query(space.instance.schema)
    assert causal_effect(space, q, "t2") == 0
    assert causal_effect(power_pprime_space(), q, "t2") == 0


def test_gces_under_skewed_distribution():
    space = power_pprime_space()
    q = power_query(space.instance.schema)
    values = [causal_effect(space, q, t) for t in ("t2", "t3", "t4")]
    assert values == [0, Fraction(5, 12), Fraction(1, 2)]


def test_causal_effect_of_sets():
    space = four_worlds_space()
    q = path_query(space.instance.schema)
    joint = causal_effect(space, q, {"t2", "t3"})
    # forcing both in always leaves a path; forcing both out leaves only the
    # direct edge, present in the worlds of mass 0.20 and 0.25
    assert joint == 1 - Fraction(9, 20)


def test_empty_target_rejected():
    space = four_worlds_space()
    q = path_query(space.instance.schema)
    with pytest.raises(InputError, match="nonempty"):
        causal_effect(space, q, [])


def test_boolean_gces_is_bounded():
    rng = random.Random(555)
    for _ in range(20):
        inst = random_instance(rng, max_endogenous=5)
        space = random_explicit_space(rng, inst)
        q = random_boolean_query(rng)
        for tid in inst.endogenous_order:
            value = causal_effect(space, q, tid)
            assert 0 <= value <= 1


def test_three_forms_agree_on_random_corpus(monkeypatch):
    from causalpdb import core, interventions

    original = core.enumerate_worlds
    enumerations = []

    def counting(pdb, cap=None):
        enumerations.append(pdb)
        return original(pdb, cap)

    for module in (core, queries_module, interventions, scores_module):
        if vars(module).get("enumerate_worlds") is original:
            monkeypatch.setattr(module, "enumerate_worlds", counting)
    rng = random.Random(918)
    for _ in range(15):
        inst = random_instance(rng, max_endogenous=5)
        space = (
            random_explicit_space(rng, inst)
            if rng.random() < 0.5
            else random_tid_space(rng, inst)
        )
        q = random_boolean_query(rng)
        tid = rng.choice(inst.endogenous_order)
        enumerations.clear()
        report = gces_oracle(space, q, tid)
        # Two materialized spaces and one pass over the base worlds.
        assert len(enumerations) == 3
        assert report.agree
        assert report.value == oracle_causal_effect(space, q, tid)
        count = Aggregate(COUNT, None, random_bcq(rng).atoms)
        pair = rng.sample(inst.endogenous_order, min(2, len(inst.endogenous_order)))
        for query, targets in ((q, pair), (count, [tid]), (count, pair)):
            report = gces_oracle(space, query, targets)
            assert report.agree
            assert (report.subset_form is None) == (query is count or len(targets) > 1)
            assert report.value == oracle_causal_effect(space, query, targets)


def test_subset_form_equals_direct_definition():
    space = power_pprime_space()
    q = power_query(space.instance.schema)
    for tid in ("t2", "t3", "t4"):
        assert gces_subset_form(space, q, tid) == causal_effect(space, q, tid)


def test_scores_agree_across_representations():
    from causalpdb import enumerate_worlds

    rng = random.Random(1089)
    for _ in range(8):
        inst = random_instance(rng, max_endogenous=5)
        tid_space = random_tid_space(rng, inst)
        explicit = PDBSpace(
            inst, ExplicitWorlds(list(enumerate_worlds(tid_space)))
        )
        q = random_boolean_query(rng)
        for tid in inst.endogenous_order:
            assert causal_effect(tid_space, q, tid) == causal_effect(
                explicit, q, tid
            )
            assert weighted_power(tid_space, q, tid) == weighted_power(
                explicit, q, tid
            )


def test_lifted_ces_equals_brute_ces():
    rng = random.Random(2718)
    for _ in range(25):
        inst = random_instance(rng, max_endogenous=6)
        space = random_tid_space(rng, inst)
        q = random_hierarchical_sjf_bcq(rng)
        for tid in inst.endogenous_order[:3]:
            value, backend = _causal_effect(space, q, frozenset([tid]))
            assert backend == "lifted"
            assert value == oracle_causal_effect(space, q, tid)


def test_aggregate_closed_form_cross_checks_brute():
    inst = paths_full_instance()
    space = make_uniform_tid(inst)
    q = parse_query("Q(sum(Y)) :- S(X,Y)", inst.schema)
    value, backend = _causal_effect(space, q, frozenset(["t7"]))
    assert backend == "closed-form"
    assert value == 1
    # same computation through world enumeration on the S-only instance
    s_only = InstanceStore(
        {"S": inst.schema["S"]},
        [r for r in inst.records() if r.predicate == "S"],
    )
    brute = oracle_causal_effect(make_uniform_tid(s_only), q, "t7")
    assert brute == value


def test_duplicate_facts_in_closed_form_aggregate():
    # two tuples carrying the same fact: the assignment counts once, with
    # presence probability 1 - (1-p)(1-p)
    schema = {"S": RelationSchema("S", 2, ("symbolic", "numeric"))}
    recs = [
        TupleRecord("d1", "S", ("a", 5), "endogenous"),
        TupleRecord("d2", "S", ("a", 5), "endogenous"),
    ]
    inst = InstanceStore(schema, recs)
    space = make_uniform_tid(inst)
    q = parse_query("Q(sum(Y)) :- S(X,Y)", schema)
    from causalpdb import expected_value

    assert expected_value(space, q) == Fraction(15, 4)
    value, backend = _causal_effect(space, q, frozenset(["d1"]))
    assert backend == "closed-form"
    assert value == Fraction(5, 2)
    assert value == oracle_causal_effect(space, q, "d1")


def test_aggregate_count_uses_brute():
    inst = paths_full_instance()
    space = make_uniform_tid(inst)
    q = parse_query("Q(count()) :- S(X,Y)", inst.schema)
    value, backend = _causal_effect(space, q, frozenset(["t7"]))
    assert backend == "brute"
    assert value == 1  # t7's fact is one distinct assignment


# ---------------------------------------------------------------------------
# Causal effects on independent spaces: one plan, the targets' marginals forced
# ---------------------------------------------------------------------------

def _shared_fact_space(rng, schema, records, carried):
    """A random independent space over the records plus one or two more
    carriers of the record ``carried``'s fact, the last of them exogenous
    in about a third of the draws."""
    extra = rng.randint(1, 2)
    for i in range(extra):
        exogenous = i == extra - 1 and rng.random() < 1 / 3
        records.append(TupleRecord(
            f"d{i + 1}", carried.predicate, carried.args,
            "exogenous" if exogenous else "endogenous",
        ))
    return random_tid_space(rng, InstanceStore(schema, records))


def _matches(atom, fact):
    predicate, args = fact
    return atom.predicate == predicate and all(
        isinstance(term, Var) or term == value for term, value in zip(atom.terms, args)
    )


def _shared_fact_draws(seed, count):
    """(space, hierarchical self-join-free BCQ, carriers of the shared
    fact) draws; some atom of the query matches the shared fact."""
    rng = random.Random(seed)
    for _ in range(count):
        inst = random_instance(rng, max_endogenous=5, n_exogenous=rng.randint(0, 1))
        records = inst.records()
        carried = rng.choice(records)
        # Two atoms at most, so that the other atom often holds too.
        q = random_hierarchical_sjf_bcq(rng, max_atoms=2)
        while not any(_matches(atom, carried.fact) for atom in q.atoms):
            q = random_hierarchical_sjf_bcq(rng, max_atoms=2)
        space = _shared_fact_space(rng, CORPUS_SCHEMA, records, carried)
        carriers = sorted(
            r.tid for r in space.instance.records() if r.fact == carried.fact
        )
        yield space, q, carriers


@pytest.mark.parametrize("kind", ["ces-tid", "ces-ui", "gces"])
def test_lifted_scores_with_shared_facts_match_the_oracle(kind):
    for space, q, _ in _shared_fact_draws(31, 25):
        inst = space.instance
        source = inst if kind == "ces-ui" else space
        oracle_space = make_uniform_tid(inst) if kind == "ces-ui" else space
        report = score_all(source, q, kind)
        assert {e.backend for e in report.entries} <= {"lifted"}
        assert report.values() == {
            t: oracle_causal_effect(oracle_space, q, t) for t in inst.endogenous_order
        }


def test_lifted_effects_of_target_pairs_match_the_oracle():
    pick = random.Random(33)
    shared_pairs = 0
    for space, q, carriers in _shared_fact_draws(32, 30):
        endo = space.instance.endogenous_order
        pairs = [frozenset(pick.sample(endo, 2))] if len(endo) > 1 else []
        shared = [t for t in carriers if t in space.instance.endogenous]
        if len(shared) > 1:
            pairs.append(frozenset(shared[:2]))
            shared_pairs += 1
        for pair in pairs:
            value, backend = _causal_effect(space, q, pair)
            assert backend == "lifted"
            assert value == oracle_causal_effect(space, q, pair)
            assert causal_effect(space, q, pair) == value
    assert shared_pairs >= 5


def _leaf_tids(node) -> list:
    """The tuple of each leaf of a lifted plan, one entry per leaf."""
    if hasattr(node, "children"):
        return [tid for child in node.children for tid in _leaf_tids(child)]
    return [node.tid]


def test_one_lifted_plan_serves_the_base_and_every_forced_map():
    from causalpdb.interventions import Intervention, intervene
    from causalpdb.queries import _lifted_plan, query_probability

    rng = random.Random(41)
    seen = {"constant": 0, "repeated variable": 0, "nonzero effect": 0,
            "exogenous co-carrier": 0, "endogenous co-carrier": 0}
    for _ in range(80):
        inst = random_instance(rng, max_endogenous=5, n_exogenous=rng.randint(0, 1))
        records = inst.records()
        carried = rng.choice(records)
        space = _shared_fact_space(rng, CORPUS_SCHEMA, records, carried)
        inst = space.instance
        q = random_hierarchical_sjf_bcq(rng)
        while not any(_matches(atom, carried.fact) for atom in q.atoms):
            q = random_hierarchical_sjf_bcq(rng)
        terms = [t for atom in q.atoms for t in atom.terms]
        seen["constant"] += any(not isinstance(t, Var) for t in terms)
        seen["repeated variable"] += any(
            len(atom.variables) < sum(isinstance(t, Var) for t in atom.terms)
            for atom in q.atoms
        )
        marginals = space.representation.marginals
        plan = _lifted_plan(inst, q)
        leaves = _leaf_tids(plan)
        assert len(leaves) == len(set(leaves))  # read-once: one leaf per tuple
        assert set(leaves) <= inst.tids
        assert plan.probability(marginals) == query_probability(space, q, "brute")
        co_carriers = set()
        for tid in inst.endogenous_order:
            target = frozenset([tid])
            p_in = plan.probability({**marginals, tid: Fraction(1)})
            p_out = plan.probability({**marginals, tid: Fraction(0)})
            assert p_in == query_probability(
                intervene(space, Intervention.do_in(target)), q, "brute"
            )
            assert p_out == query_probability(
                intervene(space, Intervention.do_out(target)), q, "brute"
            )
            assert p_in - p_out == oracle_causal_effect(space, q, tid)
            seen["nonzero effect"] += p_in != p_out
            if tid in leaves:  # the plan reads the target and its co-carriers
                co_carriers.update(
                    f"{r.kind} co-carrier" for r in inst.records()
                    if r.fact == inst.record(tid).fact and r.tid != tid and r.tid in leaves
                )
        for key in co_carriers:
            seen[key] += 1
    assert min(seen.values()) >= 10, seen


def test_one_lifted_plan_serves_two_spaces_over_one_instance():
    from causalpdb.queries import _lifted_plan, query_probability

    rng = random.Random(43)
    differ = 0
    for _ in range(40):
        inst = random_instance(rng, max_endogenous=6, n_exogenous=rng.randint(0, 1))
        carried = rng.choice(inst.records())
        q = random_hierarchical_sjf_bcq(rng)
        while not any(_matches(atom, carried.fact) for atom in q.atoms):
            q = random_hierarchical_sjf_bcq(rng)
        plan = _lifted_plan(inst, q)
        first, second = random_tid_space(rng, inst), random_tid_space(rng, inst)
        p_first = plan.probability(first.representation.marginals)
        p_second = plan.probability(second.representation.marginals)
        assert p_first == query_probability(first, q, "brute")
        assert p_second == query_probability(second, q, "brute")
        differ += p_first != p_second
    assert differ >= 10, differ


def _count_calls(monkeypatch, module, *names):
    calls = {}
    for name in names:
        def counting(*args, _name=name, _original=getattr(module, name)):
            calls[_name] = calls.get(_name, 0) + 1
            return _original(*args)

        monkeypatch.setattr(module, name, counting)
    return calls


def test_score_all_chooses_the_route_and_builds_the_plan_once(monkeypatch):
    from helpers import two_component_query, two_component_space

    calls = _count_calls(monkeypatch, queries_module, "lifted_rejections", "_lifted_plan")
    space = two_component_space()
    q = two_component_query(space.instance.schema)
    for source, kind in ((space, "ces-tid"), (space, "gces"), (space.instance, "ces-ui")):
        calls.clear()
        report = score_all(source, q, kind)
        assert len(report.entries) > 1
        assert {e.backend for e in report.entries} == {"lifted"}
        assert calls == {"lifted_rejections": 1, "_lifted_plan": 1}
    calls.clear()
    causal_effect(space, q, ["t1", "t4"])
    assert calls == {"lifted_rejections": 1, "_lifted_plan": 1}
    calls.clear()
    report = score_all(paths_instance(), path_query(), "ces-ui")
    assert {e.backend for e in report.entries} == {"brute"}
    assert calls == {"lifted_rejections": 1}


SUM_SCHEMA = {"S": RelationSchema("S", 2, ("symbolic", "numeric"))}


@pytest.mark.parametrize("body", ["S(X,Y)", "S(a,Y)", "S(b,Y)"])
def test_closed_form_sums_with_shared_facts_match_the_oracle(body):
    q = parse_query(f"Q(sum(Y)) :- {body}", SUM_SCHEMA)
    rng = random.Random(body)
    for _ in range(8):
        facts = {(rng.choice("ab"), Fraction(rng.randint(-2, 3))) for _ in range(4)}
        records = [
            TupleRecord(f"t{i}", "S", args, "endogenous")
            for i, args in enumerate(sorted(facts))
        ]
        space = _shared_fact_space(rng, SUM_SCHEMA, records, rng.choice(records))
        inst = space.instance
        for kind, oracle_space in (("ces-tid", space), ("gces", space),
                                   ("ces-ui", make_uniform_tid(inst))):
            report = score_all(inst if kind == "ces-ui" else space, q, kind)
            assert {e.backend for e in report.entries} == {"closed-form"}
            assert report.values() == {
                t: oracle_causal_effect(oracle_space, q, t) for t in inst.endogenous_order
            }
        pair = frozenset(rng.sample(inst.endogenous_order, 2))
        value, backend = _causal_effect(space, q, pair)
        assert backend == "closed-form"
        assert value == oracle_causal_effect(space, q, pair)


def test_independent_routes_validate_once_and_build_no_intervened_space(monkeypatch):
    from causalpdb import interventions
    from helpers import count_validations, two_component_query, two_component_space

    def refuse(*args, **kwargs):
        raise AssertionError("an intervened space was built")

    for module in (interventions, scores_module):  # every module that binds the name
        monkeypatch.setattr(module, "intervene", refuse)
    calls = count_validations(monkeypatch)
    space = two_component_space()
    q = two_component_query(space.instance.schema)
    sums = parse_query("Q(sum(Y)) :- S(X,Y)", SUM_SCHEMA)
    summed = make_uniform_tid(InstanceStore(SUM_SCHEMA, [
        TupleRecord(f"t{i}", "S", ("a", i), "endogenous") for i in range(4)
    ]))
    for source, query, kind, backend in (
        (space, q, "ces-tid", "lifted"),
        (space, q, "gces", "lifted"),
        (space.instance, q, "ces-ui", "lifted"),
        (summed, sums, "ces-tid", "closed-form"),
    ):
        report = score_all(source, query, kind)
        assert len(report.entries) > 1
        assert {e.backend for e in report.entries} == {backend}
    for pdb, query, targets in ((space, q, ["t1"]), (space, q, ["t1", "t4"]),
                                (summed, sums, ["t2"])):
        causal_effect(pdb, query, targets)
    # One verdict per space over the whole sequence: the two given spaces
    # and the uniform one that ces-ui builds, each validated once.
    assert len(calls) == len({id(pdb) for pdb in calls}) == 3
    assert space in calls and summed in calls


# ---------------------------------------------------------------------------
# Shapley and Banzhaf
# ---------------------------------------------------------------------------

def test_shapley_examples():
    space = power_p_space()
    inst = space.instance
    q = power_query(inst.schema)
    assert shapley(inst, q, "t3") == Fraction(1, 2)
    assert shapley(inst, q, "t2") == 0
    total = sum(shapley(inst, q, t) for t in inst.endogenous_order)
    assert total == 1  # efficiency: the query holds on the full instance


def test_shapley_matches_permutation_oracle():
    rng = random.Random(161)
    for _ in range(10):
        inst = random_instance(rng, max_endogenous=5)
        q = random_boolean_query(rng)
        for tid in inst.endogenous_order:
            assert shapley(inst, q, tid) == oracle_shapley(inst, q, tid)


def test_banzhaf_examples():
    space = power_p_space()
    inst = space.instance
    q = power_query(inst.schema)
    assert banzhaf(inst, q, "t3") == Fraction(1, 2)
    assert banzhaf(inst, q, "t2") == 0


def test_banzhaf_matches_definition_oracle():
    rng = random.Random(262)
    for _ in range(10):
        inst = random_instance(rng, max_endogenous=5)
        q = random_boolean_query(rng)
        for tid in inst.endogenous_order:
            assert banzhaf(inst, q, tid) == oracle_banzhaf(inst, q, tid)


def test_ces_ui_equals_banzhaf():
    rng = random.Random(363)
    for _ in range(12):
        inst = random_instance(rng, max_endogenous=5)
        q = random_boolean_query(rng)
        for tid in inst.endogenous_order:
            assert ces_ui(inst, q, tid) == banzhaf(inst, q, tid)


def test_subset_cap_enforced():
    inst = random_instance(random.Random(1), max_endogenous=6, min_endogenous=6)
    q = random_boolean_query(random.Random(2))
    with pytest.raises(ResourceLimitError, match="cap of 3"):
        shapley(inst, q, inst.endogenous_order[0], cap=3)


# ---------------------------------------------------------------------------
# Power functions
# ---------------------------------------------------------------------------

def test_power_of_set_examples():
    space = power_p_space()
    q = power_query(space.instance.schema)
    assert power_of_set(space, q, {"t2"}) == 2
    assert power_of_set(space, q, set()) == 2
    assert power_of_set(space, q, {"t3", "t4"}) == 0
    with pytest.raises(InputError, match="strict subsets"):
        power_of_set(space, q, {"t2", "t3", "t4"})


def test_power_of_tuple_examples():
    space = power_p_space()
    q = power_query(space.instance.schema)
    assert power_of_tuple(space, q, "t2") == 0
    assert power_of_tuple(space, q, "t3") == 2
    assert power_of_tuple(space, q, "t4") == 2


def test_sole_mss_member_has_full_power():
    space = power_p_space()
    q = power_query_prime(space.instance.schema)
    assert power_of_tuple(space, q, "t3") == 4  # every subset swings, 2^(N-1)


def test_power_of_tuple_matches_oracle():
    rng = random.Random(464)
    for _ in range(10):
        inst = random_instance(rng, max_endogenous=5)
        q = random_boolean_query(rng)
        for tid in inst.endogenous_order:
            assert power_of_tuple(inst, q, tid) == oracle_power_of_tuple(inst, q, tid)


def test_weighted_power_examples():
    space = power_p_space()
    q = power_query(space.instance.schema)
    assert weighted_power(space, q, "t3") == Fraction(1, 4)
    assert weighted_power(space, q, "t2") == 0


def test_weighted_power_single_atom_distribution():
    schema = {"R": RelationSchema("R", 1), "S": RelationSchema("S", 1)}
    recs = [
        TupleRecord("t1", "R", ("a",), "endogenous"),
        TupleRecord("t2", "S", ("b",), "endogenous"),
    ]
    inst = InstanceStore(schema, recs)
    space = PDBSpace(inst, ExplicitWorlds([({"t2"}, Fraction(1))]))
    q = parse_query("Q() :- R(a)", schema)
    assert weighted_power(space, q, "t1") == 1


def test_weighted_power_matches_oracle():
    rng = random.Random(565)
    for _ in range(10):
        inst = random_instance(rng, max_endogenous=5)
        space = random_explicit_space(rng, inst)
        q = random_boolean_query(rng)
        for tid in inst.endogenous_order:
            assert weighted_power(space, q, tid) == oracle_weighted_power(
                space, q, tid
            )


@pytest.mark.parametrize("kind", [ScoreKind.WEIGHTED_POWER, ScoreKind.GCES])
def test_mass_weighted_scores_skip_an_empty_swing_set(kind, monkeypatch):
    # A monotone table swings nothing down: the empty down-swing set weighs
    # 0 without unpacking its 2^N bits.
    space = make_uniform_tid(paths_instance())
    q = path_query(space.instance.schema)
    tids = space.instance.endogenous_order
    worlds = EndoWorlds(space.instance)
    table = worlds.packed_table(q)
    unpacked = []
    original = scores_module._unpack
    monkeypatch.setattr(scores_module, "_unpack",
                        lambda swings, size: unpacked.append(swings) or original(swings, size))
    score = _swing_scorer(worlds, kind, space)(table)
    got = [score(tid) for tid in tids]
    swinging = [tid for tid in tids if oracle_banzhaf(space.instance, q, tid) != 0]
    assert 0 not in unpacked and len(unpacked) == len(swinging) > 0
    if kind is ScoreKind.WEIGHTED_POWER:
        assert got == [oracle_weighted_power(space, q, tid) for tid in tids]
    else:
        assert got == [oracle_causal_effect(space, q, [tid]) for tid in tids]


def test_total_power_examples():
    space = power_p_space()
    q = power_query(space.instance.schema)
    assert total_power(space, q) == 4
    tuple_sum = sum(
        power_of_tuple(space, q, t) for t in space.instance.endogenous_order
    )
    assert tuple_sum == 4


def test_total_power_of_unsatisfiable_query():
    inst = paths_instance()
    q = parse_query("Q() :- E(b,a)", inst.schema)
    assert total_power(inst, q) == 0


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

def test_score_all_ces_ui_ranking():
    inst = paths_instance()
    q = path_query(inst.schema)
    report = score_all(inst, q, ScoreKind.CES_UI)
    assert report.ranking == ("t1", "t2", "t3", "t4", "t5", "t6")
    assert report.n_endogenous == 6
    values = report.values()
    assert values["t1"] == Fraction(21, 32)
    assert values["t2"] == values["t3"] == Fraction(7, 32)
    assert values["t4"] == values["t5"] == values["t6"] == Fraction(3, 32)
    assert all(e.positive_ceui for e in report.entries)


def test_score_all_gces_skewed():
    space = power_pprime_space()
    q = power_query(space.instance.schema)
    report = score_all(space, q, "gces")
    assert report.values() == {
        "t2": Fraction(0),
        "t3": Fraction(5, 12),
        "t4": Fraction(1, 2),
    }
    assert report.ranking == ("t4", "t3", "t2")


def test_score_all_empty_endogenous():
    schema = {"P": RelationSchema("P", 1)}
    inst = InstanceStore(schema, [TupleRecord("t1", "P", ("a",), "exogenous")])
    q = parse_query("Q() :- P(a)", schema)
    report = score_all(inst, q, ScoreKind.BANZHAF)
    assert report.entries == ()
    assert report.ranking == ()


def test_score_all_input_order_invariance():
    inst = paths_instance()
    q = path_query(inst.schema)
    base = score_all(inst, q, ScoreKind.SHAPLEY)
    for seed in range(3):
        records = inst.records()
        random.Random(seed).shuffle(records)
        shuffled = InstanceStore(inst.schema, records)
        again = score_all(shuffled, q, ScoreKind.SHAPLEY)
        assert again.ranking == base.ranking
        assert again.values() == base.values()


SCORE_ORACLES = {
    ScoreKind.SHAPLEY: lambda space, q, tid: oracle_shapley(space.instance, q, tid),
    ScoreKind.BANZHAF: lambda space, q, tid: oracle_banzhaf(space.instance, q, tid),
    ScoreKind.POWER_TUPLE: lambda space, q, tid: oracle_power_of_tuple(
        space.instance, q, tid
    ),
    ScoreKind.WEIGHTED_POWER: oracle_weighted_power,
    ScoreKind.GCES: oracle_causal_effect,
    ScoreKind.CES_TID: oracle_causal_effect,
    ScoreKind.CES_UI: lambda space, q, tid: oracle_causal_effect(
        make_uniform_tid(space.instance), q, tid
    ),
}


@pytest.mark.parametrize("kind", list(SCORE_ORACLES), ids=lambda k: k.value)
def test_score_all_matches_oracles(kind):
    # Every third query counts a cross product: adding one P tuple adds an
    # assignment per T tuple, so swings exceed 1, and the value table takes
    # the non-monotone path.  The Boolean draws (unions, self-joins,
    # non-hierarchical bodies, explicit spaces) are mostly outside the
    # lifted class, so their causal effects come from the world sums.
    cross = parse_query("Q(count()) :- P(X), T(Y)", CORPUS_SCHEMA)
    rng = random.Random(767)
    for i in range(12):
        inst = random_instance(rng, max_endogenous=5, min_endogenous=3)
        explicit = i % 2 and kind is not ScoreKind.CES_TID
        space = random_explicit_space(rng, inst) if explicit else random_tid_space(rng, inst)
        q = cross if i % 3 == 0 else random_boolean_query(rng)
        report = score_all(space, q, kind)
        expected = {t: SCORE_ORACLES[kind](space, q, t) for t in inst.endogenous_order}
        assert report.values() == expected
        if kind is ScoreKind.CES_UI:
            assert [e.positive_ceui for e in report.entries] == [
                expected[t] > 0 for t in inst.endogenous_order
            ]
        if kind is ScoreKind.POWER_TUPLE:
            assert total_power(space, q) == sum(expected.values())


def _evaluated_table(worlds, q):
    return bytes(evaluate(q, worlds.instance, worlds.world(m)) for m in range(worlds.size))


def _count_evaluations(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return evaluate(*args)

    monkeypatch.setattr(scores_module, "evaluate", counting)
    return calls


def test_value_table_matches_evaluation_on_random_corpus(monkeypatch):
    calls = _count_evaluations(monkeypatch)
    rng = random.Random(4242)
    for i in range(48):  # the last 8 draws hold 8-10 endogenous tuples
        low, high = (8, 10) if i >= 40 else (1, 6)
        inst = random_instance(rng, high, n_exogenous=2, min_endogenous=low)
        q = random_boolean_query(rng)
        worlds = EndoWorlds(inst)
        assert worlds.value_table(q) == _evaluated_table(worlds, q)
    assert calls == []  # every table came from the images


def test_value_table_constant_queries(monkeypatch):
    calls = _count_evaluations(monkeypatch)
    inst = power_p_space().instance  # t1 = R(a,b) is the only exogenous tuple
    worlds = EndoWorlds(inst)
    sure = parse_query("Q() :- R(a,X)", inst.schema)
    never = parse_query("Q() :- R(X,X)", inst.schema)
    assert worlds.value_table(sure) == _evaluated_table(worlds, sure) == bytes([1] * 8)
    assert worlds.value_table(never) == _evaluated_table(worlds, never) == bytes(8)
    assert calls == []


@pytest.mark.parametrize("n_exo, evaluations", [(2, 0), (3, 2)])
def test_value_table_falls_back_past_one_image_per_mask(n_exo, evaluations, monkeypatch):
    # One image per exogenous E tuple against two masks: two images still
    # compile, the third sends both masks to evaluation.
    calls = _count_evaluations(monkeypatch)
    schema = {"R": RelationSchema("R", 1), "E": RelationSchema("E", 2)}
    recs = [TupleRecord("r", "R", ("a",), "endogenous")] + [
        TupleRecord(f"e{i}", "E", (f"a{i}", "b"), "exogenous") for i in range(n_exo)
    ]
    inst = InstanceStore(schema, recs)
    q = parse_query("Q() :- R(a), E(X,b)", schema)
    worlds = EndoWorlds(inst)
    assert worlds.value_table(q) == bytes([0, 1])
    assert len(calls) == evaluations
    assert _evaluated_table(worlds, q) == bytes([0, 1])


def test_boolean_value_tables_are_bytes_equal_to_their_evaluated_form():
    # Lineage-built (BCQs, unions) and evaluated (world-level forms) alike.
    rng = random.Random(2526)
    for _ in range(30):
        inst = random_instance(rng, 6, n_exogenous=1)
        worlds = EndoWorlds(inst)
        bcq, union = random_bcq(rng), random_boolean_query(rng)
        some = QueryOfSet(frozenset(rng.sample(inst.endogenous_order, 1)))
        for q in (bcq, union, some, ConjQuery((bcq, some)), DisjQuery((union, some))):
            table = worlds.value_table(q)
            assert type(table) is bytes and table == _evaluated_table(worlds, q), q
            assert worlds.packed_table(q) == _pack(table)
    # An aggregate has no value table: it is scored as a sum of games.
    inst = paths_full_instance()
    with pytest.raises(InputError, match="Boolean queries, not aggregates"):
        EndoWorlds(inst).value_table(sum_query(inst.schema))


# ---------------------------------------------------------------------------
# The packed swing kernel
# ---------------------------------------------------------------------------

def _kernel_corpus():
    """(space, query) draws with 8-10 endogenous tuples on TID and explicit
    spaces: BCQs and unions whose tables are neither all 0s nor all 1s, a
    query no subset satisfies, and a union whose second disjunct is one
    exogenous fact, so an all-exogenous image makes the table all 1s."""
    rng = random.Random(1010)
    cases = []
    while len(cases) < 6:
        n = 8 + len(cases) % 3
        inst = random_instance(rng, n, n_exogenous=2, min_endogenous=n)
        q = UBCQ((random_bcq(rng), random_bcq(rng))) if len(cases) % 3 == 2 else random_bcq(rng)
        if sum(EndoWorlds(inst).value_table(q)) in (0, 1 << n):
            continue
        explicit = len(cases) % 2
        space = random_explicit_space(rng, inst, 40) if explicit else random_tid_space(rng, inst)
        cases.append((space, q))
    exo = space.instance.record(min(space.instance.exogenous))
    join = parse_query("Q() :- R(X,Y), S(Y,Z)", CORPUS_SCHEMA)
    sure = UBCQ((join, BCQ((Atom(exo.predicate, exo.args),))))
    never = parse_query("Q() :- P(z)", CORPUS_SCHEMA)  # z is in no instance
    return cases + [(space, sure), (space, never)]


def test_packed_kernel_matches_the_oracles():
    for space, q in _kernel_corpus():
        inst = space.instance
        tids = inst.endogenous_order
        assert 8 <= len(tids) <= 10
        for kind in (ScoreKind.BANZHAF, ScoreKind.POWER_TUPLE, ScoreKind.WEIGHTED_POWER):
            oracle = SCORE_ORACLES[kind]
            assert score_all(space, q, kind).values() == {t: oracle(space, q, t) for t in tids}
        # The permutation and world-sum oracles are dearer: two tuples each.
        probes = (tids[0], tids[-1])
        for tid in probes:
            assert gces_subset_form(space, q, tid) == oracle_causal_effect(space, q, tid)
        if len(tids) == 8:
            shapley_values = score_all(inst, q, ScoreKind.SHAPLEY).values()
            for tid in probes:
                assert shapley_values[tid] == oracle_shapley(inst, q, tid)


@pytest.mark.parametrize("n_endogenous", [0, 1])
def test_packed_kernel_on_the_smallest_tables(n_endogenous):
    schema = {"R": RelationSchema("R", 1)}
    recs = [TupleRecord("x", "R", ("b",), "exogenous")] + [
        TupleRecord(f"t{i}", "R", ("a",), "endogenous") for i in range(n_endogenous)
    ]
    inst = InstanceStore(schema, recs)
    space = make_uniform_tid(inst)
    # R(a) needs the endogenous tuple, R(b) holds on the exogenous one
    # alone (all 1s), and R(c) never holds (all 0s).
    for text, power in (("Q() :- R(a)", n_endogenous), ("Q() :- R(b)", 0), ("Q() :- R(c)", 0)):
        q = parse_query(text, schema)
        assert len(EndoWorlds(inst).value_table(q)) == 1 << n_endogenous
        for kind in (ScoreKind.SHAPLEY, ScoreKind.BANZHAF, ScoreKind.POWER_TUPLE,
                     ScoreKind.WEIGHTED_POWER):
            report = score_all(space, q, kind)
            oracle = SCORE_ORACLES[kind]
            assert report.values() == {t: oracle(space, q, t) for t in inst.endogenous_order}
        for tid in inst.endogenous_order:
            assert gces_subset_form(space, q, tid) == oracle_causal_effect(space, q, tid)
        assert total_power(inst, q) == power


def _closed_upward(values: list[int]) -> list[int]:
    """The least monotone table at or above ``values``."""
    table = list(values)
    for mask in range(len(table)):
        bit = 1
        while bit <= mask:
            if mask & bit and table[mask ^ bit]:
                table[mask] = 1
            bit <<= 1
    return table


def _defined_swing_sum(values, masses, kind, bit, n) -> Fraction:
    """The swings ``values[S | bit] - values[S]`` over the masks S without
    ``bit``, each times its kind's weight, one mask at a time."""
    total = Fraction(0)
    for mask in range(len(values)):
        swing = 0 if mask & bit else values[mask | bit] - values[mask]
        if not swing:
            continue
        if kind is ScoreKind.SHAPLEY:
            k = bin(mask).count("1")
            weight = Fraction(math.factorial(k) * math.factorial(n - k - 1), math.factorial(n))
        elif kind is ScoreKind.BANZHAF:
            weight = Fraction(1, 1 << (n - 1))
        elif kind is ScoreKind.POWER_TUPLE:
            weight = 1
        elif kind is ScoreKind.WEIGHTED_POWER:
            weight = masses[mask]
        else:  # the causal effect's subset form
            weight = masses[mask] + masses[mask | bit]
        total += swing * weight
    return total


@pytest.mark.parametrize("n", range(1, 13))
def test_packed_kernel_equals_swing_sum_on_any_01_table(n):
    # Random tables are not monotone, so tuples also swing down; their
    # upward closures are.  Banzhaf and power read one popcount per tuple
    # (2 popcount((T >> b) & lacking_b) - popcount(T)), the other kinds
    # the swing sets; the reference adds the swings one mask at a time.
    rng = random.Random(n)
    inst = InstanceStore(
        {"P": RelationSchema("P", 1)},
        [TupleRecord(f"t{i}", "P", (f"c{i}",), "endogenous") for i in range(n)],
    )
    worlds = EndoWorlds(inst)
    space = random_tid_space(rng, inst)
    masses = _defined_masses(worlds, space)
    for monotone in (False, True):
        for _ in range(3):
            density = rng.choice((0.05, 0.5, 0.95))
            values = [int(rng.random() < density) for _ in range(worlds.size)]
            if monotone:
                values = _closed_upward(values)
            for kind in (ScoreKind.SHAPLEY, ScoreKind.BANZHAF, ScoreKind.POWER_TUPLE,
                         ScoreKind.WEIGHTED_POWER, ScoreKind.GCES):
                score = _swing_scorer(worlds, kind, space)(_pack(values))
                assert [score(t) for t in inst.endogenous_order] == [
                    _defined_swing_sum(values, masses, kind, 1 << i, n)
                    for i in range(n)
                ], (kind, monotone)


# ---------------------------------------------------------------------------
# Aggregates as sums of Boolean games
# ---------------------------------------------------------------------------

#: Two symbols, a negative and two fractional numbers: a sum target may
#: bind a non-numeric constant, which refuses the aggregate.
AGGREGATE_CONSTANTS = ["a", "b", Fraction(-2), Fraction(1, 3), Fraction(3, 2)]


def _random_aggregate_case(rng: random.Random) -> tuple[PDBSpace, Aggregate]:
    """A count or sum over a space of 3-8 tuples, at most six endogenous:
    facts may repeat under another tuple id (duplicate carriers) or be
    exogenous carriers, and a body of 1-3 atoms over two relations often
    joins one with itself."""
    records = []
    for i in range(rng.randint(3, 8)):
        if records and rng.random() < 0.25:
            pred, args = rng.choice(records).fact
        else:
            pred = rng.choice(["P", "S"])
            args = tuple(rng.choice(AGGREGATE_CONSTANTS) for _ in range(CORPUS_SCHEMA[pred].arity))
        endogenous = sum(r.is_endogenous for r in records) < 6 and rng.random() < 0.8
        kind = "endogenous" if endogenous else "exogenous"
        records.append(TupleRecord(f"t{i + 1}", pred, args, kind))
    inst = InstanceStore(CORPUS_SCHEMA, records)
    atoms = tuple(
        Atom(pred, tuple(
            Var(rng.choice("XYZ")) if rng.random() < 0.9 else rng.choice(AGGREGATE_CONSTANTS)
            for _ in range(CORPUS_SCHEMA[pred].arity)
        ))
        for pred in rng.choices(["P", "S"], k=rng.choice((1, 2, 2, 3)))
    )
    variables = sorted({v for atom in atoms for v in atom.variables})
    if variables and rng.random() < 0.7:
        q = Aggregate(SUM, Var(rng.choice(variables)), atoms)
    else:
        q = Aggregate(COUNT, None, atoms)
    if rng.random() < 0.5:
        return random_tid_space(rng, inst), q
    return random_explicit_space(rng, inst, 12), q


def _first_refusal(inst: InstanceStore, q: Aggregate) -> str | None:
    """The message of the first subset, in ascending mask order, whose
    evaluation refuses the aggregate."""
    worlds = EndoWorlds(inst)
    for mask in range(worlds.size):
        try:
            evaluate(q, inst, worlds.world(mask))
        except InputError as exc:
            return str(exc)
    return None


def test_aggregate_scores_match_the_oracles_on_random_corpus():
    rng = random.Random(2600)
    kinds = (ScoreKind.BANZHAF, ScoreKind.POWER_TUPLE, ScoreKind.WEIGHTED_POWER, ScoreKind.SHAPLEY)
    refused = scored = 0
    for _ in range(150):
        space, q = _random_aggregate_case(rng)
        inst = space.instance
        tids = inst.endogenous_order
        refusal = _first_refusal(inst, q)
        if refusal is not None:
            refused += 1
            for kind in kinds:
                with pytest.raises(InputError) as caught:
                    score_all(space, q, kind)
                assert str(caught.value) == refusal, (q, kind)
            for tid in tids:
                with pytest.raises(InputError) as caught:
                    gces_subset_form(space, q, tid)
                assert str(caught.value) == refusal
            continue
        scored += 1
        for kind in kinds:
            if kind is ScoreKind.SHAPLEY and len(tids) > 4:
                continue  # the permutation oracle grows as N!
            oracle = SCORE_ORACLES[kind]
            assert score_all(space, q, kind).values() == {t: oracle(space, q, t) for t in tids}, (
                q, kind)
        for tid in tids:
            assert gces_subset_form(space, q, tid) == oracle_causal_effect(space, q, tid)
    assert refused >= 20 and scored >= 80


def _renamed(space: PDBSpace, rename: dict[str, str]) -> PDBSpace:
    inst = space.instance
    recs = [TupleRecord(rename[r.tid], r.predicate, r.args, r.kind) for r in inst.records()]
    rep = space.representation
    if isinstance(rep, TupleIndependent):
        rep = TupleIndependent({rename[t]: p for t, p in rep.marginals.items()})
    else:
        rep = ExplicitWorlds(
            [(frozenset(map(rename.get, w)), m) for w, m in rep.masses.items()]
        )
    return PDBSpace(InstanceStore(inst.schema, recs), rep)


def test_renaming_the_tuples_permutes_every_score_map():
    # A bijection on tuple ids reorders the subset bits; every kind's score
    # map must follow the renaming, for Boolean queries and aggregates alike.
    rng = random.Random(2601)
    cases = []
    while len(cases) < 16:
        if len(cases) % 2:
            space, q = _random_aggregate_case(rng)
            if _first_refusal(space.instance, q) is not None:
                continue
        else:
            inst = random_instance(rng, 6, n_exogenous=1)
            q = random_boolean_query(rng)
            space = random_tid_space(rng, inst) if len(cases) % 4 else random_explicit_space(rng, inst)
        cases.append((space, q))
    for space, q in cases:
        tids = sorted(space.instance.tids)
        rename = dict(zip(tids, rng.sample([f"u{i}" for i in range(len(tids))], len(tids))))
        renamed = _renamed(space, rename)
        for kind in ScoreKind:
            if kind is ScoreKind.CES_TID and not space.is_tid:
                continue
            want = {rename[t]: v for t, v in score_all(space, q, kind).values().items()}
            assert score_all(renamed, q, kind).values() == want, (q, kind)


# ---------------------------------------------------------------------------
# Mass tables and the masks without a bit
# ---------------------------------------------------------------------------

MASS_POOL = [
    Fraction(0), Fraction(1), Fraction(1, 3), Fraction(2, 7), Fraction(5, 11),
    Fraction(10**50 - 1, 10**50 + 151),  # a 51-digit denominator
]


def _defined_masses(worlds: EndoWorlds, space: PDBSpace) -> list[Fraction]:
    """p(W + exogenous tuples) for every mask W, from the definition."""
    by_world = dict(all_worlds_with_mass(space))
    return [by_world[worlds.world(mask)] for mask in range(worlds.size)]


def _assert_mass_table(worlds: EndoWorlds, space: PDBSpace):
    table = worlds.mass_table(space)
    assert type(table) is list and all(type(m) is Fraction for m in table)
    assert table == _defined_masses(worlds, space)


def test_mass_table_matches_the_definition_on_tids():
    rng = random.Random(1515)
    drawn = set()
    for _ in range(8):
        inst = random_instance(rng, 7, n_exogenous=2, min_endogenous=4)
        marginals = {}
        for tid in sorted(inst.tids):
            p = Fraction(1) if tid in inst.exogenous else rng.choice(MASS_POOL)
            marginals[tid] = Probability(p)
            drawn.add(p)
        _assert_mass_table(EndoWorlds(inst), PDBSpace(inst, TupleIndependent(marginals)))
    assert drawn >= set(MASS_POOL)


def _with_zero_mass_world(space: PDBSpace) -> PDBSpace:
    """The explicit space with one more world, at mass zero."""
    inst = space.instance
    missing = [
        frozenset(c) | inst.exogenous
        for k in range(len(inst.endogenous) + 1)
        for c in itertools.combinations(inst.endogenous_order, k)
        if frozenset(c) | inst.exogenous not in space.representation.masses
    ]
    entries = list(space.representation.masses.items()) + [(missing[0], Fraction(0))]
    space = PDBSpace(inst, ExplicitWorlds(entries))
    assert Fraction(0) in space.representation.masses.values()
    return space


def test_mass_table_matches_the_definition_on_explicit_spaces():
    rng = random.Random(1616)
    for _ in range(6):
        inst = random_instance(rng, 6, n_exogenous=1, min_endogenous=3)
        # The zero-mass world must stay at zero in the table.
        space = _with_zero_mass_world(random_explicit_space(rng, inst, 12))
        _assert_mass_table(EndoWorlds(inst), space)


def _mass_weighted_cases():
    """(space, query) draws over 3-5 endogenous tuples: TIDs whose first
    endogenous marginal has a 51-digit denominator, explicit spaces with a
    zero-mass world; Boolean queries, a count, and a sum of signed
    fractions."""
    rng = random.Random(1818)
    count = parse_query("Q(count()) :- P(X), T(Y)", CORPUS_SCHEMA)
    cases = []
    for i in range(12):
        inst = random_instance(rng, 5, n_exogenous=1, min_endogenous=3)
        if i % 2:
            space = _with_zero_mass_world(random_explicit_space(rng, inst, 6))
        else:
            first = inst.endogenous_order[0]
            space = PDBSpace(inst, TupleIndependent({
                t: Probability(1) if t in inst.exogenous
                else MASS_POOL[-1] if t == first else rng.choice(MASS_POOL)
                for t in sorted(inst.tids)
            }))
        cases.append((space, count if i % 3 == 0 else random_boolean_query(rng)))
    schema = {"S": RelationSchema("S", 2, ("symbolic", "numeric"))}
    values = [Fraction(-2, 5), Fraction(1, 3), Fraction(7), Fraction(-3, 4)]
    inst = InstanceStore(schema, [
        TupleRecord(f"t{i + 1}", "S", (f"c{i % 3}", v), "endogenous")
        for i, v in enumerate(values)
    ])
    total = parse_query("Q(sum(Y)) :- S(X,Y)", schema)
    tid = PDBSpace(inst, TupleIndependent(dict(zip(inst.endogenous_order, MASS_POOL[2:]))))
    explicit = _with_zero_mass_world(random_explicit_space(rng, inst, 6))
    return cases + [(tid, total), (explicit, total)]


def test_mass_weighted_and_aggregate_scores_match_the_oracles():
    for space, q in _mass_weighted_cases():
        kinds = [ScoreKind.WEIGHTED_POWER]
        if isinstance(q, Aggregate):
            kinds += [ScoreKind.SHAPLEY, ScoreKind.BANZHAF]
        tids = space.instance.endogenous_order
        for kind in kinds:
            oracle = SCORE_ORACLES[kind]
            assert score_all(space, q, kind).values() == {t: oracle(space, q, t) for t in tids}
        for t in tids:
            assert gces_subset_form(space, q, t) == oracle_causal_effect(space, q, t)


@pytest.mark.parametrize("n", range(1, 13))
def test_lacking_holds_exactly_the_masks_without_the_bit(n):
    inst = InstanceStore(
        {"P": RelationSchema("P", 1)},
        [TupleRecord(f"t{i:02d}", "P", (f"c{i}",), "endogenous") for i in range(n)],
    )
    worlds = EndoWorlds(inst)
    for i in range(n):
        expected = 0
        for mask in range(worlds.size):
            if not mask >> i & 1:
                expected |= 1 << mask
        assert worlds.lattice.lacking(1 << i) == expected, i


def test_pair_swings_match_the_subset_oracle():
    rng = random.Random(23)
    shapes = set()
    for _ in range(60):
        inst = random_instance(rng, max_endogenous=6, min_endogenous=2)
        q = random_boolean_query(rng)
        worlds = EndoWorlds(inst)
        table = worlds.packed_table(q)
        for a, b in itertools.combinations(inst.endogenous_order, 2):
            expected = []
            for tid in (a, b):
                swung = 0
                for subset in endo_subsets(inst, excluding=[a, b]):
                    if oracle_delta(inst, q, subset, tid):
                        swung |= 1 << worlds.mask_of(subset)
                expected.append(swung)
            got = worlds.pair_swings(table, a, b)
            assert got == tuple(expected), (q, inst.records(), a, b)
            shapes.add((isinstance(q, UBCQ), got[0] == got[1], bool(got[0] or got[1])))
    assert len(shapes) == 6  # unions or not; equal or not; some swing or none


def test_boolean_subset_scores_at_twenty_tuples():
    # Q() :- R(X) holds iff some R fact is present, so every tuple swings
    # only the empty subset: Banzhaf 1/2^19, Shapley 1/20, power 1.
    n = 20
    schema = {"R": RelationSchema("R", 1)}
    inst = InstanceStore(
        schema, [TupleRecord(f"t{i:02d}", "R", (f"a{i}",), "endogenous") for i in range(n)]
    )
    q = parse_query("Q() :- R(X)", schema)
    expected = {
        ScoreKind.BANZHAF: Fraction(1, 1 << (n - 1)),
        ScoreKind.SHAPLEY: Fraction(1, n),
        ScoreKind.POWER_TUPLE: Fraction(1),
    }
    values = {}
    for kind, value in expected.items():
        values[kind] = score_all(inst, q, kind).values()
        assert values[kind] == dict.fromkeys(inst.endogenous_order, value)
    assert total_power(inst, q) == n
    banzhaf_values = values[ScoreKind.BANZHAF]
    verdict = check_sym(
        make_uniform_tid(inst), q, lambda pdb, q, tid: banzhaf_values[tid]
    )
    assert verdict.holds and verdict.witnesses == ()


def test_report_serialization():
    inst = paths_instance()
    q = path_query(inst.schema)
    report = score_all(inst, q, ScoreKind.CES_UI)
    payload = report.to_json_dict()
    assert payload["kind"] == "ces-ui"
    top = payload["scores"][0]
    assert top == {
        "tid": "t1",
        "value": "21/32",
        "decimal": "0.656250",
        "backend": "brute",
        "positive-ceui": True,
    }
    json.dumps(payload)  # must be JSON-serializable
    table = report.to_table(by_rank=True)
    assert "0.656250" in table and "21/32" in table


def test_rank_orders_by_value_descending_then_tuple_id():
    rng = random.Random(21)
    for _ in range(300):
        tids = rng.sample([f"t{i}" for i in range(30)] + ["", "a", "t"], rng.randint(0, 12))
        pool = [Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3, 4, 7, 12])) for _ in range(4)]
        values = {tid: rng.choice(pool) for tid in tids}  # few values: many ties
        assert _rank(values) == tuple(sorted(values, key=lambda t: (-values[t], t)))


def test_table_rendering_is_unchanged():
    values = {
        "t3": Fraction(-1, 2), "t10": Fraction(1, 3), "t2": Fraction(1, 3),
        "t1": Fraction(0), "t11": Fraction(12345, 7), "t0": Fraction(2, 6),
    }
    entries = tuple(
        ScoreEntry(tid, value, "lifted" if tid == "t11" else "brute")
        for tid, value in values.items()
    )
    report = ScoreReport(ScoreKind.BANZHAF, "Q", 6, entries, _rank(values))
    assert report.ranking == ("t11", "t0", "t10", "t2", "t1", "t3")
    assert report.to_table(by_rank=True) == (
        "rank  tid  value        exact    backend\n"
        "1     t11  1763.571429  12345/7  lifted\n"
        "2     t0   0.333333     1/3      brute\n"
        "3     t10  0.333333     1/3      brute\n"
        "4     t2   0.333333     1/3      brute\n"
        "5     t1   0.000000     0/1      brute\n"
        "6     t3   -0.500000    -1/2     brute"
    )
    assert report.to_table() == (
        "rank  tid  value        exact    backend\n"
        "6     t3   -0.500000    -1/2     brute\n"
        "3     t10  0.333333     1/3      brute\n"
        "4     t2   0.333333     1/3      brute\n"
        "5     t1   0.000000     0/1      brute\n"
        "1     t11  1763.571429  12345/7  lifted\n"
        "2     t0   0.333333     1/3      brute"
    )


@pytest.mark.parametrize("kind", ["banzhaf", "shapley", "power"])
def test_boolean_subset_scores_never_repack_the_lineage(kind, tmp_path, capsys, monkeypatch):
    from causalpdb.cli import main

    from helpers import FIXTURES

    bcq = tmp_path / "bcq.q"
    bcq.write_text("Q() :- E(a,Z1), E(Z1,b)\n")
    pdb = FIXTURES / "paths_instance.json"
    runs = [("score", "--kind", kind, "--pdb", pdb, "--query", q)
            for q in (bcq, FIXTURES / "path_query.q")]
    expected = []
    for argv in runs:
        assert main([str(a) for a in argv]) == 0
        expected.append(capsys.readouterr().out)

    def refuse(values):
        raise AssertionError("a lineage table was unpacked and packed again")

    monkeypatch.setattr(scores_module, "_pack", refuse)
    for argv, out in zip(runs, expected):
        assert main([str(a) for a in argv]) == 0
        assert capsys.readouterr().out == out

    # An aggregate is scored as a sum of games from one homomorphism walk:
    # no subset is evaluated and no value table built.
    calls = []
    for module in (queries_module, scores_module):
        monkeypatch.setattr(module, "evaluate", lambda *args: calls.append(args))
    monkeypatch.setattr(EndoWorlds, "value_table", lambda *args: calls.append(args))
    code = main(["score", "--kind", kind, "--pdb", str(FIXTURES / "paths_full_instance.json"),
                 "--query", str(FIXTURES / "sum_query.q")])
    assert code == 0 and calls == [], capsys.readouterr().err


def test_score_kind_requirements():
    inst = paths_instance()
    q = path_query(inst.schema)
    with pytest.raises(InputError, match="probability space"):
        score_all(inst, q, ScoreKind.GCES)
    with pytest.raises(InputError, match="tuple-independent"):
        score_all(four_worlds_space(), q, ScoreKind.CES_TID)


def test_monotone_scores_are_nonnegative():
    rng = random.Random(666)
    for _ in range(10):
        inst = random_instance(rng, max_endogenous=5)
        q = random_boolean_query(rng)
        space = random_explicit_space(rng, inst)
        for kind in (ScoreKind.SHAPLEY, ScoreKind.BANZHAF, ScoreKind.POWER_TUPLE):
            for entry in score_all(inst, q, kind).entries:
                assert entry.value >= 0
        for entry in score_all(space, q, ScoreKind.GCES).entries:
            assert entry.value >= 0


# ---------------------------------------------------------------------------
# The lineage table an instance keeps
# ---------------------------------------------------------------------------

def _counting_walks(monkeypatch) -> list:
    walks = []
    original = scores_module._homomorphism_images
    monkeypatch.setattr(scores_module, "_homomorphism_images",
                        lambda instance, q: walks.append(q) or original(instance, q))
    return walks


def test_a_repeated_query_reuses_the_instance_lineage(monkeypatch):
    instance = random_instance(random.Random(5), max_endogenous=6, min_endogenous=6)
    q = parse_query("Q() :- R(X,Y) ; Q() :- T(X)", CORPUS_SCHEMA)
    walks = _counting_walks(monkeypatch)
    for kind in (ScoreKind.SHAPLEY, ScoreKind.BANZHAF, ScoreKind.POWER_TUPLE):
        score_all(instance, q, kind)
    assert walks == [q]
    # An equal query parsed again is the same query.
    score_all(instance, parse_query("Q() :- R(X,Y) ; Q() :- T(X)", CORPUS_SCHEMA),
              ScoreKind.BANZHAF)
    assert walks == [q]


def test_lineage_reuse_alternating_two_queries_on_one_instance():
    rng = random.Random(24)
    for _ in range(25):
        inst = random_instance(rng, max_endogenous=5)
        queries = [random_boolean_query(rng), random_boolean_query(rng)]
        for q in queries * 2:
            for tid in inst.endogenous_order:
                assert banzhaf(inst, q, tid) == oracle_banzhaf(inst, q, tid)
                assert shapley(inst, q, tid) == oracle_shapley(inst, q, tid)


def test_lineage_reuse_one_query_on_two_instances():
    rng = random.Random(25)
    for _ in range(25):
        instances = [random_instance(rng, max_endogenous=5) for _ in range(2)]
        q = random_boolean_query(rng)
        for inst in instances * 2:
            for tid in inst.endogenous_order:
                assert power_of_tuple(inst, q, tid) == oracle_power_of_tuple(inst, q, tid)


# ---------------------------------------------------------------------------
# Lattice masks kept per table size, and identities past the oracles' range
# ---------------------------------------------------------------------------

PADDED_SCHEMA = {**CORPUS_SCHEMA, "U": RelationSchema("U", 1)}


def _pads(count: int) -> list[TupleRecord]:
    """Endogenous tuples of a predicate no query names; half of their ids
    sort before the ``t`` ids of `random_instance`, half after, so their
    bits sit on both sides of the other tuples' bits."""
    return [
        TupleRecord(f"{'su'[i % 2]}{i:02d}", "U", (f"c{i}",), "endogenous")
        for i in range(count)
    ]


def _padded_draw(rng: random.Random, n: int):
    """(padded space, unpadded space, query): up to five endogenous tuples
    and one exogenous tuple from the random corpus, on which the query
    has a table neither all 0s nor all 1s, padded to n endogenous tuples;
    the two spaces share their marginals."""
    while True:
        core = random_instance(rng, min(n, 5), n_exogenous=1, min_endogenous=min(n, 5))
        q = random_boolean_query(rng)
        if 0 < sum(EndoWorlds(core).value_table(q)) < 1 << len(core.endogenous_order):
            break
    records = core.records() + _pads(n - len(core.endogenous_order))
    padded = random_tid_space(rng, InstanceStore(PADDED_SCHEMA, records))
    marginals = padded.representation.marginals
    unpadded = PDBSpace(core, TupleIndependent({t: marginals[t] for t in core.tids}))
    return padded, unpadded, q


def test_lattice_masks_serve_alternating_table_sizes():
    # Tuples no query reads are null players: they score 0, leave Shapley,
    # Banzhaf and weighted power as they are, and double power each, so
    # the oracles on the unpadded instance give every padded score.
    clear_kept()
    rng = random.Random(2525)
    for n in (3, 12, 5, 12, 16, 17):
        space, unpadded, q = _padded_draw(rng, n)
        core_tids = unpadded.instance.endogenous_order
        pads = [t for t in space.instance.endogenous_order if t not in core_tids]
        for kind in (ScoreKind.SHAPLEY, ScoreKind.BANZHAF, ScoreKind.POWER_TUPLE,
                     ScoreKind.WEIGHTED_POWER):
            scale = 1 << len(pads) if kind is ScoreKind.POWER_TUPLE else 1
            expected = dict.fromkeys(pads, Fraction(0))
            expected.update(
                (t, SCORE_ORACLES[kind](unpadded, q, t) * scale) for t in core_tids
            )
            assert score_all(space, q, kind).values() == expected, (n, kind)
    # Sizes 3, 5, 12 and 16 are kept, one lattice each; 17 is past the bound.
    assert scores_module._kept_lattice.cache_info().currsize == 4
    twelve = [EndoWorlds(_padded_draw(rng, 12)[0].instance) for _ in range(2)]
    assert twelve[0].lattice is twelve[1].lattice
    seventeen = [EndoWorlds(_padded_draw(rng, 17)[0].instance) for _ in range(2)]
    assert seventeen[0].lattice is not seventeen[1].lattice


def test_kept_lattices_stay_under_a_megabyte():
    import sys

    kept = 0
    for n in range(scores_module._KEPT_TUPLES + 1):
        lattice = scores_module._lattice(n)
        masks = [lattice.lacking(1 << i) for i in range(n)] + lattice.levels
        kept += sum(map(sys.getsizeof, masks))
    assert kept < 1 << 20
    big = scores_module._lattice(scores_module._KEPT_TUPLES + 1)
    assert big is not scores_module._lattice(scores_module._KEPT_TUPLES + 1)


PATH_SCHEMA = {"E": RelationSchema("E", 2), "U": RelationSchema("U", 1)}


def _random_graph(rng: random.Random, n_endogenous: int) -> list[TupleRecord]:
    """Distinct edges among six nodes, a and b among them, one of them
    exogenous."""
    nodes = "abcdef"
    edges = rng.sample([(x, y) for x in nodes for y in nodes if x != y], n_endogenous + 1)
    return [
        TupleRecord(f"e{i:02d}", "E", edge, "endogenous" if i < n_endogenous else "exogenous")
        for i, edge in enumerate(edges)
    ]


@pytest.mark.parametrize("n", range(14, 19))
def test_shapley_efficiency_past_the_oracles(n):
    # Sum over t of Shapley(t) = Q(D) - Q(D_x), at any N.
    rng = random.Random(2600 + n)
    q = path_query(PATH_SCHEMA)
    for _ in range(3):
        inst = InstanceStore(PATH_SCHEMA, _random_graph(rng, n))
        total = sum(score_all(inst, q, ScoreKind.SHAPLEY).values().values(), Fraction(0))
        assert total == evaluate(q, inst, inst.tids) - evaluate(q, inst, inst.exogenous)


def test_padding_moves_the_table_size_and_leaves_the_scores():
    # Each pad scores 0; Shapley and Banzhaf stay, power doubles per pad.
    rng = random.Random(2700)
    q = path_query(PATH_SCHEMA)
    for n, extra in ((10, 1), (12, 3), (14, 2), (11, 6)):
        records = _random_graph(rng, n)
        inst = InstanceStore(PATH_SCHEMA, records)
        padded = InstanceStore(PATH_SCHEMA, records + _pads(extra))
        pads = dict.fromkeys((r.tid for r in _pads(extra)), Fraction(0))
        for kind, scale in ((ScoreKind.SHAPLEY, 1), (ScoreKind.BANZHAF, 1),
                            (ScoreKind.POWER_TUPLE, 1 << extra)):
            base = score_all(inst, q, kind).values()
            assert score_all(padded, q, kind).values() == {
                **{t: v * scale for t, v in base.items()}, **pads
            }, (n, extra, kind)
