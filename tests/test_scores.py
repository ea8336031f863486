"""Attribution scores: causal effects, Shapley, Banzhaf, power functions."""

import json
import random
from fractions import Fraction

import pytest

from causalpdb import (
    ExplicitWorlds,
    InputError,
    InstanceStore,
    PDBSpace,
    RelationSchema,
    ResourceLimitError,
    ScoreKind,
    TupleRecord,
    banzhaf,
    causal_effect,
    ces_ui,
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
from causalpdb.queries import Var, evaluate
from causalpdb.scores import EndoWorlds, _causal_effect

from helpers import (
    CORPUS_SCHEMA,
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
    random_boolean_query,
    random_explicit_space,
    random_hierarchical_sjf_bcq,
    random_instance,
    random_tid_space,
    four_worlds_space,
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


def test_three_forms_agree_on_random_corpus():
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
        report = gces_oracle(space, q, tid)
        assert report.agree
        assert report.value == oracle_causal_effect(space, q, tid)


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
# Causal effects on independent spaces: one fact map, the targets' facts forced
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


def _leaf_facts(node) -> list:
    """The fact of each leaf of a lifted plan, one entry per leaf."""
    if hasattr(node, "children"):
        return [fact for child in node.children for fact in _leaf_facts(child)]
    return [(node.predicate, node.args)]


def test_one_lifted_plan_serves_the_base_and_every_forced_map():
    from causalpdb.interventions import Intervention, intervene
    from causalpdb.queries import _fact_probabilities, _forced, _lifted_plan, query_probability

    rng = random.Random(41)
    seen = {"constant": 0, "repeated variable": 0, "nonzero effect": 0}
    for _ in range(80):
        inst = random_instance(rng, max_endogenous=5, n_exogenous=rng.randint(0, 1))
        records = inst.records()
        space = _shared_fact_space(rng, CORPUS_SCHEMA, records, rng.choice(records))
        q = random_hierarchical_sjf_bcq(rng)
        terms = [t for atom in q.atoms for t in atom.terms]
        seen["constant"] += any(not isinstance(t, Var) for t in terms)
        seen["repeated variable"] += any(
            len(atom.variables) < sum(isinstance(t, Var) for t in atom.terms)
            for atom in q.atoms
        )
        base = _fact_probabilities(space)
        plan = _lifted_plan(base, q)
        leaves = _leaf_facts(plan)
        assert len(leaves) == len(set(leaves))  # read-once: one leaf per fact
        assert plan.probability(base) == query_probability(space, q, "brute")
        for tid in space.instance.endogenous_order:
            target = frozenset([tid])
            p_in = plan.probability(_forced(space, base, target, True))
            p_out = plan.probability(_forced(space, base, target, False))
            assert p_in == query_probability(
                intervene(space, Intervention.do_in(target)), q, "brute"
            )
            assert p_out == query_probability(
                intervene(space, Intervention.do_out(target)), q, "brute"
            )
            assert p_in - p_out == oracle_causal_effect(space, q, tid)
            seen["nonzero effect"] += p_in != p_out
    assert min(seen.values()) >= 10, seen


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


def _count_validations(monkeypatch):
    from causalpdb import core

    calls = []

    def counting(pdb, _validate=core.validate):
        calls.append(pdb)
        return _validate(pdb)

    monkeypatch.setattr(core, "validate", counting)
    return calls


def test_independent_routes_validate_once_and_build_no_intervened_space(monkeypatch):
    from causalpdb import interventions
    from helpers import two_component_query, two_component_space

    def refuse(*args, **kwargs):
        raise AssertionError("an intervened space was built")

    monkeypatch.setattr(interventions.IntervenedSpace, "__init__", refuse)
    calls = _count_validations(monkeypatch)
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
        calls.clear()
        report = score_all(source, query, kind)
        assert len(report.entries) > 1
        assert {e.backend for e in report.entries} == {backend}
        assert len(calls) == 1
    for pdb, query, targets in ((space, q, ["t1"]), (space, q, ["t1", "t4"]),
                                (summed, sums, ["t2"])):
        calls.clear()
        causal_effect(pdb, query, targets)
        assert len(calls) == 1


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
    return [evaluate(q, worlds.instance, worlds.world(m)) for m in range(worlds.size)]


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
    for _ in range(40):
        inst = random_instance(rng, max_endogenous=6, n_exogenous=2)
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
    assert worlds.value_table(sure) == _evaluated_table(worlds, sure) == [1] * 8
    assert worlds.value_table(never) == _evaluated_table(worlds, never) == [0] * 8
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
    assert worlds.value_table(q) == [0, 1]
    assert len(calls) == evaluations
    assert _evaluated_table(worlds, q) == [0, 1]


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
