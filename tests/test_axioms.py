"""Axiom checks, fresh expansions, the product identity, decomposition."""

import random
from fractions import Fraction

import pytest

from causalpdb import (
    ConjQuery,
    InputError,
    InstanceStore,
    PDBSpace,
    Probability,
    RelationSchema,
    ResourceLimitError,
    TupleIndependent,
    TupleRecord,
    UBCQ,
    banzhaf_score,
    causal_effect,
    check_dum,
    check_eff,
    check_g_eff,
    check_g_sym,
    check_lin,
    check_sym,
    constant_score,
    fresh_expansion,
    gces_score,
    make_uniform_tid,
    mss_decomposition_check,
    parse_query,
    shapley_score,
    verify_product_formula,
)

from helpers import (
    all_worlds_with_mass,
    ground_pair_query,
    oracle_causal_effect,
    oracle_eval,
    path_query,
    paths_instance,
    power_p_space,
    power_pprime_space,
    power_query,
    power_query_prime,
    two_component_query,
    two_component_space,
    random_boolean_query,
    random_explicit_space,
    random_instance,
    random_tid_space,
    world_facts,
)


# ---------------------------------------------------------------------------
# DUM / EFF / SYM / LIN on the worked pair of distributions
# ---------------------------------------------------------------------------

def test_dum_holds_for_causal_effect():
    q = power_query(power_p_space().instance.schema)
    assert check_dum(power_p_space(), q, gces_score).holds
    assert check_dum(power_pprime_space(), q, gces_score).holds


def test_dum_fails_for_constant_score():
    space = power_p_space()
    q = power_query(space.instance.schema)
    verdict = check_dum(space, q, constant_score(1))
    assert not verdict.holds
    assert "t2" in verdict.witnesses[0].subject


def test_eff_depends_on_the_distribution():
    q = power_query(power_p_space().instance.schema)
    assert check_eff(power_p_space(), q, gces_score).holds
    verdict = check_eff(power_pprime_space(), q, gces_score)
    assert not verdict.holds
    assert verdict.witnesses[0].lhs == Fraction(11, 12)
    assert verdict.witnesses[0].rhs == 1


def test_eff_holds_vacuously_for_unsatisfiable_query():
    space = power_p_space()
    q = parse_query("Q() :- S(b,b)", space.instance.schema)
    assert check_eff(space, q, gces_score).holds


def test_sym_depends_on_the_distribution():
    q = power_query(power_p_space().instance.schema)
    assert check_sym(power_p_space(), q, gces_score).holds
    verdict = check_sym(power_pprime_space(), q, gces_score)
    assert not verdict.holds
    w = verdict.witnesses[0]
    assert "(t3,t4)" in w.subject
    assert {w.lhs, w.rhs} == {Fraction(5, 12), Fraction(1, 2)}


def test_sym_vacuous_without_symmetric_pairs():
    schema = {"R": RelationSchema("R", 1), "S": RelationSchema("S", 1)}
    recs = [
        TupleRecord("t1", "R", ("a",), "endogenous"),
        TupleRecord("t2", "S", ("b",), "endogenous"),
    ]
    inst = InstanceStore(schema, recs)
    space = make_uniform_tid(inst)
    q = parse_query("Q() :- R(a)", schema)
    # R(a) distinguishes t1 from t2, so the hypothesis never binds and even
    # an arbitrary constant score passes vacuously
    assert check_sym(space, q, constant_score(7)).holds
    assert check_sym(space, q, gces_score).holds


def test_lin_holds_for_causal_effect():
    inst = power_p_space().instance
    q = power_query(inst.schema)
    q2 = power_query_prime(inst.schema)
    assert check_lin(power_p_space(), q, q2, gces_score).holds
    assert check_lin(power_pprime_space(), q, q2, gces_score).holds


def test_lin_trivial_when_queries_equal():
    space = power_p_space()
    q = power_query(space.instance.schema)
    assert check_lin(space, q, q, gces_score).holds


def test_lin_component_values():
    space = power_p_space()
    inst = space.instance
    q = power_query(inst.schema)
    q2 = power_query_prime(inst.schema)
    either = UBCQ((q, q2))
    both = ConjQuery((q, q2))
    assert causal_effect(space, q2, "t3") == 1
    assert causal_effect(space, both, "t3") == 1
    assert causal_effect(space, either, "t3") == Fraction(1, 2)
    skew = power_pprime_space()
    assert causal_effect(skew, either, "t3") == Fraction(5, 12)


def test_lin_names_a_witness_for_a_nonlinear_score():
    schema = {"R": RelationSchema("R", 1)}
    recs = [TupleRecord("t1", "R", ("a",), "endogenous"),
            TupleRecord("t2", "R", ("b",), "endogenous")]
    space = make_uniform_tid(InstanceStore(schema, recs))
    qa = parse_query("Q() :- R(a)", schema)
    qb = parse_query("Q() :- R(b)", schema)
    assert check_lin(space, qa, qb, banzhaf_score).holds
    # Banzhaf is 1 and 0 on the two queries, 1/2 on their OR and AND, so
    # its square reads 1/4 + 1/4 against 1 + 0 on each tuple.
    squared = check_lin(space, qa, qb, lambda *args: banzhaf_score(*args) ** 2)
    assert not squared.holds
    assert [str(w) for w in squared.witnesses] == [
        "tuple t1: 1/2 != 1 (0.500000 vs 1.000000)",
        "tuple t2: 1/2 != 1 (0.500000 vs 1.000000)",
    ]


def test_lin_takes_bcqs_and_unions_only():
    space = power_p_space()
    q = power_query(space.instance.schema)
    q2 = power_query_prime(space.instance.schema)
    with pytest.raises(InputError) as refused:
        check_lin(space, ConjQuery((q, q2)), q2, gces_score)
    assert str(refused.value) == (
        "LIN's disjunction is defined for BCQs and unions, not ConjQuery"
    )
    count = parse_query("Q(count()) :- S(W,W)", space.instance.schema)
    with pytest.raises(InputError, match="axiom checks take monotone Boolean queries"):
        check_lin(space, q, count, gces_score)


def test_lin_disjunction_is_the_union_of_disjuncts_on_random_corpus():
    # The OR that LIN scores is the union of both queries' disjuncts; its
    # causal effect matches the definition sum, and it holds on a world iff
    # one of the two queries does (by the independent evaluator).
    rng = random.Random(3030)
    for draw in range(30):
        inst = random_instance(rng, max_endogenous=5)
        space = (random_tid_space if draw % 2 else random_explicit_space)(rng, inst)
        qa, qb = random_boolean_query(rng), random_boolean_query(rng)
        asked = []

        def recording(pdb, q, tid):
            asked.append(q)
            return gces_score(pdb, q, tid)

        assert check_lin(space, qa, qb, recording).holds
        either = asked[0]
        parts = [q.disjuncts if isinstance(q, UBCQ) else (q,) for q in (qa, qb)]
        assert either == UBCQ(parts[0] + parts[1])
        for world, _ in all_worlds_with_mass(space):
            facts = world_facts(inst, world)
            assert oracle_eval(either, facts) == max(
                oracle_eval(qa, facts), oracle_eval(qb, facts)
            )
        for tid in inst.endogenous_order:
            assert causal_effect(space, either, tid) == oracle_causal_effect(
                space, either, tid
            ), (draw, tid)


# ---------------------------------------------------------------------------
# Generalized efficiency and symmetry
# ---------------------------------------------------------------------------

def test_g_eff_holds_for_causal_effect():
    q = power_query(power_p_space().instance.schema)
    assert check_g_eff(power_pprime_space(), q, gces_score).holds
    assert check_g_eff(power_p_space(), q, gces_score).holds


def test_g_eff_reduces_to_eff_under_uniform_half():
    space = power_p_space()  # explicit form of the uniform-1/2 independent space
    q = power_query(space.instance.schema)
    assert check_g_eff(space, q, gces_score).holds
    assert check_eff(space, q, gces_score).holds


def test_g_eff_fails_for_constant_score():
    schema = {"R": RelationSchema("R", 1), "S": RelationSchema("S", 1)}
    recs = [
        TupleRecord("t1", "R", ("a",), "endogenous"),
        TupleRecord("t2", "S", ("b",), "endogenous"),
    ]
    inst = InstanceStore(schema, recs)
    space = make_uniform_tid(inst)
    q = parse_query("Q() :- R(a)", schema)  # t2 is a dummy
    assert not check_g_eff(space, q, constant_score(1)).holds


def test_g_sym_holds_for_causal_effect_fails_for_banzhaf():
    skew = power_pprime_space()
    q = ground_pair_query(skew.instance.schema)  # ties t2 and t4 into one set
    assert check_g_sym(skew, q, gces_score).holds
    verdict = check_g_sym(skew, q, banzhaf_score)
    assert not verdict.holds
    w = verdict.witnesses[0]
    assert "(t2,t4)" in w.subject
    assert {w.lhs, w.rhs} == {Fraction(1, 4), Fraction(1, 3)}


def test_g_sym_vacuous_when_hypothesis_never_met():
    skew = power_pprime_space()
    q = power_query(skew.instance.schema)
    # every pair has a swing subset, so any score function passes vacuously
    assert check_g_sym(skew, q, banzhaf_score).holds
    assert check_g_sym(skew, q, constant_score(3)).holds


# ---------------------------------------------------------------------------
# Fresh expansion
# ---------------------------------------------------------------------------

def test_fresh_expansion_shape():
    space = two_component_space()
    q = two_component_query(space.instance.schema)
    fe = fresh_expansion(space.instance, q)
    assert [r.fact for r in fe.per_atom] == [
        ("R1", ("_f1", "_f2")),
        ("R2", ("_f2",)),
        ("R3", ("_f3",)),
    ]
    assert all(r.is_endogenous for r in fe.per_atom)
    assert len(fe.expanded) == len(space.instance) + 3
    fresh_constants = {"_f1", "_f2", "_f3"}
    assert fresh_constants.isdisjoint(space.instance.adom())
    assert len(fe.selection_functions()) == 2


def test_fresh_expansion_single_atom():
    schema = {"R": RelationSchema("R", 1)}
    inst = InstanceStore(schema, [TupleRecord("t1", "R", ("a",), "endogenous")])
    fe = fresh_expansion(inst, parse_query("Q() :- R(X)", schema))
    assert len(fe.per_atom) == 1
    assert len(fe.selection_functions()) == 1


def test_fresh_constants_avoid_collisions():
    schema = {"R": RelationSchema("R", 1)}
    inst = InstanceStore(schema, [TupleRecord("t1", "R", ("_f1",), "endogenous")])
    fe = fresh_expansion(inst, parse_query("Q() :- R(X)", schema))
    assert fe.per_atom[0].args[0] not in inst.adom()


def test_same_component_fresh_tuples_get_equal_effect():
    space = two_component_space()
    q = two_component_query(space.instance.schema)
    report = verify_product_formula(space, q)
    by_tid = report.fresh_effects
    assert by_tid["_u1"] == by_tid["_u2"]


# ---------------------------------------------------------------------------
# Product identity
# ---------------------------------------------------------------------------

def test_product_formula_on_the_bundled_fixture():
    space = two_component_space()
    q = two_component_query(space.instance.schema)
    report = verify_product_formula(space, q)
    assert report.agree
    assert report.lhs == Fraction(2107, 5000)
    assert report.fresh_effects["_u1"] == Fraction(57, 100)
    assert report.fresh_effects["_u2"] == Fraction(57, 100)
    assert report.fresh_effects["_u3"] == Fraction(1, 50)
    assert len(report.per_sigma) == 2
    assert {rhs for _, rhs in report.per_sigma} == {Fraction(2107, 5000)}


def test_product_formula_with_sure_query():
    schema = {"R": RelationSchema("R", 1)}
    inst = InstanceStore(schema, [TupleRecord("t1", "R", ("a",), "exogenous")])
    space = PDBSpace(inst, TupleIndependent({"t1": Probability(1)}))
    q = parse_query("Q() :- R(a)", schema)
    report = verify_product_formula(space, q)
    assert report.agree
    assert report.lhs == 1
    assert all(v == 0 for v in report.fresh_effects.values())


def test_product_formula_single_component():
    space = two_component_space()
    q = parse_query("Q() :- R1(X,Y), R2(Y)", space.instance.schema)
    report = verify_product_formula(space, q)
    assert report.agree
    assert len(report.per_sigma) == 2  # two atoms, one component
    for _, rhs in report.per_sigma:
        assert rhs == report.lhs


def test_product_formula_random_cross_check():
    rng = random.Random(1999)
    from helpers import random_hierarchical_sjf_bcq, random_tid_space

    for _ in range(10):
        inst = random_instance(rng, max_endogenous=5)
        space = random_tid_space(rng, inst)
        q = random_hierarchical_sjf_bcq(rng, max_atoms=2)
        assert verify_product_formula(space, q).agree


def test_product_formula_rejects_explicit_spaces():
    from helpers import four_worlds_space

    with pytest.raises(InputError, match="tuple-independent"):
        verify_product_formula(four_worlds_space(), parse_query("Q() :- E(a,b)"))


# ---------------------------------------------------------------------------
# Decomposition into minimal satisfiable sets
# ---------------------------------------------------------------------------

def test_mss_decomposition_path_query():
    inst = paths_instance()
    assert mss_decomposition_check(inst, path_query(inst.schema)).holds


def test_mss_decomposition_unsatisfiable():
    inst = paths_instance()
    q = parse_query("Q() :- E(b,a)", inst.schema)
    assert mss_decomposition_check(inst, q).holds


def test_mss_decomposition_ground_conjunction():
    space = power_p_space()
    q = ground_pair_query(space.instance.schema)
    assert mss_decomposition_check(space.instance, q).holds


def test_mss_decomposition_cap():
    rng = random.Random(3)
    inst = random_instance(rng, max_endogenous=8, min_endogenous=8, n_exogenous=0)
    with pytest.raises(ResourceLimitError):
        mss_decomposition_check(inst, random_boolean_query(rng), cap=4)


# ---------------------------------------------------------------------------
# Random corpus: the characterizing axioms hold for the causal effect
# ---------------------------------------------------------------------------

def test_characterizing_axioms_on_random_corpus():
    rng = random.Random(5150)
    for _ in range(40):
        inst = random_instance(rng, max_endogenous=6)
        space = random_explicit_space(rng, inst)
        qa = random_boolean_query(rng)
        qb = random_boolean_query(rng)
        assert check_dum(space, qa, gces_score).holds
        assert check_g_eff(space, qa, gces_score).holds
        assert check_g_sym(space, qa, gces_score).holds
        assert check_lin(space, qa, qb, gces_score).holds


def test_uniform_half_specialization_on_random_corpus():
    rng = random.Random(6174)
    for _ in range(15):
        inst = random_instance(rng, max_endogenous=5)
        space = make_uniform_tid(inst)
        q = random_boolean_query(rng)
        assert check_eff(space, q, gces_score).holds
        assert check_sym(space, q, gces_score).holds


def test_shapley_satisfies_dum_sym_lin_but_not_eff():
    # the permutation-weighted value keeps the unweighted axioms
    rng = random.Random(7777)
    for _ in range(10):
        inst = random_instance(rng, max_endogenous=4)
        space = make_uniform_tid(inst)
        qa = random_boolean_query(rng)
        qb = random_boolean_query(rng)
        assert check_dum(space, qa, shapley_score).holds
        assert check_sym(space, qa, shapley_score).holds
        assert check_lin(space, qa, qb, shapley_score).holds
    # two-of-three majority: Shapley values sum to 1, the swing count does
    # not (each tuple swings two of four subsets, so the EFF target is 3/2)
    schema = {"R": RelationSchema("R", 1)}
    recs = [TupleRecord(f"t{i}", "R", (c,), "endogenous")
            for i, c in enumerate("abc", start=1)]
    inst = InstanceStore(schema, recs)
    majority = parse_query(
        "Q() :- R(a), R(b) ; Q() :- R(b), R(c) ; Q() :- R(a), R(c)", schema
    )
    space = make_uniform_tid(inst)
    verdict = check_eff(space, majority, shapley_score)
    assert not verdict.holds
    assert verdict.witnesses[0].lhs == 1
    assert verdict.witnesses[0].rhs == Fraction(3, 2)
    # the causal effect on the same space is the Banzhaf value and passes
    assert check_eff(space, majority, gces_score).holds
