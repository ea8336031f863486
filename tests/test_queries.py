"""Query language, evaluation, structure analysis, and probability."""

import itertools
import math
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalpdb import (
    Aggregate,
    BCQ,
    DichotomyError,
    ExplicitWorlds,
    InputError,
    InstanceStore,
    PDBSpace,
    Probability,
    QuerySyntaxError,
    RelationSchema,
    TupleIndependent,
    TupleRecord,
    UBCQ,
    Var,
    components,
    evaluate,
    expected_value,
    hierarchy_violation,
    is_hierarchical,
    is_monotone_check,
    is_self_join_free,
    make_uniform_tid,
    minimal_satisfiable_sets,
    parse_query,
    query_probability,
)
from causalpdb.queries import Atom, _homomorphism_images, _world_sum

from helpers import (
    CORPUS_NUMBERS,
    all_worlds_with_mass,
    oracle_eval,
    oracle_eval_aggregate,
    oracle_mss,
    oracle_query_probability,
    path_query,
    paths_full_instance,
    paths_instance,
    power_p_space,
    power_query,
    two_component_query,
    two_component_space,
    random_bcq,
    random_boolean_query,
    random_explicit_space,
    random_hierarchical_sjf_bcq,
    random_instance,
    random_tid_space,
    world_facts,
)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

def test_parse_three_atom_bcq():
    q = parse_query("Q() :- R1(X,Y), R2(Y), R3(Z)")
    assert isinstance(q, BCQ)
    assert len(q.atoms) == 3
    assert q.variables == {"X", "Y", "Z"}


def test_parse_repeated_variable():
    q = parse_query("Q() :- S(W,W)")
    assert isinstance(q, BCQ)
    assert q.atoms[0].terms == (Var("W"), Var("W"))


def test_unknown_predicate_error():
    schema = {"S": RelationSchema("S", 2)}
    with pytest.raises(QuerySyntaxError, match="unknown relation 'R'"):
        parse_query("Q() :- R()", schema)


def test_arity_mismatch_error():
    schema = {"S": RelationSchema("S", 2)}
    with pytest.raises(QuerySyntaxError, match="expects 2"):
        parse_query("Q() :- S(X)", schema)


def test_syntax_error_carries_position():
    with pytest.raises(QuerySyntaxError, match="line 1"):
        parse_query("Q() :- R(X,")
    with pytest.raises(QuerySyntaxError, match="column"):
        parse_query("Q() :- R(X) %")


def test_an_over_long_body_is_refused_before_the_rest_of_the_line_is_read():
    body = ", ".join(f"R{i}(X)" for i in range(201))
    with pytest.raises(QuerySyntaxError) as refused:
        parse_query(f"Q() :- {body} $")
    assert str(refused.value) == (
        "line 1, column 1698: a rule body takes at most 200 atoms; "
        "the evaluators recurse once per atom"
    )
    for text, column in (("$", 1), ("Q() :- R(X) $", 13), ("Q() :- R(X), $ S(Y)", 14)):
        with pytest.raises(QuerySyntaxError) as refused:
            parse_query(text)
        assert str(refused.value) == f"line 1, column {column}: unexpected character '$'"


def test_free_variables_rejected():
    with pytest.raises(QuerySyntaxError, match="free variables"):
        parse_query("Q(X) :- R(X)")


def test_union_by_lines_and_semicolons():
    q1 = parse_query("Q() :- R(X)\nQ() :- S(X)")
    q2 = parse_query("Q() :- R(X) ; Q() :- S(X)")
    assert isinstance(q1, UBCQ) and isinstance(q2, UBCQ)
    assert q1 == q2


def test_mixed_head_names_rejected():
    with pytest.raises(QuerySyntaxError, match="head name"):
        parse_query("Q() :- R(X)\nP() :- S(X)")


def test_parse_aggregate():
    q = parse_query("Q(sum(Y)) :- S(X,Y)")
    assert isinstance(q, Aggregate)
    assert q.op == "sum" and q.target == Var("Y")
    q = parse_query("Q(count()) :- S(X,Y)")
    assert q.op == "count" and q.target is None


def test_aggregate_target_must_occur_in_body():
    with pytest.raises(QuerySyntaxError, match="does not occur"):
        parse_query("Q(sum(Z)) :- S(X,Y)")


def test_aggregate_single_rule_only():
    with pytest.raises(QuerySyntaxError, match="single rule"):
        parse_query("Q(count()) :- S(X,Y)\nQ(count()) :- S(Y,X)")


def test_constants_quoted_and_numeric():
    q = parse_query('Q() :- S("north west", 3)')
    assert q.atoms[0].terms == ("north west", Fraction(3))
    q = parse_query("Q() :- S(X, -2)")
    assert q.atoms[0].terms[1] == Fraction(-2)
    q = parse_query("Q() :- S(X, 0.5)")
    assert q.atoms[0].terms[1] == Fraction(1, 2)


def test_comments_and_blank_lines():
    q = parse_query("# path query\n\nQ() :- E(a,b)  # direct edge\n")
    assert isinstance(q, BCQ)


# ---------------------------------------------------------------------------
# Boolean evaluation
# ---------------------------------------------------------------------------

def test_path_query_on_worlds():
    inst = paths_instance()
    q = path_query(inst.schema)
    assert evaluate(q, inst, {"t1", "t2", "t3"}) == 1
    assert evaluate(q, inst, {"t2", "t6"}) == 0
    assert evaluate(q, inst, {"t4", "t5", "t6"}) == 1


def test_join_needs_both_sides():
    space = power_p_space()
    q = power_query(space.instance.schema)
    assert evaluate(q, space.instance, {"t1", "t2"}) == 0
    assert evaluate(q, space.instance, {"t1", "t3"}) == 1


def test_monotonicity_exhaustive_on_subset_pairs():
    inst = paths_instance()
    q = path_query(inst.schema)
    tids = sorted(inst.tids)
    values = {}
    for mask in range(1 << len(tids)):
        world = frozenset(t for i, t in enumerate(tids) if mask >> i & 1)
        values[mask] = evaluate(q, inst, world)
    for mask in range(1 << len(tids)):
        sub = mask
        while sub:
            sub = (sub - 1) & mask
            assert values[sub] <= values[mask]


def test_eval_matches_product_oracle():
    rng = random.Random(99)
    for _ in range(40):
        inst = random_instance(rng, max_endogenous=6)
        q = random_boolean_query(rng)
        for _ in range(6):
            world = {t for t in sorted(inst.tids) if rng.random() < 0.5}
            assert evaluate(q, inst, world) == oracle_eval(q, world_facts(inst, world))
    # One fact carried by two tuples, the second endogenous or exogenous;
    # worlds hold one carrier, both or neither.
    for kind in ("endogenous", "exogenous"):
        for _ in range(30):
            inst = random_instance(rng, max_endogenous=5)
            first = rng.choice(inst.records(inst.endogenous))
            second = TupleRecord(f"t{len(inst) + 1}", first.predicate, first.args, kind)
            inst = inst.with_records([second])
            fact = Atom(first.predicate, first.args)
            body = random_bcq(rng).atoms
            boolean = [random_boolean_query(rng), BCQ((fact,) + body)]
            count = Aggregate("count", None, rng.choice([body, (fact,) + body]))
            rest = {t for t in sorted(inst.tids) if rng.random() < 0.5}
            for carriers in ((), (first.tid,), (second.tid,), (first.tid, second.tid)):
                world = rest - {first.tid, second.tid} | set(carriers)
                facts = world_facts(inst, world)
                for q in boolean:
                    assert evaluate(q, inst, world) == oracle_eval(q, facts)
                assert evaluate(count, inst, world) == oracle_eval_aggregate(count, facts)
    # SUM over a corpus whose every position holds an integer.
    for _ in range(40):
        inst = random_instance(rng, max_endogenous=6, constants=CORPUS_NUMBERS)
        body = random_bcq(rng, constants=CORPUS_NUMBERS)
        if not body.variables:
            continue
        total = Aggregate("sum", Var(rng.choice(sorted(body.variables))), body.atoms)
        for _ in range(6):
            world = {t for t in sorted(inst.tids) if rng.random() < 0.5}
            assert evaluate(total, inst, world) == oracle_eval_aggregate(total, world_facts(inst, world))
    # A world holding unknown tuples names the least of them.
    inst = random_instance(rng, max_endogenous=6)
    for q in (random_bcq(rng), Aggregate("count", None, random_bcq(rng).atoms)):
        with pytest.raises(InputError, match="^unknown tuple id 'yy'$"):
            evaluate(q, inst, {"t1", "zz", "yy"})


def test_random_marginals_do_not_depend_on_the_hash_seed():
    # The corpora draw one value per tuple; drawn over a set's iteration
    # order, the tuple that receives each value would change with the seed.
    import causalpdb

    script = (
        "import random\n"
        "from helpers import random_instance, random_tid_space\n"
        "rng = random.Random(5)\n"
        "for _ in range(20):\n"
        "    space = random_tid_space(rng, random_instance(rng))\n"
        "    print(sorted(space.representation.marginals.items()))\n"
    )
    src = str(Path(causalpdb.__file__).resolve().parent.parent)
    path = os.pathsep.join([src, str(Path(__file__).resolve().parent)])
    outputs = []
    for seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path}
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env,
            timeout=60,
        )
        assert (done.returncode, done.stderr) == (0, ""), seed
        outputs.append(done.stdout)
    assert outputs[0].count("\n") == 20
    assert outputs[0] == outputs[1]


def test_unknown_tuple_named_in_evaluate_does_not_depend_on_the_hash_seed():
    # With several unknown ids in the world, the least one is named.
    import causalpdb

    script = (
        "from causalpdb import InputError, evaluate\n"
        "from helpers import nonhier_query, nonhier_space\n"
        "inst = nonhier_space().instance\n"
        "try:\n"
        "    evaluate(nonhier_query(inst.schema), inst, {'t1', 'zz', 'yy', 'xx'})\n"
        "except InputError as exc:\n"
        "    print(exc)\n"
    )
    src = str(Path(causalpdb.__file__).resolve().parent.parent)
    path = os.pathsep.join([src, str(Path(__file__).resolve().parent)])
    for seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path}
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env,
            timeout=60,
        )
        assert (done.returncode, done.stderr) == (0, ""), seed
        assert done.stdout == "unknown tuple id 't1'\n", seed


def test_eval_boolean_takes_raw_facts():
    # The query against one raw fact, as the world of a one-tuple instance.
    q = parse_query("Q() :- E(a,b)")
    for args, value in ((("a", "b"), 1), (("b", "a"), 0)):
        record = TupleRecord("t1", "E", args, "endogenous")
        inst = InstanceStore({"E": RelationSchema("E", 2)}, [record])
        assert evaluate(q, inst, {"t1"}) == value


# ---------------------------------------------------------------------------
# Aggregates
# ---------------------------------------------------------------------------

def test_sum_aggregate_values():
    inst = paths_full_instance()
    q = parse_query("Q(sum(Y)) :- S(X,Y)", inst.schema)
    assert evaluate(q, inst, inst.tids) == 17
    assert evaluate(q, inst, set()) == 0
    assert evaluate(q, inst, {"t7"}) == 1


def test_count_aggregate():
    inst = paths_full_instance()
    q = parse_query("Q(count()) :- S(X,Y)", inst.schema)
    assert evaluate(q, inst, inst.tids) == 6
    assert evaluate(q, inst, {"t7", "t8"}) == 2


def test_duplicate_facts_count_once():
    schema = {"S": RelationSchema("S", 2, ("symbolic", "numeric"))}
    recs = [
        TupleRecord("t1", "S", ("a", 5), "endogenous"),
        TupleRecord("t2", "S", ("a", 5), "endogenous"),
    ]
    inst = InstanceStore(schema, recs)
    q = parse_query("Q(sum(Y)) :- S(X,Y)", schema)
    assert evaluate(q, inst, {"t1", "t2"}) == 5


def test_non_numeric_target_rejected():
    inst = paths_instance()
    q = parse_query("Q(sum(Y)) :- E(X,Y)", inst.schema)
    with pytest.raises(InputError, match="non-numeric"):
        evaluate(q, inst, {"t1"})


# ---------------------------------------------------------------------------
# Structure
# ---------------------------------------------------------------------------

def test_self_join_detection():
    assert is_self_join_free(parse_query("Q() :- R1(X,Y), R2(Y), R3(Z)"))
    assert not is_self_join_free(parse_query("Q() :- R(X,Y), R(Y,Z)"))
    assert is_self_join_free(parse_query("Q() :- R(X,Y)"))


def test_hierarchical_examples():
    assert is_hierarchical(parse_query("Q() :- R1(X,Y), R2(Y)"))
    q = parse_query("Q() :- R(X), S(X,Y), T(Y)")
    assert not is_hierarchical(q)
    assert hierarchy_violation(q) == ("X", "Y")
    assert is_hierarchical(parse_query("Q() :- R(X), S(X,X)"))
    # A and Z occur in R and S, B and Y in S and T: the first pair is (A, B).
    shared = parse_query("Q() :- R(A,Z), S(A,B,Z,Y), T(B,Y)")
    assert hierarchy_violation(shared) == ("A", "B")


@settings(max_examples=80, deadline=None)
@given(st.randoms(use_true_random=False))
def test_hierarchical_invariant_under_renaming_and_reordering(rng):
    q = random_bcq(rng)
    base = is_hierarchical(q)
    renaming = {"X": "V9", "Y": "V2", "Z": "V5"}
    renamed = BCQ(
        tuple(
            Atom(
                a.predicate,
                tuple(
                    Var(renaming[t.name]) if isinstance(t, Var) else t
                    for t in a.terms
                ),
            )
            for a in q.atoms
        )
    )
    assert is_hierarchical(renamed) == base
    shuffled = list(q.atoms)
    rng.shuffle(shuffled)
    assert is_hierarchical(BCQ(tuple(shuffled))) == base


def test_components_examples():
    q = parse_query("Q() :- R1(X,Y), R2(Y), R3(Z)")
    part = components(q)
    assert [
        [str(a) for a in grp] for grp in part.atom_groups()
    ] == [["R1(X,Y)", "R2(Y)"], ["R3(Z)"]]
    q = parse_query("Q() :- R1(X,Y), R2(Y,Z)")
    assert len(components(q)) == 1
    q = parse_query("Q() :- R(a,b)")
    assert len(components(q)) == 1


# ---------------------------------------------------------------------------
# Query probability
# ---------------------------------------------------------------------------

def test_two_component_fixture_probability():
    space = two_component_space()
    q = two_component_query(space.instance.schema)
    brute = query_probability(space, q, "brute")
    lifted = query_probability(space, q, "lifted")
    # exact value: 0.43 for the join component times 0.98 for the third
    # relation being nonempty
    assert brute == Fraction(2107, 5000)
    assert lifted == brute


def test_alternate_low_marginal_reading():
    # Same instance with the last marginal at 0.2 instead: both backends
    # give 0.43 x 0.92 exactly.
    space = two_component_space()
    marginals = dict(space.representation.marginals)
    marginals["t6"] = Probability.from_wire("0.2")
    low = PDBSpace(space.instance, TupleIndependent(marginals))
    q = two_component_query(space.instance.schema)
    assert query_probability(low, q, "brute") == Fraction(989, 2500)
    assert query_probability(low, q, "lifted") == Fraction(989, 2500)


def test_exogenous_mss_forces_probability_one():
    schema = {"R": RelationSchema("R", 1)}
    inst = InstanceStore(
        schema,
        [
            TupleRecord("t1", "R", ("a",), "exogenous"),
            TupleRecord("t2", "R", ("b",), "endogenous"),
        ],
    )
    space = make_uniform_tid(inst)
    q = parse_query("Q() :- R(a)", schema)
    assert query_probability(space, q, "brute") == 1


def test_uniform_path_probability():
    inst = paths_instance()
    q = path_query(inst.schema)
    space = make_uniform_tid(inst)
    assert query_probability(space, q, "brute") == Fraction(43, 64)


def test_brute_matches_subset_oracle():
    rng = random.Random(4242)
    for _ in range(25):
        inst = random_instance(rng, max_endogenous=6)
        space = random_tid_space(rng, inst)
        q = random_boolean_query(rng)
        assert query_probability(space, q, "brute") == oracle_query_probability(
            space, q
        )


def test_component_product_law():
    rng = random.Random(515)
    checked = 0
    while checked < 30:
        inst = random_instance(rng, max_endogenous=7)
        q = random_bcq(rng)
        if not is_self_join_free(q):
            continue
        space = random_tid_space(rng, inst)
        part = components(q)
        product = Fraction(1)
        for i in range(len(part)):
            product *= query_probability(space, part.subquery(i), "brute")
        assert query_probability(space, q, "brute") == product
        checked += 1


def test_lifted_agrees_with_brute_on_random_queries():
    rng = random.Random(31337)
    for _ in range(40):
        inst = random_instance(rng, max_endogenous=7)
        space = random_tid_space(rng, inst)
        q = random_hierarchical_sjf_bcq(rng)
        assert query_probability(space, q, "lifted") == query_probability(
            space, q, "brute"
        )


def test_lifted_combines_duplicate_facts():
    schema = {"R": RelationSchema("R", 1)}
    recs = [
        TupleRecord("d1", "R", ("a",), "endogenous"),
        TupleRecord("d2", "R", ("a",), "endogenous"),
    ]
    inst = InstanceStore(schema, recs)
    space = make_uniform_tid(inst)
    q = parse_query("Q() :- R(X)", schema)
    assert query_probability(space, q, "lifted") == Fraction(3, 4)
    assert query_probability(space, q, "brute") == Fraction(3, 4)
    ground = parse_query("Q() :- R(a)", schema)
    assert query_probability(space, ground, "lifted") == Fraction(3, 4)


def test_lifted_rejects_non_hierarchical():
    schema = {"R": RelationSchema("R", 1), "S": RelationSchema("S", 2),
              "T": RelationSchema("T", 1)}
    inst = InstanceStore(schema, [TupleRecord("t1", "R", ("a",), "endogenous")])
    space = make_uniform_tid(inst)
    q = parse_query("Q() :- R(X), S(X,Y), T(Y)", schema)
    with pytest.raises(DichotomyError, match="non-hierarchical"):
        query_probability(space, q, "lifted")


# Queries whose groundings bind a repeated variable, meet a constant, or
# bind two levels deep, over facts that match an atom only in part (and a
# duplicate fact); the last tuple is exogenous.
BINDING_CASES = {
    "repeated-variable": ("Q() :- R(X), S(X,Y,Y)", [
        ("R", ("a",)), ("R", ("b",)), ("S", ("a", "b", "b")),
        ("S", ("a", "b", "c")), ("S", ("a", "b", "b")), ("S", ("b", "c", "c")),
    ]),
    "constant": ("Q() :- R(X), S(X,a)", [
        ("R", ("a",)), ("R", ("b",)), ("S", ("a", "a")), ("S", ("a", "b")),
        ("S", ("b", "c")), ("S", ("b", "a")),
    ]),
    "three-level": ("Q() :- R(X), S(X,Y), U(X,Y,Z)", [
        ("R", ("a",)), ("R", ("b",)), ("S", ("a", "b")), ("S", ("a", "c")),
        ("S", ("b", "b")), ("U", ("a", "b", "c")), ("U", ("a", "b", "d")),
        ("U", ("b", "b", "a")),
    ]),
    # X and Y occur in every atom, so one expansion binds both.
    "two-roots": ("Q() :- R(X,Y), S(Y,X,Z), T(X,Y)", [
        ("R", ("a", "b")), ("R", ("b", "a")), ("S", ("b", "a", "c")),
        ("S", ("b", "a", "d")), ("S", ("a", "b", "c")), ("S", ("c", "a", "a")),
        ("T", ("a", "b")), ("T", ("b", "a")), ("T", ("a", "b")),
    ]),
}


def _binding_case(name):
    text, facts = BINDING_CASES[name]
    schema = {p: RelationSchema(p, len(args)) for p, args in facts}
    last = len(facts) - 1
    inst = InstanceStore(schema, [
        TupleRecord(f"t{i}", p, args, "exogenous" if i == last else "endogenous")
        for i, (p, args) in enumerate(facts)
    ])
    shares = [Fraction(1, 2), Fraction(1, 3), Fraction(3, 4), Fraction(2, 5)]
    marginals = {
        f"t{i}": Fraction(1) if i == last else shares[i % len(shares)]
        for i in range(len(facts))
    }
    return PDBSpace(inst, TupleIndependent(marginals)), parse_query(text, schema)


@pytest.mark.parametrize("name", sorted(BINDING_CASES))
def test_lifted_binding_recursion_matches_oracles(name):
    from causalpdb import score_all

    from helpers import oracle_causal_effect

    space, q = _binding_case(name)
    lifted = query_probability(space, q, "lifted")
    assert lifted > 0
    assert lifted == query_probability(space, q, "brute")
    assert lifted == oracle_query_probability(space, q)
    report = score_all(space, q, "ces-tid")
    assert {e.backend for e in report.entries} == {"lifted"}
    assert report.values() == {
        t: oracle_causal_effect(space, q, t) for t in space.instance.endogenous_order
    }


def test_lifted_plan_refuses_a_component_without_a_root():
    from causalpdb.queries import _lifted_plan

    schema = {"R": RelationSchema("R", 1), "S": RelationSchema("S", 2),
              "T": RelationSchema("T", 1)}
    inst = InstanceStore(schema, [
        TupleRecord("t1", "R", ("a",), "endogenous"),
        TupleRecord("t2", "S", ("a", "b"), "endogenous"),
        TupleRecord("t3", "T", ("b",), "endogenous"),
    ])
    q = parse_query("Q() :- R(X), S(X,Y), T(Y)", schema)
    with pytest.raises(DichotomyError, match="non-hierarchical"):
        _lifted_plan(inst, q)


def test_lifted_rejects_unions_self_joins_and_explicit_spaces():
    inst = paths_instance()
    q = path_query(inst.schema)
    with pytest.raises(DichotomyError, match="union"):
        query_probability(make_uniform_tid(inst), q, "lifted")
    sj = parse_query("Q() :- E(X,Y), E(Y,Z)", inst.schema)
    with pytest.raises(DichotomyError, match="self-join"):
        query_probability(make_uniform_tid(inst), sj, "lifted")
    from helpers import four_worlds_space

    with pytest.raises(DichotomyError, match="tuple-independent"):
        query_probability(four_worlds_space(), parse_query("Q() :- E(a,b)"), "lifted")


def test_auto_falls_back_to_brute():
    inst = paths_instance()
    q = path_query(inst.schema)
    space = make_uniform_tid(inst)
    assert query_probability(space, q, "auto") == Fraction(43, 64)


# ---------------------------------------------------------------------------
# Expected values
# ---------------------------------------------------------------------------

def test_expected_sum_uniform():
    inst = paths_full_instance()
    q = parse_query("Q(sum(Y)) :- S(X,Y)", inst.schema)
    assert expected_value(make_uniform_tid(inst), q) == Fraction(17, 2)


def test_expected_sum_all_sure():
    inst = paths_full_instance()
    q = parse_query("Q(sum(Y)) :- S(X,Y)", inst.schema)
    space = PDBSpace(
        inst, TupleIndependent({t: Probability(1) for t in inst.tids})
    )
    assert expected_value(space, q) == 17


def test_expected_value_empty_support():
    inst = paths_full_instance()
    q = parse_query("Q(sum(Y)) :- S(z9,Y)", inst.schema)
    assert expected_value(make_uniform_tid(inst), q) == 0


def _plain_sum(pdb, value) -> Fraction:
    """The definition: a Fraction sum over every subset of the instance."""
    total = Fraction(0)
    for world, mass in all_worlds_with_mass(pdb):
        total += mass * value(world)
    return total


def _assert_world_sum(pdb, value):
    got = _world_sum(pdb, value, None)
    assert type(got) is Fraction
    assert got == _plain_sum(pdb, value)
    assert math.gcd(got.numerator, got.denominator) == 1


def test_world_sum_equals_a_plain_fraction_sum_on_boolean_values():
    rng = random.Random(21)
    for _ in range(25):
        inst = random_instance(rng, max_endogenous=6)
        q = random_boolean_query(rng)
        as_bool = lambda world: bool(evaluate(q, inst, world))
        as_int = lambda world: int(evaluate(q, inst, world))
        for space in (random_tid_space(rng, inst), random_explicit_space(rng, inst)):
            _assert_world_sum(space, as_bool)
            _assert_world_sum(space, as_int)


def test_world_sum_equals_a_plain_fraction_sum_on_signed_fractional_sums():
    schema = {"S": RelationSchema("S", 2, ("symbolic", "numeric"))}
    values = [Fraction(-2, 5), Fraction(1, 3), Fraction(7), Fraction(-3, 4)]
    inst = InstanceStore(schema, [
        TupleRecord(f"t{i + 1}", "S", (f"c{i + 1}", v), "endogenous")
        for i, v in enumerate(values)
    ])
    q = parse_query("Q(sum(Y)) :- S(X,Y)", schema)
    marginals = [Fraction(1, 3), Fraction(2, 7), Fraction(5, 11), Fraction(1)]
    value = lambda world: evaluate(q, inst, world)
    tid = PDBSpace(
        inst,
        TupleIndependent(
            {f"t{i + 1}": Probability(p) for i, p in enumerate(marginals)}
        ),
    )
    _assert_world_sum(tid, value)
    explicit = PDBSpace(
        inst,
        ExplicitWorlds([
            ({"t1"}, Fraction(1, 3)),
            ({"t1", "t2"}, Fraction(2, 7)),
            ({"t2", "t3", "t4"}, Fraction(1, 11)),
            ({"t3"}, Fraction(0)),
            ({"t1", "t2", "t3", "t4"}, Fraction(67, 231)),
        ]),
    )
    _assert_world_sum(explicit, value)
    assert _world_sum(explicit, lambda world: 1, None) == 1


# ---------------------------------------------------------------------------
# Homomorphism images
# ---------------------------------------------------------------------------

# E is untagged, so "1" and 1 are distinct constants in it; N's first
# position is numeric, so its "1" is parsed to the number 1.
IMAGE_SCHEMA = {
    "E": RelationSchema("E", 2),
    "N": RelationSchema("N", 2, ("numeric", "symbolic")),
    "P": RelationSchema("P", 1),
}
IMAGE_CONSTANTS = ["a", "b", "1", Fraction(1)]


def _random_image_instance(rng: random.Random) -> InstanceStore:
    """Up to 14 records, some repeating an earlier fact under a new tid."""
    records = []
    for i in range(rng.randint(1, 14)):
        if records and rng.random() < 0.2:
            pred, args = rng.choice(records)[1:3]
        else:
            pred = rng.choice(sorted(IMAGE_SCHEMA))
            if pred == "N":
                args = (rng.choice(["1", "2"]), rng.choice(["a", "1"]))
            else:
                args = tuple(
                    rng.choice(IMAGE_CONSTANTS) for _ in range(IMAGE_SCHEMA[pred].arity)
                )
        records.append((f"t{i}", pred, args, rng.choice(["endogenous", "exogenous"])))
    return InstanceStore(IMAGE_SCHEMA, [TupleRecord(*r) for r in records])


def _random_image_query(rng: random.Random):
    """A BCQ of 1-3 atoms, or a union of two, with constants, repeated
    variables and self-joins."""
    def bcq():
        atoms = []
        for _ in range(rng.randint(1, 3)):
            pred = rng.choice(sorted(IMAGE_SCHEMA))
            atoms.append(Atom(pred, tuple(
                Var(rng.choice(["X", "Y"])) if rng.random() < 0.6
                else rng.choice(IMAGE_CONSTANTS)
                for _ in range(IMAGE_SCHEMA[pred].arity)
            )))
        return BCQ(tuple(atoms))
    return UBCQ((bcq(), bcq())) if rng.random() < 0.3 else bcq()


def _brute_images(instance: InstanceStore, q) -> list[frozenset[str]]:
    """One image per map of the atoms onto records of their predicates
    (every combination, in tuple-id order) that binds each variable to one
    constant and each constant to itself."""
    images = []
    records = instance.records()
    for disjunct in q.disjuncts if isinstance(q, UBCQ) else (q,):
        choices = [[r for r in records if r.predicate == a.predicate] for a in disjunct.atoms]
        for chosen in itertools.product(*choices):
            binding, holds = {}, True
            for atom, rec in zip(disjunct.atoms, chosen):
                for term, value in zip(atom.terms, rec.args):
                    if isinstance(term, Var):
                        holds &= binding.setdefault(term.name, value) == value
                    else:
                        holds &= term == value
            if holds:
                images.append(frozenset(r.tid for r in chosen))
    return images


def test_homomorphism_images_equal_every_unifying_record_map():
    rng = random.Random(1717)
    shapes = set()
    for _ in range(400):
        inst = _random_image_instance(rng)
        q = _random_image_query(rng)
        got = list(_homomorphism_images(inst, q))
        want = _brute_images(inst, q)
        assert Counter(got) == Counter(want), (q, inst.records())
        assert got == want  # the same order, too
        shapes.add((isinstance(q, UBCQ), len(want) > len(set(want)), bool(want)))
    assert len(shapes) == 6  # unions or not; repeated images or not; some empty


def test_argument_index_keeps_numbers_and_strings_apart():
    inst = InstanceStore(IMAGE_SCHEMA, [
        TupleRecord("s", "E", ("1", "a"), "endogenous"),
        TupleRecord("n", "E", (1, "a"), "endogenous"),
        TupleRecord("m", "N", ("1", "a"), "endogenous"),
        TupleRecord("k", "E", ("a", "a"), "exogenous"),
    ])
    assert inst.records_by_argument is inst.records_by_argument  # built once
    by_tid = lambda key: [r.tid for r in inst.records_by_argument[key]]
    assert by_tid(("E", 0, "1")) == ["s"]
    assert by_tid(("E", 0, Fraction(1))) == ["n"]
    assert by_tid(("N", 0, Fraction(1))) == ["m"]
    assert ("N", 0, "1") not in inst.records_by_argument
    for text, images in [
        ('Q() :- E("1",X)', [{"s"}]),
        ("Q() :- E(1,X)", [{"n"}]),
        ("Q() :- E(X,a), N(X,a)", [{"n", "m"}]),
        ("Q() :- E(X,X)", [{"k"}]),
        ("Q() :- E(X,Y), E(Y,Y)", [{"k"}, {"k", "n"}, {"k", "s"}]),
    ]:
        q = parse_query(text, IMAGE_SCHEMA)
        assert list(_homomorphism_images(inst, q)) == images, text


# ---------------------------------------------------------------------------
# Minimal satisfiable sets
# ---------------------------------------------------------------------------

def test_path_query_mss():
    inst = paths_instance()
    q = path_query(inst.schema)
    family = minimal_satisfiable_sets(inst, q)
    assert family.as_lists() == [["t1"], ["t2", "t3"], ["t4", "t5", "t6"]]


def test_join_query_mss():
    space = power_p_space()
    q = power_query(space.instance.schema)
    family = minimal_satisfiable_sets(space.instance, q)
    assert family.as_lists() == [["t1", "t3"], ["t1", "t4"]]


def test_duplicate_facts_give_one_minimal_set_per_tuple():
    schema = {"R": RelationSchema("R", 1)}
    recs = [
        TupleRecord("d1", "R", ("a",), "endogenous"),
        TupleRecord("d2", "R", ("a",), "endogenous"),
    ]
    inst = InstanceStore(schema, recs)
    q = parse_query("Q() :- R(a)", schema)
    assert minimal_satisfiable_sets(inst, q).as_lists() == [["d1"], ["d2"]]


def test_unsatisfiable_query_has_empty_mss():
    inst = paths_instance()
    q = parse_query("Q() :- E(b,a)", inst.schema)
    assert len(minimal_satisfiable_sets(inst, q)) == 0


def test_mss_matches_exhaustive_oracle():
    rng = random.Random(808)
    for _ in range(25):
        inst = random_instance(rng, max_endogenous=6)
        q = random_boolean_query(rng)
        family = minimal_satisfiable_sets(inst, q)
        assert set(family.sets) == oracle_mss(inst, q)


def test_mss_decomposes_evaluation():
    inst = paths_instance()
    q = path_query(inst.schema)
    family = minimal_satisfiable_sets(inst, q)
    tids = sorted(inst.tids)
    for mask in range(1 << len(tids)):
        world = frozenset(t for i, t in enumerate(tids) if mask >> i & 1)
        expected = 1 if any(s <= world for s in family) else 0
        assert evaluate(q, inst, world) == expected


# ---------------------------------------------------------------------------
# Monotonicity check
# ---------------------------------------------------------------------------

def test_bcq_structurally_monotone():
    inst = paths_instance()
    assert is_monotone_check(path_query(inst.schema), inst)


def test_sum_monotone_when_values_nonnegative():
    inst = paths_full_instance()
    q = parse_query("Q(sum(Y)) :- S(X,Y)", inst.schema)
    assert is_monotone_check(q, inst)


def test_sum_with_negative_value_not_monotone():
    schema = {"S": RelationSchema("S", 2, ("symbolic", "numeric"))}
    recs = [
        TupleRecord("t1", "S", ("a", 2), "endogenous"),
        TupleRecord("t2", "S", ("b", -3), "endogenous"),
    ]
    inst = InstanceStore(schema, recs)
    q = parse_query("Q(sum(Y)) :- S(X,Y)", schema)
    assert not is_monotone_check(q, inst)
