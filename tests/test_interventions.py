"""Intervened distributions and intervened query values."""

import random
from fractions import Fraction

import pytest

from causalpdb import (
    InputError,
    Intervention,
    PDBSpace,
    TupleIndependent,
    enumerate_worlds,
    evaluate,
    intervene,
    intervened_expectation,
    intervened_query_value,
    make_uniform_tid,
    parse_query,
    tuple_probability,
    validate,
    world_probability,
)

from helpers import (
    path_query,
    paths_full_instance,
    random_boolean_query,
    random_explicit_space,
    random_instance,
    random_tid_space,
    four_worlds_space,
)


def test_intervention_needs_targets():
    with pytest.raises(InputError, match="at least one target"):
        Intervention()


def test_intervention_sets_must_be_disjoint():
    with pytest.raises(InputError, match="both in and out"):
        Intervention(ins={"t1"}, outs={"t1"})


def test_exogenous_target_rejected():
    space = four_worlds_space()
    inst = space.instance
    # rebuild t6 as exogenous to have one at hand
    from causalpdb import InstanceStore, PDBSpace, RelationSchema, TupleRecord

    recs = inst.records()
    recs[-1] = TupleRecord("t6", "E", ("e", "b"), "exogenous")
    mixed = InstanceStore(inst.schema, recs)
    pdb = PDBSpace(mixed, space.representation)
    with pytest.raises(InputError, match="exogenous"):
        intervene(pdb, Intervention.do_in("t6"))


def test_unknown_target_rejected():
    with pytest.raises(InputError, match="unknown tuple id"):
        intervene(four_worlds_space(), Intervention.do_in("t42"))


# ---------------------------------------------------------------------------
# Pushed masses on the four-world space
# ---------------------------------------------------------------------------

def test_force_in_masses():
    plus = intervene(four_worlds_space(), Intervention.do_in("t3"))
    assert type(plus) is PDBSpace
    assert world_probability(plus, {"t1", "t3", "t4", "t6"}) == Fraction(1, 5)
    assert world_probability(plus, {"t1", "t2", "t3"}) == Fraction(1, 4)
    assert world_probability(plus, {"t2", "t3", "t6"}) == Fraction(11, 20)
    assert world_probability(plus, {"t2", "t6"}) == 0
    assert sum(m for _, m in enumerate_worlds(plus)) == 1
    assert validate(plus) == []


def test_force_out_masses():
    minus = intervene(four_worlds_space(), Intervention.do_out("t3"))
    assert world_probability(minus, {"t1", "t4", "t6"}) == Fraction(1, 5)
    assert world_probability(minus, {"t1", "t2"}) == Fraction(1, 4)
    assert world_probability(minus, {"t2", "t6"}) == Fraction(11, 20)
    assert sum(m for _, m in enumerate_worlds(minus)) == 1
    assert validate(minus) == []


def test_direction_constraints_over_enumeration():
    space = four_worlds_space()
    plus = intervene(space, Intervention.do_in({"t3", "t5"}))
    for world, _ in enumerate_worlds(plus):
        assert {"t3", "t5"} <= world
    minus = intervene(space, Intervention.do_out({"t3", "t5"}))
    for world, _ in enumerate_worlds(minus):
        assert not ({"t3", "t5"} & world)


def test_forcing_in_a_sure_tuple_changes_nothing():
    from causalpdb import PDBSpace, Probability

    inst = paths_full_instance()
    base = make_uniform_tid(inst)
    marginals = dict(base.representation.marginals)
    marginals["t7"] = Probability(1)
    space = PDBSpace(inst, TupleIndependent(marginals))
    forced = intervene(space, Intervention.do_in("t7"))
    assert forced.support() == space.support()


# ---------------------------------------------------------------------------
# Independent spaces
# ---------------------------------------------------------------------------

def test_tid_marginals_move_only_targets():
    inst = paths_full_instance()
    space = make_uniform_tid(inst)
    forced = intervene(space, Intervention(ins={"t7"}, outs={"t9"}))
    assert isinstance(forced.representation, TupleIndependent)
    assert tuple_probability(forced, "t7") == 1
    assert tuple_probability(forced, "t9") == 0
    for tid in inst.tids - {"t7", "t9"}:
        assert tuple_probability(forced, tid) == tuple_probability(space, tid)


def test_idempotence_and_joint_equals_sequential():
    rng = random.Random(77)
    for _ in range(10):
        inst = random_instance(rng, max_endogenous=5)
        for space in (random_tid_space(rng, inst), random_explicit_space(rng, inst)):
            endo = sorted(inst.endogenous)
            targets = frozenset(rng.sample(endo, k=min(2, len(endo))))
            once = intervene(space, Intervention.do_in(targets))
            twice = intervene(once, Intervention.do_in(targets))
            assert once.support() == twice.support()
            joint = once
            sequential = space
            for tid in sorted(targets):
                sequential = intervene(sequential, Intervention.do_in({tid}))
            assert joint.support() == sequential.support()


def test_tid_and_its_explicit_expansion_intervene_alike():
    from causalpdb import ExplicitWorlds, PDBSpace

    rng = random.Random(4096)
    for _ in range(8):
        inst = random_instance(rng, max_endogenous=5)
        tid_space = random_tid_space(rng, inst)
        explicit = PDBSpace(
            inst, ExplicitWorlds(list(enumerate_worlds(tid_space)))
        )
        endo = sorted(inst.endogenous)
        iv = Intervention(
            ins=frozenset(endo[:1]), outs=frozenset(endo[1:2])
        )
        assert intervene(tid_space, iv).support() == intervene(explicit, iv).support()


def test_intervened_space_always_validates():
    rng = random.Random(1234)
    for _ in range(10):
        inst = random_instance(rng, max_endogenous=5)
        space = random_explicit_space(rng, inst)
        tid = sorted(inst.endogenous)[0]
        for iv in (Intervention.do_in(tid), Intervention.do_out(tid)):
            assert validate(intervene(space, iv)) == []


# ---------------------------------------------------------------------------
# Intervened query values
# ---------------------------------------------------------------------------

def test_path_query_intervened_probabilities():
    space = four_worlds_space()
    q = path_query(space.instance.schema)
    assert intervened_query_value(space, q, Intervention.do_in("t3"), 1) == 1
    assert intervened_query_value(space, q, Intervention.do_out("t3"), 1) == \
        Fraction(9, 20)


def test_ground_atom_query_captures_the_intuition():
    space = four_worlds_space()
    q = parse_query("Q() :- E(c,b)", space.instance.schema)  # tuple t3's fact
    assert intervened_query_value(space, q, Intervention.do_in("t3"), 1) == 1
    assert intervened_query_value(space, q, Intervention.do_out("t3"), 1) == 0


def test_direct_sum_equals_materialized_evaluation():
    rng = random.Random(2024)
    for _ in range(15):
        inst = random_instance(rng, max_endogenous=5)
        space = (
            random_explicit_space(rng, inst)
            if rng.random() < 0.5
            else random_tid_space(rng, inst)
        )
        q = random_boolean_query(rng)
        endo = sorted(inst.endogenous)
        targets = frozenset(rng.sample(endo, k=min(2, len(endo))))
        for iv in (Intervention.do_in(targets), Intervention.do_out(targets)):
            direct = intervened_query_value(space, q, iv, 1)
            materialized = sum(
                (
                    mass
                    for world, mass in enumerate_worlds(intervene(space, iv))
                    if evaluate(q, inst, world)
                ),
                Fraction(0),
            )
            assert direct == materialized


def test_boolean_value_must_be_zero_or_one():
    space = four_worlds_space()
    q = path_query(space.instance.schema)
    with pytest.raises(InputError, match="0 or 1"):
        intervened_query_value(space, q, Intervention.do_in("t3"), 2)


def test_aggregate_intervened_point_probability():
    inst = paths_full_instance()
    space = make_uniform_tid(inst)
    q = parse_query("Q(sum(Y)) :- S(X,Y)", inst.schema)
    # with t7 forced in, the sum hits 17 exactly when the four tuples with
    # nonzero values are all present; the zero-valued tuple is free
    hit = intervened_query_value(space, q, Intervention.do_in("t7"), Fraction(17))
    assert hit == Fraction(1, 16)


# ---------------------------------------------------------------------------
# Intervened expectations
# ---------------------------------------------------------------------------

def test_aggregate_expectation_gap_is_tuple_value():
    inst = paths_full_instance()
    space = make_uniform_tid(inst)
    q = parse_query("Q(sum(Y)) :- S(X,Y)", inst.schema)
    e_in = intervened_expectation(space, q, Intervention.do_in("t7"))
    e_out = intervened_expectation(space, q, Intervention.do_out("t7"))
    assert e_in == 9
    assert e_in - e_out == 1


def test_single_tuple_relation_forced_out():
    from causalpdb import InstanceStore, RelationSchema, TupleRecord

    schema = {"S": RelationSchema("S", 2, ("symbolic", "numeric"))}
    inst = InstanceStore(
        schema, [TupleRecord("t1", "S", ("a", 10), "endogenous")]
    )
    q = parse_query("Q(sum(Y)) :- S(X,Y)", schema)
    space = make_uniform_tid(inst)
    assert intervened_expectation(space, q, Intervention.do_out("t1")) == 0
