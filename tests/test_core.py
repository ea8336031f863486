"""Instance, probability, and world-enumeration behavior."""

import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalpdb import (
    ExplicitWorlds,
    InputError,
    InstanceStore,
    Intervention,
    PDBSpace,
    Probability,
    RelationSchema,
    ResourceLimitError,
    TupleIndependent,
    TupleRecord,
    enumerate_worlds,
    intervene,
    load_pdb_file,
    make_uniform_tid,
    parse_pdb_document,
    query_probability,
    space_to_document,
    tuple_probability,
    validate,
    world_probability,
)
from causalpdb.core import (
    NUMERIC,
    InvalidSpaceError,
    _ratio_sum,
    fraction_to_decimal,
    fraction_to_wire,
    parse_constant,
)

from helpers import FIXTURES, all_worlds_with_mass, four_worlds_space, path_query


def small_instance(n=3, kinds=None):
    kinds = kinds or ["endogenous"] * n
    schema = {"P": RelationSchema("P", 1)}
    recs = [TupleRecord(f"t{i+1}", "P", (f"c{i+1}",), kinds[i]) for i in range(n)]
    return InstanceStore(schema, recs)


# ---------------------------------------------------------------------------
# Probability values
# ---------------------------------------------------------------------------

def test_probability_parses_decimal_strings():
    assert Probability.from_wire("0.25") == Fraction(1, 4)
    assert Probability.from_wire("1") == 1
    assert Probability.from_wire("0.125") == Fraction(1, 8)


def test_probability_parses_rational_strings():
    assert Probability.from_wire("1/12") == Fraction(1, 12)
    assert Probability.from_wire("5/6") == Fraction(5, 6)


@pytest.mark.parametrize("bad", ["1.5", "-0.1", "7/6", "abc", "", "1/0"])
def test_probability_rejects_bad_strings(bad):
    with pytest.raises(InputError):
        Probability.from_wire(bad)


@pytest.mark.parametrize("text", ["1e-3", "2E5", "1e-3000000"])
def test_exponent_notation_is_refused(text):
    with pytest.raises(InputError, match="exponent notation"):
        Probability.from_wire(text)
    with pytest.raises(InputError, match="numeric position"):
        parse_constant(text, NUMERIC)


def test_probability_rejects_floats():
    with pytest.raises(InputError):
        Probability(0.25)
    with pytest.raises(InputError):
        Probability.from_wire(0.25)


def test_probability_arithmetic_degrades_to_fraction():
    result = Probability(1, 4) + Probability(1, 4)
    assert result == Fraction(1, 2)
    assert not isinstance(Probability(1, 4) - Probability(1, 2), Probability)


def test_independent_marginals_are_checked_once():
    # A Probability is kept as it is, in a parsed document, a uniform space
    # and an intervention alike; anything else is coerced and range-checked.
    doc = parse_pdb_document({
        "schema": {"R": 1},
        "tuples": [
            {"tid": "t1", "predicate": "R", "args": ["a"], "kind": "endogenous"},
            {"tid": "t2", "predicate": "R", "args": ["b"], "kind": "endogenous"},
        ],
        "marginals": {"t1": "1/3", "t2": "0.25"},
    })
    marginals = doc.space.representation.marginals
    assert all(type(p) is Probability for p in marginals.values())
    kept = TupleIndependent(marginals).marginals
    assert all(kept[t] is marginals[t] for t in marginals)
    pushed = intervene(doc.space, Intervention.do_in("t1")).representation.marginals
    assert pushed["t2"] is marginals["t2"]
    uniform = make_uniform_tid(doc.instance).representation.marginals
    assert uniform["t1"] is uniform["t2"]
    coerced = TupleIndependent({"t1": Fraction(1, 3), "t2": 1, "t3": "2/5"}).marginals
    assert all(type(p) is Probability for p in coerced.values())
    assert coerced == {"t1": Fraction(1, 3), "t2": 1, "t3": Fraction(2, 5)}
    with pytest.raises(InputError, match=r"^probabilities must be exact .*not float$"):
        TupleIndependent({"t1": 0.25})
    with pytest.raises(InputError, match=r"^probability '3/2' outside \[0, 1\]$"):
        TupleIndependent({"t1": Fraction(3, 2)})


def _ratio_pairs(rng: random.Random, count: int) -> list[tuple[int, int]]:
    """Pairs with negative and zero numerators over denominators that
    mostly do not divide each other, some past 50 digits."""
    dens = [1, 2, 3, 4, 6, 7, 9, 10, 12, 35, 10**50 + 151, 2 * (10**50 + 151)]
    return [(rng.randint(-20, 20), rng.choice(dens)) for _ in range(count)]


def test_ratio_sum_equals_a_fraction_sum():
    rng = random.Random(3)
    assert _ratio_sum([]) == 0 and type(_ratio_sum([])) is Fraction
    cases = [[(0, 7)], [(-3, 4), (3, 4)], [(1, 6), (1, 4)], [(5, 9), (-1, 6), (0, 35)]]
    cases += [_ratio_pairs(rng, rng.randint(1, 30)) for _ in range(200)]
    for pairs in cases:
        got = _ratio_sum(iter(pairs))
        assert type(got) is Fraction
        assert got == sum((Fraction(n, d) for n, d in pairs), Fraction(0)), pairs
        assert math.gcd(got.numerator, got.denominator) == 1


@given(st.fractions(min_value=0, max_value=1))
def test_wire_round_trip(value):
    assert Probability.from_wire(fraction_to_wire(value)) == value


def test_decimal_rendering():
    assert fraction_to_decimal(Fraction(21, 32)) == "0.656250"
    assert fraction_to_decimal(Fraction(1, 3)) == "0.333333"
    assert fraction_to_decimal(Fraction(-1, 2)) == "-0.500000"
    assert fraction_to_decimal(Fraction(2, 3)) == "0.666667"


# ---------------------------------------------------------------------------
# Instances
# ---------------------------------------------------------------------------

def test_duplicate_tid_rejected():
    schema = {"P": RelationSchema("P", 1)}
    recs = [
        TupleRecord("t1", "P", ("a",), "endogenous"),
        TupleRecord("t1", "P", ("b",), "endogenous"),
    ]
    with pytest.raises(InputError, match="duplicate"):
        InstanceStore(schema, recs)


def test_arity_mismatch_rejected():
    schema = {"P": RelationSchema("P", 2)}
    with pytest.raises(InputError, match="expects 2"):
        InstanceStore(schema, [TupleRecord("t1", "P", ("a",), "endogenous")])


def test_undeclared_relation_rejected():
    with pytest.raises(InputError, match="undeclared"):
        InstanceStore({}, [TupleRecord("t1", "P", ("a",), "endogenous")])


def test_numeric_tag_enforced():
    schema = {"S": RelationSchema("S", 2, ("symbolic", "numeric"))}
    inst = InstanceStore(schema, [TupleRecord("t1", "S", ("a", 3), "endogenous")])
    assert inst.record("t1").args == ("a", Fraction(3))
    with pytest.raises(InputError, match="numeric"):
        InstanceStore(schema, [TupleRecord("t1", "S", ("a", "oops"), "endogenous")])


def test_partition_and_adom():
    inst = small_instance(3, ["endogenous", "exogenous", "endogenous"])
    assert inst.endogenous == {"t1", "t3"}
    assert inst.exogenous == {"t2"}
    assert inst.adom() == {"c1", "c2", "c3"}


def test_bad_kind_rejected():
    with pytest.raises(InputError, match="kind"):
        TupleRecord("t1", "P", ("a",), "internal")


# ---------------------------------------------------------------------------
# Validation diagnostics
# ---------------------------------------------------------------------------

def test_four_worlds_space_is_valid():
    assert validate(four_worlds_space()) == []


def test_total_mass_violation():
    inst = small_instance(2)
    space = PDBSpace(
        inst,
        ExplicitWorlds([({"t1"}, Fraction(1, 2)), ({"t2"}, Fraction(2, 5))]),
    )
    codes = [v.code for v in validate(space)]
    assert codes == ["mass-total"]


def test_exogenous_missing_violation():
    inst = small_instance(2, ["endogenous", "exogenous"])
    space = PDBSpace(inst, ExplicitWorlds([({"t1"}, Fraction(1))]))
    codes = [v.code for v in validate(space)]
    assert "exogenous-missing" in codes


def test_zero_mass_world_may_omit_exogenous():
    inst = small_instance(2, ["endogenous", "exogenous"])
    space = PDBSpace(
        inst,
        ExplicitWorlds([({"t1", "t2"}, Fraction(1)), ({"t1"}, Fraction(0))]),
    )
    assert validate(space) == []


def test_tid_validation():
    inst = small_instance(2, ["endogenous", "exogenous"])
    space = PDBSpace(inst, TupleIndependent({"t1": Probability(1, 2)}))
    codes = sorted(v.code for v in validate(space))
    assert codes == ["missing-marginal"]
    space = PDBSpace(
        inst,
        TupleIndependent({"t1": Probability(1, 2), "t2": Probability(1, 2)}),
    )
    assert [v.code for v in validate(space)] == ["exogenous-marginal"]


def test_duplicate_world_entries_merge():
    inst = small_instance(1)
    space = PDBSpace(
        inst,
        ExplicitWorlds([({"t1"}, Fraction(1, 2)), ({"t1"}, Fraction(1, 2))]),
    )
    assert validate(space) == []
    assert world_probability(space, {"t1"}) == 1


def test_world_masses_are_checked_like_marginals():
    with pytest.raises(InputError, match=r"^probabilities must be exact .*not float$"):
        ExplicitWorlds([({"t1"}, 0.1), ({"t2"}, Fraction(9, 10))])
    with pytest.raises(InputError, match=r"^probability '3/2' outside \[0, 1\]$"):
        ExplicitWorlds([({"t1"}, Fraction(3, 2)), ({"t2"}, Fraction(-1, 2))])
    with pytest.raises(InputError, match=r"^probability '-1/2' outside \[0, 1\]$"):
        ExplicitWorlds([({"t2"}, Fraction(-1, 2)), ({"t1"}, Fraction(3, 2))])
    merged = ExplicitWorlds([({"t1"}, "1/4"), ({"t1"}, Probability(3, 4)), ((), 0)])
    assert dict(merged.masses) == {frozenset({"t1"}): 1, frozenset(): 0}


def test_space_and_tables_are_read_only():
    space = four_worlds_space()
    with pytest.raises(AttributeError):
        space.representation = TupleIndependent({})
    with pytest.raises(AttributeError):
        space.instance = small_instance(1)
    with pytest.raises(TypeError):
        space.representation.masses[frozenset({"t1"})] = Fraction(1)
    uniform = make_uniform_tid(space.instance)
    with pytest.raises(TypeError):
        uniform.representation.marginals["t1"] = 5
    with pytest.raises(AttributeError):
        space.representation.masses = {frozenset({"t1", "t2", "t3"}): Fraction(1, 2)}
    with pytest.raises(AttributeError):
        uniform.representation.marginals = {"t1": Fraction(1)}
    assert validate(space) == validate(uniform) == []
    assert query_probability(space, path_query(), "brute") == Fraction(3, 5)


def test_instance_is_read_only():
    inst = small_instance(1)
    space = PDBSpace(inst, TupleIndependent({"t1": Fraction(1, 2)}))
    space.representation  # the space's verdict is taken here, once
    for name, value in (
        ("endogenous", frozenset()),
        ("exogenous", frozenset({"t1"})),
        ("endogenous_order", ()),
        ("tids", frozenset()),
        ("schema", {}),
    ):
        with pytest.raises(AttributeError):
            setattr(inst, name, value)
    with pytest.raises(TypeError):
        inst.schema["R"] = RelationSchema("R", 3)
    for name in ("records_by_predicate", "records_by_argument"):
        with pytest.raises(AttributeError):
            setattr(inst, name, {})
    assert (inst.endogenous, inst.exogenous) == (frozenset({"t1"}), frozenset())
    assert dict(inst.records_by_predicate) == {"P": (inst.record("t1"),)}
    assert dict(inst.records_by_argument) == {("P", 0, "c1"): (inst.record("t1"),)}
    assert dict(inst.schema) == {"P": RelationSchema("P", 1)}
    assert validate(space) == []
    assert [world for world, _ in enumerate_worlds(space)] == [frozenset(), frozenset({"t1"})]


def test_validate_reports_every_violation_and_the_space_refuses_reads(monkeypatch):
    from helpers import count_validations

    calls = count_validations(monkeypatch)
    space = PDBSpace(small_instance(2, ["endogenous", "exogenous"]), ExplicitWorlds(
        [({"t1"}, Fraction(1, 2)), ({"t2", "t9"}, Fraction(1, 4))]
    ))
    assert [v.code for v in validate(space)] == [
        "mass-total", "exogenous-missing", "unknown-tid",
    ]
    message = (
        "invalid space: [mass-total] world masses sum to 3/4, not 1; "
        "[exogenous-missing] world ['t1'] has mass 1/2 > 0 but omits exogenous "
        "tuples ['t2']; [unknown-tid] world ['t2', 't9'] contains unknown tuple "
        "ids ['t9']"
    )
    for _ in range(2):
        with pytest.raises(InvalidSpaceError) as raised:
            space.representation
        assert str(raised.value) == message
    assert space.is_tid is False
    assert calls == [space]  # the space's own verdict, however often it is read


def test_a_space_is_validated_once_however_many_readers_read_it(monkeypatch):
    from causalpdb import query_probability

    from helpers import count_validations, path_query

    calls = count_validations(monkeypatch)
    space = four_worlds_space()
    world_probability(space, {"t1"})
    tuple_probability(space, "t1")
    list(enumerate_worlds(space))
    query_probability(space, path_query(space.instance.schema))
    space_to_document(space)
    assert calls == [space]


def test_readers_that_never_checked_refuse_invalid_spaces():
    from causalpdb import Intervention, parse_query, verify_product_formula

    half = PDBSpace(small_instance(2), ExplicitWorlds([({"t1"}, Fraction(1, 2))]))
    with pytest.raises(InvalidSpaceError, match=r"\[mass-total\] .* sum to 1/2"):
        intervene(half, Intervention.do_in("t2"))
    with pytest.raises(InvalidSpaceError, match=r"\[mass-total\] .* sum to 1/2"):
        space_to_document(half)
    schema = {"R": RelationSchema("R", 1), "S": RelationSchema("S", 2)}
    inst = InstanceStore(schema, [
        TupleRecord("r", "R", ("a",), "exogenous"),
        TupleRecord("s", "S", ("a", "b"), "endogenous"),
    ])
    unsure = PDBSpace(inst, TupleIndependent({"r": Fraction(1, 2), "s": Fraction(1, 2)}))
    q = parse_query("Q() :- R(X), S(X,Y)", schema)
    with pytest.raises(InvalidSpaceError, match=r"\[exogenous-marginal\] .*'r'"):
        verify_product_formula(unsure, q)


def _four_worlds_with_first_mass(p):
    doc = json.loads((FIXTURES / "four_worlds_pdb.json").read_text())
    doc["worlds"][0]["p"] = p
    return parse_pdb_document(doc).space


def test_library_entry_points_refuse_invalid_spaces():
    from causalpdb import query_probability, weighted_power

    from helpers import path_query

    light = _four_worlds_with_first_mass("0.10")  # masses sum to 9/10
    heavy = _four_worlds_with_first_mass("1.0")  # masses sum to 9/5
    q = path_query(light.instance.schema)
    with pytest.raises(InvalidSpaceError, match=r"\[mass-total\] .* sum to 9/10"):
        query_probability(light, q, "brute")
    with pytest.raises(InvalidSpaceError, match=r"\[mass-total\] .* sum to 9/5"):
        weighted_power(heavy, q, "t3")
    inst = small_instance(2, ["endogenous", "exogenous"])
    omits = PDBSpace(inst, ExplicitWorlds([({"t1"}, Fraction(1))]))
    with pytest.raises(InvalidSpaceError, match=r"\[exogenous-missing\]"):
        list(enumerate_worlds(omits))


def test_lifted_backend_refuses_invalid_spaces():
    from causalpdb import causal_effect, parse_query, query_probability

    schema = {"R": RelationSchema("R", 1), "S": RelationSchema("S", 2)}
    inst = InstanceStore(schema, [
        TupleRecord("r", "R", ("a",), "exogenous"),
        TupleRecord("s", "S", ("a", "b"), "endogenous"),
    ])
    half = Fraction(1, 2)
    space = PDBSpace(inst, TupleIndependent({"r": half, "s": half}))
    q = parse_query("Q() :- R(X), S(X,Y)", schema)
    with pytest.raises(InvalidSpaceError, match=r"\[exogenous-marginal\] .*'r'"):
        query_probability(space, q, "lifted")
    with pytest.raises(InvalidSpaceError, match=r"\[exogenous-marginal\] .*'r'"):
        causal_effect(space, q, "s")


def test_closed_form_sum_refuses_invalid_spaces():
    from causalpdb import causal_effect, gces_oracle, parse_query

    schema = {"S": RelationSchema("S", 2)}
    inst = InstanceStore(schema, [
        TupleRecord("t1", "S", ("a", 3), "endogenous"),
        TupleRecord("t2", "S", ("a", 3), "exogenous"),
    ])
    half = Fraction(1, 2)
    space = PDBSpace(inst, TupleIndependent({"t1": half, "t2": half}))
    q = parse_query("Q(sum(Y)) :- S(X,Y)", schema)
    with pytest.raises(InvalidSpaceError, match=r"\[exogenous-marginal\] .*'t2'"):
        gces_oracle(space, q, "t1")
    with pytest.raises(InvalidSpaceError, match=r"\[exogenous-marginal\] .*'t2'"):
        causal_effect(space, q, "t1")


# ---------------------------------------------------------------------------
# World and tuple probabilities
# ---------------------------------------------------------------------------

def test_world_probability_explicit():
    space = four_worlds_space()
    assert world_probability(space, {"t2", "t6"}) == Fraction(2, 5)
    assert world_probability(space, {"t1"}) == 0
    with pytest.raises(InputError):
        world_probability(space, {"nope"})


def test_world_probability_tid_product():
    inst = paths6()
    space = PDBSpace(inst, TupleIndependent({
        "t1": Probability.from_wire("0.9"), "t2": Probability.from_wire("0.3"),
        "t3": Probability.from_wire("0.8"), "t4": Probability.from_wire("0.5"),
        "t5": Probability.from_wire("0.9"), "t6": Probability.from_wire("0.2"),
    }))
    assert world_probability(space, {"t1", "t4", "t5"}) == Fraction(567, 12500)


def paths6():
    schema = {"E": RelationSchema("E", 2)}
    pairs = [("a", "b"), ("a", "c"), ("c", "b"), ("a", "d"), ("d", "e"), ("e", "b")]
    recs = [
        TupleRecord(f"t{i+1}", "E", pair, "endogenous")
        for i, pair in enumerate(pairs)
    ]
    return InstanceStore(schema, recs)


def test_sure_tuple_absent_means_zero():
    inst = small_instance(1)
    space = PDBSpace(inst, TupleIndependent({"t1": Probability(1)}))
    assert world_probability(space, set()) == 0


def test_tuple_probability_four_worlds():
    space = four_worlds_space()
    assert tuple_probability(space, "t1") == Fraction(9, 20)
    assert tuple_probability(space, "t5") == 0
    with pytest.raises(InputError):
        tuple_probability(space, "t99")


def test_world_and_tuple_probability_refuse_invalid_spaces():
    inst = small_instance(2, ["endogenous", "exogenous"])
    unsure = PDBSpace(
        inst, TupleIndependent({"t1": Probability(1, 2), "t2": Probability(1, 2)})
    )
    with pytest.raises(InvalidSpaceError, match=r"\[exogenous-marginal\] .*'t2'"):
        world_probability(unsure, {"t1"})
    with pytest.raises(InvalidSpaceError, match=r"\[exogenous-marginal\] .*'t2'"):
        tuple_probability(unsure, "t2")
    heavy = PDBSpace(small_instance(2), ExplicitWorlds([
        ({"t2"}, Fraction(1)), ({"t1", "t2"}, Fraction(1, 2)),
    ]))
    with pytest.raises(InvalidSpaceError, match=r"\[mass-total\] .* sum to 3/2"):
        world_probability(heavy, {"t2"})
    with pytest.raises(InvalidSpaceError, match=r"\[mass-total\] .* sum to 3/2"):
        tuple_probability(heavy, "t2")


def test_exogenous_tuple_probability_is_one():
    inst = small_instance(2, ["endogenous", "exogenous"])
    space = PDBSpace(
        inst,
        ExplicitWorlds([({"t1", "t2"}, Fraction(1, 3)), ({"t2"}, Fraction(2, 3))]),
    )
    assert tuple_probability(space, "t2") == 1


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------

def test_enumerate_four_worlds():
    worlds = list(enumerate_worlds(four_worlds_space()))
    assert len(worlds) == 4
    assert sum(m for _, m in worlds) == 1


def test_uniform_cube():
    space = make_uniform_tid(small_instance(3))
    worlds = list(enumerate_worlds(space))
    assert len(worlds) == 8
    assert all(m == Fraction(1, 8) for _, m in worlds)


def test_zero_marginal_tuple_never_appears():
    inst = small_instance(2)
    space = PDBSpace(
        inst,
        TupleIndependent({"t1": Probability(0), "t2": Probability(1, 2)}),
    )
    worlds = list(enumerate_worlds(space))
    assert all("t1" not in w for w, _ in worlds)
    assert sum(m for _, m in worlds) == 1


def test_exogenous_only_instance_single_world():
    inst = small_instance(2, ["exogenous", "exogenous"])
    worlds = list(enumerate_worlds(make_uniform_tid(inst)))
    assert worlds == [(frozenset({"t1", "t2"}), Fraction(1))]


def test_uniform_tid_marginals_respect_the_partition():
    from helpers import power_p_space

    inst = power_p_space().instance  # t1 exogenous, t2..t4 endogenous
    uniform = make_uniform_tid(inst)
    marginals = uniform.representation.marginals
    assert marginals["t1"] == 1
    assert all(marginals[t] == Fraction(1, 2) for t in ("t2", "t3", "t4"))


def test_canonical_order_is_lexicographic():
    inst = small_instance(4, ["endogenous", "exogenous", "endogenous", "endogenous"])
    space = make_uniform_tid(inst)
    keys = [tuple(sorted(w)) for w, _ in enumerate_worlds(space)]
    assert keys == sorted(keys)
    assert len(keys) == 8


def test_enumeration_cap():
    inst = small_instance(6)
    space = make_uniform_tid(inst)
    with pytest.raises(ResourceLimitError, match="cap of 4"):
        list(enumerate_worlds(space, cap=4))
    assert len(list(enumerate_worlds(space, cap=6))) == 64


def test_enumeration_scales_to_mid_sized_spaces():
    space = make_uniform_tid(small_instance(14))
    total = Fraction(0)
    count = 0
    for _, mass in enumerate_worlds(space):
        total += mass
        count += 1
    assert count == 1 << 14
    assert total == 1


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.fractions(min_value=0, max_value=1), min_size=1, max_size=6)
)
def test_tid_enumeration_invariants(marginals):
    inst = small_instance(len(marginals))
    space = PDBSpace(
        inst,
        TupleIndependent(
            {f"t{i+1}": Probability(m) for i, m in enumerate(marginals)}
        ),
    )
    worlds = list(enumerate_worlds(space))
    keys = [tuple(sorted(w)) for w, _ in worlds]
    assert keys == sorted(set(keys))  # canonical order, no repeats
    assert sum(m for _, m in worlds) == 1
    if all(0 < m < 1 for m in marginals):
        assert len(worlds) == 2 ** len(marginals)
    for tid in inst.tids:
        collected = sum((m for w, m in worlds if tid in w), Fraction(0))
        assert collected == tuple_probability(space, tid)
    for world, mass in worlds:
        assert world_probability(space, world) == mass


def _long_denominator_marginal(rng: random.Random) -> Probability:
    while True:
        den = rng.randrange(10**50, 10**51)
        num = rng.randrange(1, den)
        if math.gcd(num, den) == 1:
            return Probability(num, den)


def test_tid_enumeration_matches_the_definition():
    # Marginals 0 and 1, exogenous tuples, coprime denominators and one
    # marginal of at least 50 denominator digits per space.
    pool = [Fraction(0), Fraction(1), Fraction(1, 3), Fraction(2, 7), Fraction(5, 11)]
    rng = random.Random(14)
    open_counts = set()
    for _ in range(60):
        n = rng.randint(1, 7)
        kinds = [
            "exogenous" if rng.random() < 0.2 else "endogenous" for _ in range(n)
        ]
        inst = small_instance(n, kinds)
        marginals = {}
        for tid in sorted(inst.tids):
            if tid in inst.exogenous:
                marginals[tid] = Probability(1)
            else:
                marginals[tid] = Probability(rng.choice(pool))
        endogenous = sorted(inst.endogenous)
        if endogenous:
            marginals[rng.choice(endogenous)] = _long_denominator_marginal(rng)
        space = PDBSpace(inst, TupleIndependent(marginals))
        want = sorted(
            ((w, m) for w, m in all_worlds_with_mass(space) if m),
            key=lambda item: tuple(sorted(item[0])),
        )
        got = list(enumerate_worlds(space))
        assert got == want, marginals
        assert all(type(m) is Fraction for _, m in got)
        assert sum((m for _, m in got), Fraction(0)) == 1
        open_counts.add(sum(1 for p in marginals.values() if 0 < p < 1))
    assert {0, 1, 4} <= open_counts


def test_tid_enumeration_orders_open_tuples_among_sure_ones():
    # Few open tuples among many sure ones, sure tuples sorting before,
    # between and after the open ones, marginal-0 tuples, draws without an
    # open tuple, and the empty string as a tuple id (it sorts first).
    ids = ["", "a", "a0", "b", "c", "d", "e", "f", "g", "z"]
    rng = random.Random(20)
    seen = set()
    for _ in range(120):
        tids = rng.sample(ids, rng.randint(1, len(ids)))
        opened = rng.sample(tids, rng.randint(0, min(3, len(tids))))
        rest = sorted(set(tids) - set(opened))
        zeros = rng.sample(rest, rng.randint(0, min(1, len(rest))))
        records, marginals = [], {}
        for tid in tids:
            sure = tid not in opened and tid not in zeros
            kind = "exogenous" if sure and rng.random() < 0.5 else "endogenous"
            records.append(TupleRecord(tid, "P", (tid,), kind))
            marginals[tid] = Probability(
                rng.choice(["1/2", "2/7"]) if tid in opened else int(sure)
            )
        inst = InstanceStore({"P": RelationSchema("P", 1)}, records)
        space = PDBSpace(inst, TupleIndependent(marginals))
        want = sorted(
            ((w, m) for w, m in all_worlds_with_mass(space) if m),
            key=lambda item: tuple(sorted(item[0])),
        )
        assert list(enumerate_worlds(space)) == want, marginals
        sure = [t for t in tids if marginals[t] == 1]
        if opened:
            seen.update(
                where for where, hit in (
                    ("before", any(t < min(opened) for t in sure)),
                    ("between", any(min(opened) < t < max(opened) for t in sure)),
                    ("after", any(t > max(opened) for t in sure)),
                    ("empty id open", "" in opened),
                ) if hit
            )
        else:
            seen.add("no open")
        if zeros:
            seen.add("zero")
        if "" in sure:
            seen.add("empty id sure")
    assert seen == {
        "before", "between", "after", "no open", "zero", "empty id open", "empty id sure",
    }


def test_world_walk_depth_is_bounded():
    # Thousands of sure tuples cost no depth; 4 open tuples give 16 worlds.
    schema = {"P": RelationSchema("P", 1)}
    sure = [TupleRecord(f"e{i}", "P", (f"e{i}",), "exogenous") for i in range(3000)]
    opened = [TupleRecord(f"r{i}", "P", (f"r{i}",), "endogenous") for i in range(4)]
    space = make_uniform_tid(InstanceStore(schema, sure + opened))
    worlds = list(enumerate_worlds(space))
    keys = [tuple(sorted(w)) for w, _ in worlds]
    assert len(worlds) == 16 and keys == sorted(keys)
    assert sum(m for _, m in worlds) == 1
    # More open tuples than the interpreter can descend are refused up
    # front, whatever the cap, instead of ending in a RecursionError.
    space = make_uniform_tid(small_instance(1200))
    with pytest.raises(ResourceLimitError, match="1200 tuples with open marginals"):
        next(enumerate_worlds(space, cap=5000))
    walk = enumerate_worlds(make_uniform_tid(small_instance(400)), cap=400)
    assert [next(walk)[0] for _ in range(3)] == [
        frozenset(), frozenset({"t1"}), frozenset({"t1", "t10"}),
    ]


# ---------------------------------------------------------------------------
# Wire format
# ---------------------------------------------------------------------------

def test_load_fixture_round_trip():
    doc = load_pdb_file(FIXTURES / "four_worlds_pdb.json")
    assert doc.space is not None
    again = parse_pdb_document(space_to_document(doc.space))
    assert again.space.support() == doc.space.support()


def test_document_without_distribution():
    doc = load_pdb_file(FIXTURES / "paths_instance.json")
    assert doc.space is None
    assert len(doc.instance) == 6


def test_document_with_both_distributions_rejected():
    raw = json.loads((FIXTURES / "four_worlds_pdb.json").read_text())
    raw["marginals"] = {"t1": "0.5"}
    with pytest.raises(InputError, match="not both"):
        parse_pdb_document(raw)


def test_float_probability_rejected():
    raw = json.loads((FIXTURES / "four_worlds_pdb.json").read_text())
    raw["worlds"][0]["p"] = 0.2
    with pytest.raises(InputError):
        parse_pdb_document(raw)


def test_float_constant_rejected():
    raw = {
        "schema": {"S": ["symbolic", "numeric"]},
        "tuples": [
            {"tid": "t1", "predicate": "S", "args": ["a", 0.5], "kind": "endogenous"}
        ],
    }
    with pytest.raises(InputError, match="float"):
        parse_pdb_document(raw)


@pytest.mark.parametrize("name", ["paths_full_instance.json", "paths_instance.json"])
def test_document_arguments_are_parsed_once(name, monkeypatch):
    import causalpdb.core as core

    calls = []

    def counting(value, tag=None):
        calls.append(value)
        return parse_constant(value, tag)

    monkeypatch.setattr(core, "parse_constant", counting)
    raw = json.loads((FIXTURES / name).read_text())
    doc = load_pdb_file(FIXTURES / name)
    assert len(calls) == sum(len(t["args"]) for t in raw["tuples"])
    if name == "paths_full_instance.json":  # S is tagged (symbolic, numeric)
        assert any(type(a) is Fraction for r in doc.instance.records() for a in r.args)


def test_tuple_record_from_python_normalizes_its_arguments():
    rec = TupleRecord("t1", "R", ("a", 3, Probability(1, 2)), "endogenous")
    assert rec.args == ("a", Fraction(3), Fraction(1, 2))
    assert [type(a) for a in rec.args] == [str, Fraction, Fraction]
    for bad in (True, 0.5):
        with pytest.raises(InputError):
            TupleRecord("t1", "R", ("a", bad), "endogenous")
    schema = {"S": RelationSchema("S", 2, ("symbolic", "numeric"))}
    inst = InstanceStore(schema, [TupleRecord("t1", "S", ("a", "7/2"), "endogenous")])
    assert inst.record("t1").args == ("a", Fraction(7, 2))
    with pytest.raises(InputError, match="numeric position"):
        InstanceStore(schema, [TupleRecord("t1", "S", ("a", "b"), "endogenous")])
    with pytest.raises(InputError, match="must be symbolic"):
        InstanceStore(schema, [TupleRecord("t1", "S", (1, 2), "endogenous")])


def test_rational_marginals_parse():
    raw = {
        "schema": {"P": 1},
        "tuples": [
            {"tid": "t1", "predicate": "P", "args": ["a"], "kind": "endogenous"}
        ],
        "marginals": {"t1": "1/3"},
    }
    doc = parse_pdb_document(raw)
    assert tuple_probability(doc.space, "t1") == Fraction(1, 3)
