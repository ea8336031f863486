"""Property tests for the two text parsers: whatever the input, the query
parser and the document parser either succeed or raise `InputError`; and
the probability parser, memo included, answers as `_parse_fraction` plus
the [0, 1] rule does."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from causalpdb import InputError, Probability, RelationSchema, parse_pdb_document, parse_query
from causalpdb.core import _number_text, _parse_fraction

# Every character the query grammar knows, in the pieces it reads them as.
QUERY_PIECES = [
    "Q", "R", "S", "X", "Y", "a", "b", "_", "sum", "count", "(", ")", ",", ".",
    ":-", ":", "-", ";", "#", '"', "\n", " ", "0", "1", "1.5", "-2",
]
QUERY_SCHEMAS = [None, {"R": RelationSchema("R", 1), "S": RelationSchema("S", 2)}]

LONG_NUMBER = "1" * 5000  # past the 4300-digit int conversion limit


@settings(max_examples=150, deadline=None)
@given(
    text=st.lists(st.sampled_from(QUERY_PIECES), max_size=30).map("".join),
    schema=st.sampled_from(QUERY_SCHEMAS),
)
@example(text="Q() :- R(a), S(a,X)", schema=QUERY_SCHEMAS[1])
@example(text=f"Q() :- R({LONG_NUMBER})", schema=None)
@example(text="Q() :- R(1e-3)", schema=None)
def test_parse_query_raises_only_input_errors(text, schema):
    try:
        parse_query(text, schema)
    except InputError:
        pass


# The containers are what the wire form asks for; each leaf is either a
# plausible value or a wrong-typed one (a list, dict, bool, float, int,
# null or stray string).
simple = st.integers() | st.text(max_size=2)
wrong = st.one_of(
    st.lists(simple, max_size=2), st.dictionaries(st.text(max_size=2), simple, max_size=2),
    st.booleans(), st.floats(), st.none(), simple,
)


def either(good):
    return st.one_of(good, wrong)


tids = either(st.sampled_from(["t1", "t2"]))
probabilities = either(st.sampled_from(["1/2", "0.25", "1", "0", "3/2", "x", "1e-3"]))
constants = either(st.sampled_from(["a", "b", "2", "0.5", "2E5"]))
declarations = either(
    st.integers(0, 2) | st.lists(either(st.sampled_from(["symbolic", "numeric"])), max_size=2)
)
tuple_entries = st.fixed_dictionaries({
    "tid": tids,
    "predicate": either(st.sampled_from(["R", "S"])),
    "args": either(st.lists(constants, max_size=2)),
    "kind": either(st.sampled_from(["endogenous", "exogenous"])),
})
world_entries = st.fixed_dictionaries({
    "tids": either(st.lists(tids, max_size=2)), "p": probabilities,
})
documents = st.fixed_dictionaries(
    {
        "schema": st.dictionaries(st.sampled_from(["R", "S"]), declarations, max_size=2),
        "tuples": st.lists(tuple_entries, max_size=3),
    },
    optional={
        "worlds": st.lists(world_entries, max_size=2),
        "marginals": st.dictionaries(
            st.sampled_from(["t1", "t2"]) | st.text(max_size=2), probabilities, max_size=2
        ),
    },
)


def _one_tuple(predicate="R", arg="a", marginal="1/2", tag=None):
    return {
        "schema": {"R": 1 if tag is None else [tag]},
        "tuples": [{"tid": "t1", "predicate": predicate, "args": [arg],
                    "kind": "endogenous"}],
        "marginals": {"t1": marginal},
    }


@settings(max_examples=60, deadline=None)
@given(doc=documents)
@example(doc=_one_tuple(predicate=["R"]))
@example(doc=_one_tuple(arg=(10 ** 5000 - 1) // 9))  # LONG_NUMBER as an int
@example(doc={"schema": {"R": ["symbolic"]}, "tuples": [
    {"tid": "t1", "predicate": "R", "args": [(10 ** 5000 - 1) // 9], "kind": "endogenous"},
]})
@example(doc=_one_tuple(marginal="1e-3"))
@example(doc=_one_tuple(marginal="2E5"))
@example(doc=_one_tuple(marginal="1e-3000000"))
@example(doc=_one_tuple(marginal="1" * 3000 + "." + "1" * 3000))  # > 1, past printing
@example(doc=_one_tuple(arg="1e-3000000", tag="numeric"))
@example(doc={"schema": {"R": 1}, "tuples": [], "worlds": [{"tids": 5, "p": "1"}]})
def test_parse_pdb_document_raises_only_input_errors(doc):
    try:
        parse_pdb_document(doc)
    except InputError:
        pass


def _general_route(text: str) -> Probability:
    """A probability by definition: `_parse_fraction`, then the [0, 1] rule,
    with `from_wire`'s messages."""
    try:
        value = _parse_fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"cannot parse probability {text!r}: {exc}") from exc
    if not 0 <= value <= 1:
        raise InputError(f"probability {_number_text(value)!r} outside [0, 1]")
    return Probability(value)


def _outcome(parse, text):
    """(type, value) of a parse, or (exception type, message)."""
    try:
        value = parse(text)
    except Exception as exc:  # the type is compared, so none is forgiven
        return type(exc), str(exc)
    return type(value), value


def _assert_same_as_general_route(text):
    assert _outcome(Probability.from_wire, text) == _outcome(_general_route, text)


LONG = "1" * 4301  # one digit past the int conversion limit
WIRE_PROBABILITIES = [
    "1/2", "0.25", "1", "0", "1.0", "0/7", "6/4", "2/1", "1/0", "0/0", " 1/2 ", "+1/2",
    "-0", "-1/2", "1_0/20", "0.2_5", "\u0661/\u0662", "\uff11/2", "\u00b2", ".5", "5.", "00.5",
    ".", "", "/", "1/", "/2", "1//2", "1/2/3", "1.2.3", "1e-3", "1E5", "0x1",
    "1 /2", "1/ 2", "\t1/2", "1/2\n", "nan", "inf",
    f"{LONG}/{LONG}2", f"1/{LONG}", f"{LONG}/1", f"0.{LONG}", f"{LONG}.0",
    f"0.{'0' * 4299}1", f"{'0' * 3000}.{'1' * 3000}", f"{'1' * 3000}.{'1' * 3000}",
]


@pytest.mark.parametrize("text", WIRE_PROBABILITIES)
def test_probability_fast_path_matches_the_general_route_on_listed_strings(text):
    _assert_same_as_general_route(text)


@settings(max_examples=300, deadline=None)
@given(text=st.from_regex(r"[0-9]{0,8}(/[0-9]{0,8}|\.?[0-9]{0,8})", fullmatch=True)
       | st.text(alphabet="0123456789./ +-_eEx\t\u0661\u0662", max_size=10))
def test_probability_fast_path_matches_the_general_route(text):
    _assert_same_as_general_route(text)


#: A plain decimal that parses with no digit limit and not under 4300.
DIGITS_5000 = "0." + "3" * 5000
MEMO_CORPUS = WIRE_PROBABILITIES + [
    "1/3", "0.30", "1/3", "2/3", "0.125", "00.5", "1.5", "7/6", "1e-3", DIGITS_5000,
]


def test_probability_memo_matches_the_unmemoized_route():
    # The reference parse of each text, under each digit limit, starts
    # from an empty memo; then one memo sees the whole corpus twice under
    # limits 0, 4300 and 0 again, and must answer as the reference does:
    # a value kept under one limit is not served under another, and an
    # error is raised on every call.
    import sys

    from causalpdb import clear_kept, core

    limits = (0, 4300, 0)
    saved = sys.get_int_max_str_digits()
    try:
        expected = {}
        for limit in set(limits):
            sys.set_int_max_str_digits(limit)
            for text in MEMO_CORPUS:
                clear_kept()
                expected[limit, text] = _outcome(Probability.from_wire, text)
        assert expected[0, DIGITS_5000][0] is Probability
        assert expected[4300, DIGITS_5000][0] is InputError
        clear_kept()
        for limit in limits:
            sys.set_int_max_str_digits(limit)
            for text in MEMO_CORPUS * 2:
                assert _outcome(Probability.from_wire, text) == expected[limit, text], text[:40]
    finally:
        sys.set_int_max_str_digits(saved)
    info = core._probability_text.cache_info()
    assert info.hits and info.currsize <= info.maxsize < 1000
