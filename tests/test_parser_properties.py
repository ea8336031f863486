"""Property tests for the two text parsers: whatever the input, the query
parser and the document parser either succeed or raise `InputError`."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from causalpdb import InputError, RelationSchema, parse_pdb_document, parse_query

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
@example(doc=_one_tuple(arg="1e-3000000", tag="numeric"))
@example(doc={"schema": {"R": 1}, "tuples": [], "worlds": [{"tids": 5, "p": "1"}]})
def test_parse_pdb_document_raises_only_input_errors(doc):
    try:
        parse_pdb_document(doc)
    except InputError:
        pass
