"""`load_pdb_file` reuses the parse of identical text: it keeps the last
document it parsed.  `load_query_file` keeps the last 8 query parses, each
keyed by the text, the schema and the int digit limit.  Both read the file
on every call; errors are never kept, and `clear_kept` forgets every kept
parse."""

import dataclasses
import gc
import sys
import weakref
from collections import Counter
from fractions import Fraction

import pytest

from causalpdb import (
    InputError, QuerySyntaxError, RelationSchema, ScoreKind, clear_kept, load_pdb_file,
    load_query_file, score_all,
)
from causalpdb import core, queries, scores

from helpers import FIXTURES

LONG_NUMBER = "1" * 5000  # past the 4300-digit int conversion limit


@pytest.fixture(autouse=True)
def fresh_memo():
    clear_kept()
    yield
    clear_kept()


@pytest.fixture
def digit_limit():
    """Restores Python's int digit limit after the test sets it."""
    limit = sys.get_int_max_str_digits()
    yield sys.set_int_max_str_digits
    sys.set_int_max_str_digits(limit)


def _doc_text(marginal="1/2", arg='"a"'):
    return (
        '{"schema": {"R": 1}, "tuples": [{"tid": "t1", "predicate": "R", '
        f'"args": [{arg}], "kind": "endogenous"}}], "marginals": {{"t1": "{marginal}"}}}}'
    )


def test_a_loaded_document_is_read_only():
    doc = load_pdb_file(FIXTURES / "four_worlds_pdb.json")
    space = doc.space
    with pytest.raises(dataclasses.FrozenInstanceError):
        doc.space = None
    with pytest.raises(dataclasses.FrozenInstanceError):
        doc.instance = None
    assert load_pdb_file(FIXTURES / "four_worlds_pdb.json").space is space


def test_a_rewritten_document_is_parsed_again(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text(_doc_text("1/2"))
    first = load_pdb_file(path)
    assert load_pdb_file(path) is first
    path.write_text(_doc_text("1/3"))
    second = load_pdb_file(path)
    assert second.space.representation.marginals == {"t1": Fraction(1, 3)}
    path.write_text(_doc_text("1/2"))
    third = load_pdb_file(path)
    assert third is not first  # only the last document is kept
    assert third.space.representation.marginals == {"t1": Fraction(1, 2)}


def test_identical_documents_share_one_parse(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(_doc_text())
    b.write_text(_doc_text())
    assert load_pdb_file(a) is load_pdb_file(b)


@pytest.mark.parametrize("text, message", [
    ("{", "invalid JSON (Expecting property name enclosed in double quotes: "
          "line 1 column 2 (char 1))"),
    (_doc_text(arg=LONG_NUMBER), "invalid JSON (Exceeds the limit (4300 digits) for integer "
     "string conversion: value has 5000 digits; use sys.set_int_max_str_digits() to "
     "increase the limit)"),
    ('{"schema": {}, "tuples": [], "extra": 1}', "unknown document fields ['extra']"),
])
def test_a_failing_document_fails_on_every_call(tmp_path, text, message):
    good = load_pdb_file(FIXTURES / "four_worlds_pdb.json")
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        path.write_text(text)
    for path in paths * 2:
        with pytest.raises(InputError) as raised:
            load_pdb_file(path)
        # A JSON error names the path of the call; a document error names no
        # path, as `parse_pdb_document` words it.
        named = f"{path}: {message}" if message.startswith("invalid JSON") else message
        assert str(raised.value) == named
    # A failure is not kept, and does not evict the last good document.
    assert load_pdb_file(FIXTURES / "four_worlds_pdb.json") is good


def test_a_document_past_the_digit_limit_is_refused_under_the_limit(tmp_path, digit_limit):
    path = tmp_path / "doc.json"
    path.write_text(_doc_text(arg=LONG_NUMBER))
    digit_limit(0)
    record = load_pdb_file(path).instance.record("t1")
    assert record.args == (Fraction(int(LONG_NUMBER)),)
    digit_limit(4300)
    with pytest.raises(InputError) as raised:
        load_pdb_file(path)
    assert str(raised.value).startswith(f"{path}: invalid JSON (Exceeds the limit (4300 digits)")



def test_a_loaded_document_is_freed_by_the_next(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(_doc_text("1/2"))
    b.write_text(_doc_text("1/3"))
    doc = load_pdb_file(a)
    refs = [weakref.ref(doc), weakref.ref(doc.space), weakref.ref(doc.instance)]
    del doc
    gc.collect()
    assert all(ref() is not None for ref in refs)
    load_pdb_file(b)
    gc.collect()
    assert [ref() for ref in refs] == [None, None, None]


def test_a_scored_document_is_freed_by_the_next(tmp_path):
    # Scoring keeps a lattice, a query parse and the instance's lineage
    # table; none of them may pin the scored document.
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(_doc_text("1/2"))
    b.write_text(_doc_text("1/3"))
    doc = load_pdb_file(a)
    (tmp_path / "q.q").write_text("Q() :- R(X)")
    q = load_query_file(tmp_path / "q.q", doc.instance.schema)
    assert score_all(doc.space, q, ScoreKind.SHAPLEY).values() == {"t1": Fraction(1)}
    refs = [weakref.ref(doc), weakref.ref(doc.space), weakref.ref(doc.instance)]
    del doc
    load_pdb_file(b)
    gc.collect()
    assert [ref() for ref in refs] == [None, None, None]


def test_clear_kept_makes_every_memo_derive_again(monkeypatch):
    # Count what each memo derives: documents, query texts, probability
    # texts and subset lattices.
    calls = Counter()

    def counted(owner, name):
        original = getattr(owner, name)

        def counting(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)

    counted(core, "parse_pdb_document")
    counted(queries, "parse_query")
    counted(core, "_parse_fraction")
    counted(scores._Lattice, "__init__")

    def load_and_score():
        calls.clear()
        doc = load_pdb_file(FIXTURES / "four_worlds_pdb.json")
        q = load_query_file(FIXTURES / "path_query.q", doc.instance.schema)
        score_all(doc.space, q, ScoreKind.SHAPLEY)
        return dict(calls)

    first = load_and_score()
    assert set(first) == {"parse_pdb_document", "parse_query", "_parse_fraction", "__init__"}
    assert load_and_score() == {}
    clear_kept()
    assert load_and_score() == first




EDGES = {"E": RelationSchema("E", 2)}


def test_identical_query_texts_share_one_parse(tmp_path):
    a, b = tmp_path / "a.q", tmp_path / "b.q"
    a.write_text("Q() :- E(X,Y)")
    b.write_text("Q() :- E(X,Y)")
    assert load_query_file(a, EDGES) is load_query_file(b, dict(EDGES))
    # Without a schema the text is another key, with an equal parse.
    assert load_query_file(a) == load_query_file(a, EDGES)


def test_a_rewritten_query_is_parsed_again(tmp_path):
    path = tmp_path / "q.q"
    path.write_text("Q() :- E(a,X)")
    assert str(load_query_file(path, EDGES)) == "E(a,X)"
    path.write_text("Q() :- E(b,X)")
    assert str(load_query_file(path, EDGES)) == "E(b,X)"


def test_a_query_is_checked_again_under_another_schema(tmp_path):
    path = tmp_path / "q.q"
    path.write_text("Q() :- E(X,Y)")
    assert str(load_query_file(path, EDGES)) == "E(X,Y)"
    with pytest.raises(QuerySyntaxError, match="^unknown relation 'E'$"):
        load_query_file(path, {"R": RelationSchema("R", 1)})
    with pytest.raises(QuerySyntaxError, match="^relation 'E' expects 3 arguments, got 2"):
        load_query_file(path, {"E": RelationSchema("E", 3)})
    assert str(load_query_file(path, EDGES)) == "E(X,Y)"


def test_a_query_past_the_digit_limit_is_read_again_under_each_limit(tmp_path, digit_limit):
    path = tmp_path / "q.q"
    path.write_text(f"Q() :- R({LONG_NUMBER})")
    digit_limit(0)
    (atom,) = load_query_file(path).atoms
    assert atom.terms == (Fraction(int(LONG_NUMBER)),)
    digit_limit(4300)
    with pytest.raises(QuerySyntaxError, match="cannot read number: Exceeds the limit"):
        load_query_file(path)
    digit_limit(0)
    assert load_query_file(path).atoms == (atom,)


def test_a_failing_query_fails_on_every_call(tmp_path):
    path = tmp_path / "q.q"
    path.write_text("Q() :- E(X")
    for _ in range(3):
        with pytest.raises(QuerySyntaxError) as raised:
            load_query_file(path, EDGES)
        assert str(raised.value) == "line 1, end of rule: expected ')'"
    assert queries._parse_query_text.cache_info().currsize == 0


def test_a_schema_that_cannot_be_hashed_is_parsed_on_every_call(tmp_path):
    schema = {"E": RelationSchema("E", 2, ["symbolic", "numeric"])}  # list tags
    path = tmp_path / "q.q"
    path.write_text("Q() :- E(X,Y)")
    first = load_query_file(path, schema)
    second = load_query_file(path, schema)
    assert first == second and first is not second
    path.write_text("Q() :- E(X)")
    with pytest.raises(QuerySyntaxError, match="expects 2 arguments, got 1"):
        load_query_file(path, schema)


def test_at_most_eight_query_parses_are_kept(tmp_path):
    path = tmp_path / "q.q"
    parsed = []
    for i in range(10):
        path.write_text(f"Q() :- E(c{i},X)")
        parsed.append(load_query_file(path, EDGES))
    assert queries._parse_query_text.cache_info().currsize == 8
    path.write_text("Q() :- E(c9,X)")
    assert load_query_file(path, EDGES) is parsed[9]
    path.write_text("Q() :- E(c0,X)")
    assert load_query_file(path, EDGES) is not parsed[0]
