"""Every command in both formats over a seeded corpus of generated
documents and queries: `cli.main` returns 0, 1 or 2 and never raises.

The documents are TIDs, explicit-world spaces and plain instances, with
exogenous tuples and duplicated facts; some are invalid spaces.  The
queries are BCQs with constants, unions, and COUNT and SUM aggregates,
plus the inputs of `helpers.deep_inputs`.
"""

from __future__ import annotations

import contextlib
import io
import json
import random

from causalpdb.cli import main

from helpers import deep_inputs

SCHEMA = {"P": 1, "R": 2, "N": ["symbolic", "numeric"]}
SYMBOLS = ["a", "b", "c"]
NUMBERS = [-1, 0, 2]
MARGINALS = ["0", "1/3", "1/2", "0.9", "1"]
VARIABLES = ["X", "Y", "Z"]
SCORE_KINDS = ["gces", "ces-tid", "ces-ui", "shapley", "banzhaf", "power", "weighted-power"]


def _fact(rng):
    pred = rng.choice(sorted(SCHEMA))
    if pred == "N":
        return pred, [rng.choice(SYMBOLS), rng.choice(NUMBERS)]
    return pred, [rng.choice(SYMBOLS) for _ in range(SCHEMA[pred])]


def _document(rng, form: str) -> dict:
    """A document of 1-4 endogenous tuples and at most one exogenous one;
    about half the time one fact is carried twice."""
    facts = [_fact(rng) for _ in range(rng.randint(1, 4) + rng.randint(0, 1))]
    if rng.random() < 0.5:
        facts.append(rng.choice(facts))
    tuples = [
        {"tid": f"t{i}", "predicate": pred, "args": args,
         "kind": "exogenous" if i == 1 and rng.random() < 0.4 else "endogenous"}
        for i, (pred, args) in enumerate(facts, start=1)
    ]
    doc = {"schema": SCHEMA, "tuples": tuples}
    tids = [t["tid"] for t in tuples]
    sure = {t["tid"] for t in tuples if t["kind"] == "exogenous" and rng.random() < 0.8}
    if form == "tid":
        # An exogenous tuple below 1, or missing from a world, makes the
        # space invalid.
        doc["marginals"] = {tid: "1" if tid in sure else rng.choice(MARGINALS) for tid in tids}
    elif form == "worlds":
        support = {
            frozenset(t for t in tids if t in sure or rng.random() < 0.5) for _ in range(3)
        }
        weights = [rng.randint(1, 4) for _ in support]
        doc["worlds"] = [
            {"tids": sorted(world), "p": f"{w}/{sum(weights)}"}
            for world, w in zip(sorted(support, key=sorted), weights)
        ]
    return doc


def _atom(rng) -> str:
    pred = rng.choice(sorted(SCHEMA))
    arity = len(SCHEMA[pred]) if pred == "N" else SCHEMA[pred]
    terms = []
    for i in range(arity):
        if rng.random() < 0.7:
            terms.append(rng.choice(VARIABLES))
        else:
            terms.append(str(rng.choice(NUMBERS if pred == "N" and i == 1 else SYMBOLS)))
    return f"{pred}({','.join(terms)})"


def _body(rng) -> str:
    return ", ".join(_atom(rng) for _ in range(rng.randint(1, 3)))


def _queries(rng) -> list[str]:
    return [
        f"Q() :- {_body(rng)}",
        f"Q() :- {_body(rng)}",
        f"Q() :- {_body(rng)}; Q() :- {_body(rng)}",
        f"Q(count()) :- {_body(rng)}",
        f"Q(sum(Y)) :- {_body(rng)}, N(X,Y)",
    ]


def _commands(doc: dict) -> list[list[str]]:
    endogenous = [t["tid"] for t in doc["tuples"] if t["kind"] == "endogenous"]
    first = endogenous[0] if endogenous else "t1"
    return (
        [["prob", "--backend", backend] for backend in ("auto", "lifted", "brute")]
        + [["score", "--kind", kind] for kind in SCORE_KINDS]
        + [["rank", "--kind", "ces-tid"], ["dichotomy"], ["axioms", "--query2", "q2.q"],
           ["oracle-compare", "--tuple", first]]
    )


def _run(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


def _smoke(tmp_path, doc: dict, queries: list[str]) -> set[int]:
    (tmp_path / "doc.json").write_text(json.dumps(doc))
    (tmp_path / "q2.q").write_text(queries[0] + "\n")
    last = doc["tuples"][-1]["tid"]
    codes = set()
    for fmt in ("table", "json"):
        common = ["--pdb", "doc.json", "--format", fmt]
        for argv in (["validate"], ["intervene", "--in", last, "--out", "t1"]):
            codes.add(_run(argv + common))
        for text in queries:
            (tmp_path / "q.q").write_text(text + "\n")
            for command in _commands(doc):
                codes.add(_run(command + common + ["--query", "q.q"]))
    assert codes <= {0, 1, 2}
    return codes


def test_no_generated_input_ends_in_a_traceback(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rng = random.Random(5)
    codes = set()
    for form in ("tid", "worlds", "plain") * 4:
        codes |= _smoke(tmp_path, _document(rng, form), _queries(rng))
    assert codes == {0, 1, 2}


def test_deep_inputs_end_in_a_result_or_a_message(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    inputs = deep_inputs()
    chain, text = inputs.pop("chain")
    for doc, body in inputs.values():
        _smoke(tmp_path, doc, [body])
    # Reading the 1.3 MB chain takes most of a second per call, so it runs
    # one command; every command reads its query the same way.
    (tmp_path / "doc.json").write_text(json.dumps(chain))
    (tmp_path / "q.q").write_text(text + "\n")
    for fmt in ("table", "json"):
        assert _run(["prob", "--pdb", "doc.json", "--query", "q.q", "--format", fmt]) == 2
