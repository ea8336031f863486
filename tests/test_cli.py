"""End-to-end command-line behavior: outputs, formats, exit codes."""

import contextlib
import enum
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from causalpdb import cli
from causalpdb.cli import build_parser, main

from helpers import FIXTURES, deep_inputs


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_score_ces_ui_table(capsys):
    code, out, err = run(
        capsys, "score", "--kind", "ces-ui",
        "--pdb", FIXTURES / "paths_instance.json",
        "--query", FIXTURES / "path_query.q",
    )
    assert code == 0 and err == ""
    assert "0.656250" in out
    assert "0.218750" in out
    assert "0.093750" in out
    assert "21/32" in out


def test_score_json_carries_exact_rationals(capsys):
    code, out, _ = run(
        capsys, "score", "--kind", "ces-ui", "--format", "json",
        "--pdb", FIXTURES / "paths_instance.json",
        "--query", FIXTURES / "path_query.q",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["ranking"][0] == "t1"
    assert payload["scores"][0]["value"] == "21/32"
    assert payload["scores"][0]["positive-ceui"] is True


def test_rank_orders_by_value(capsys):
    code, out, _ = run(
        capsys, "rank", "--kind", "gces",
        "--pdb", FIXTURES / "power_pprime.json",
        "--query", FIXTURES / "power_query.q",
    )
    assert code == 0
    rows = [line.split()[1] for line in out.splitlines()[1:]]
    assert rows == ["t4", "t3", "t2"]


@pytest.mark.parametrize("backend, label, calls", [
    ("auto", "lifted", {"lifted_rejections": 1, "_lifted_plan": 1}),
    ("lifted", "lifted", {"lifted_rejections": 1, "_lifted_plan": 1}),
    ("brute", "brute", {}),
])
def test_prob_classifies_the_query_at_most_once(monkeypatch, capsys, backend, label, calls):
    from causalpdb import cli, queries, scores

    seen = {}
    for name in ("lifted_rejections", "_lifted_plan"):
        def counting(*args, _name=name, _original=getattr(queries, name)):
            seen[_name] = seen.get(_name, 0) + 1
            return _original(*args)

        for module in (cli, queries, scores):  # every module that binds the name
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting)
    code, out, err = run(
        capsys, "prob", "--backend", backend,
        "--pdb", FIXTURES / "two_component_tid.json",
        "--query", FIXTURES / "two_component_query.q",
    )
    assert (code, err) == (0, "") and out.endswith(f"[{label}]\n")
    assert seen == calls


def test_validate_valid_space(capsys):
    code, out, _ = run(capsys, "validate", "--pdb", FIXTURES / "four_worlds_pdb.json")
    assert code == 0
    assert out.strip() == "valid"


def _four_worlds_with_first_mass(tmp_path, p):
    doc = json.loads((FIXTURES / "four_worlds_pdb.json").read_text())
    doc["worlds"][0]["p"] = p
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    return bad


def test_validate_reports_violations(tmp_path, capsys):
    bad = _four_worlds_with_first_mass(tmp_path, "0.10")  # breaks total mass
    code, out, _ = run(capsys, "validate", "--pdb", bad)
    assert code == 1
    assert "mass-total" in out


def test_invalid_spaces_are_refused_before_scoring(tmp_path, capsys):
    query = FIXTURES / "path_query.q"
    for p, total in (("0.10", "9/10"), ("1.0", "9/5")):
        bad = _four_worlds_with_first_mass(tmp_path, p)
        for argv in (
            ("prob",),
            ("prob", "--backend", "brute"),
            ("score", "--kind", "gces"),
            ("score", "--kind", "weighted-power"),
            ("score", "--kind", "shapley"),
            ("oracle-compare", "--tuple", "t3"),
            ("axioms",),
        ):
            code, out, err = run(capsys, *argv, "--pdb", bad, "--query", query)
            assert code == 1, argv
            assert out == ""
            assert "[mass-total]" in err and f"sum to {total}, not 1" in err
        code, out, err = run(capsys, "intervene", "--pdb", bad, "--in", "t3")
        assert code == 1 and out == "" and "[mass-total]" in err


def test_first_bad_tuple_id_does_not_depend_on_the_hash_seed(tmp_path):
    import causalpdb

    # One world holding four tuples, none with a numeric sum target: the
    # first bad target named is the first in tuple-id order.
    fruit = tmp_path / "fruit.json"
    fruit.write_text(json.dumps({
        "schema": {"S": 2},
        "tuples": [
            {"tid": f"t{i}", "predicate": "S", "args": args, "kind": "endogenous"}
            for i, args in enumerate(
                [["x", "apple"], ["x", "banana"], ["y", "cherry"], ["y", "date"]], 1
            )
        ],
        "worlds": [{"tids": ["t1", "t2", "t3", "t4"], "p": "1"}],
    }))
    total = tmp_path / "total.q"
    total.write_text("Q(sum(Y)) :- S(X,Y)\n")
    cases = [
        (["intervene", "--pdb", str(FIXTURES / "nonhier_pdb.json"), "--in", "t3", "--out", "t1"],
         "error: unknown tuple id 't1'\n"),
        (["score", "--kind", "gces", "--pdb", str(fruit), "--query", str(total)],
         "error: non-numeric value 'apple' at aggregation target Y\n"),
    ]
    src = str(Path(causalpdb.__file__).resolve().parent.parent)
    for args, stderr in cases:
        argv = [sys.executable, "-m", "causalpdb.cli", *args]
        for seed in ("1", "2", "3"):
            env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
            done = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=60)
            assert (done.returncode, done.stdout) == (2, ""), (args[0], seed)
            assert done.stderr == stderr, (args[0], seed)


def test_python_dash_m_runs_the_cli():
    import causalpdb

    src = str(Path(causalpdb.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-m", "causalpdb", "validate",
         "--pdb", str(FIXTURES / "four_worlds_pdb.json")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60,
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "valid\n", "")


def test_reimported_modules_are_freed():
    # Module-level type aliases built with typing.Union or typing.Callable
    # sit in typing's cache, which kept every old copy of a re-imported
    # module alive.
    import causalpdb

    script = """
import gc, importlib, sys, weakref
importlib.import_module("causalpdb.cli")
old = [weakref.ref(sys.modules["causalpdb." + m].__dict__[c]) for m, c in
       (("core", "ExplicitWorlds"), ("queries", "Var"), ("axioms", "Witness"))]
for name in [m for m in sys.modules if m.split(".")[0] == "causalpdb"]:
    del sys.modules[name]
importlib.import_module("causalpdb.cli")
gc.collect()
print([ref() is None for ref in old])
"""
    src = str(Path(causalpdb.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src}, timeout=60,
    )
    assert (done.stdout, done.stderr) == ("[True, True, True]\n", "")


def test_brute_enumeration_of_thousands_of_sure_tuples(tmp_path, capsys):
    n = 3000
    doc = {
        "schema": {"R": 1, "E": 2},
        "tuples": [{"tid": "r", "predicate": "R", "args": ["a"], "kind": "endogenous"}]
        + [
            {"tid": f"e{i}", "predicate": "E", "args": [f"a{i}", "b"], "kind": "exogenous"}
            for i in range(n)
        ],
        "marginals": {"r": "0.5", **{f"e{i}": "1" for i in range(n)}},
    }
    pdb = tmp_path / "deep.json"
    pdb.write_text(json.dumps(doc))
    query = tmp_path / "q.q"
    query.write_text("Q() :- R(a), E(X,b)\n")
    code, out, err = run(
        capsys, "prob", "--backend", "brute", "--pdb", pdb, "--query", query
    )
    assert (code, err) == (0, "")
    assert out == "P(Q) = 0.500000 (1/2) [brute]\n"


def test_prob_brute_and_lifted_agree(capsys):
    code, out, _ = run(
        capsys, "prob", "--backend", "brute", "--format", "json",
        "--pdb", FIXTURES / "two_component_tid.json",
        "--query", FIXTURES / "two_component_query.q",
    )
    assert code == 0
    brute = json.loads(out)
    assert brute["probability"]["value"] == "2107/5000"
    assert brute["backend"] == "brute"
    code, out, _ = run(
        capsys, "prob", "--backend", "auto", "--format", "json",
        "--pdb", FIXTURES / "two_component_tid.json",
        "--query", FIXTURES / "two_component_query.q",
    )
    auto = json.loads(out)
    assert auto["probability"] == brute["probability"]
    assert auto["backend"] == "lifted"


def test_prob_lifted_rejects_non_hierarchical(capsys):
    code, out, err = run(
        capsys, "prob", "--backend", "lifted",
        "--pdb", FIXTURES / "nonhier_pdb.json",
        "--query", FIXTURES / "nonhier_query.q",
    )
    assert code == 1
    assert "non-hierarchical" in err
    assert "#P-hard" in err


def test_intervene_deterministic_output(capsys):
    outputs = []
    for _ in range(2):
        code, out, _ = run(
            capsys, "intervene", "--format", "json",
            "--pdb", FIXTURES / "four_worlds_pdb.json", "--in", "t3",
        )
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]
    payload = json.loads(outputs[0])
    masses = {tuple(w["tids"]): w["p"] for w in payload["worlds"]}
    assert masses[("t2", "t3", "t6")] == "0.55"


def test_intervene_mixed_targets(capsys):
    code, out, _ = run(
        capsys, "intervene", "--format", "json",
        "--pdb", FIXTURES / "two_component_tid.json", "--in", "t1,t2", "--out", "t3",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["marginals"]["t1"] == "1"
    assert payload["marginals"]["t2"] == "1"
    assert payload["marginals"]["t3"] == "0"
    assert payload["marginals"]["t4"] == "0.5"


def test_dichotomy_ptime(capsys):
    code, out, _ = run(
        capsys, "dichotomy", "--format", "json",
        "--pdb", FIXTURES / "two_component_tid.json",
        "--query", FIXTURES / "two_component_query.q",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "PTIME"
    assert payload["hierarchical"] and payload["self_join_free"]
    assert payload["components"] == [["R1(X,Y)", "R2(Y)"], ["R3(Z)"]]


def test_dichotomy_hard_with_witness(capsys):
    code, out, _ = run(
        capsys, "dichotomy", "--format", "json",
        "--pdb", FIXTURES / "nonhier_pdb.json",
        "--query", FIXTURES / "nonhier_query.q",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "#P-hard"
    assert payload["witness_pair"] == ["X", "Y"]


def test_dichotomy_self_join_out_of_scope(tmp_path, capsys):
    query = tmp_path / "sj.q"
    query.write_text("Q() :- E(X,Y), E(Y,Z)\n")
    code, out, _ = run(
        capsys, "dichotomy", "--format", "json",
        "--pdb", FIXTURES / "four_worlds_pdb.json", "--query", query,
    )
    assert code == 0
    assert json.loads(out)["verdict"] == "out of dichotomy scope (self-join)"


def test_dichotomy_works_without_a_pdb(capsys):
    code, out, _ = run(
        capsys, "dichotomy", "--format", "json",
        "--query", FIXTURES / "nonhier_query.q",
    )
    assert code == 0
    assert json.loads(out)["verdict"] == "#P-hard"


def test_dichotomy_rejects_aggregates(capsys):
    code, _, err = run(
        capsys, "dichotomy",
        "--pdb", FIXTURES / "paths_full_instance.json",
        "--query", FIXTURES / "sum_query.q",
    )
    assert code == 2
    assert "BCQ" in err


def test_axioms_command(capsys):
    code, out, _ = run(
        capsys, "axioms", "--format", "json",
        "--pdb", FIXTURES / "power_pprime.json",
        "--query", FIXTURES / "power_query.q",
        "--query2", FIXTURES / "power_query2.q",
    )
    assert code == 0
    payload = json.loads(out)
    by_axiom = {v["axiom"]: v for v in payload["verdicts"]}
    assert by_axiom["DUM"]["holds"]
    assert not by_axiom["EFF"]["holds"]
    assert not by_axiom["SYM"]["holds"]
    assert by_axiom["G-EFF"]["holds"]
    assert by_axiom["G-SYM"]["holds"]
    assert by_axiom["LIN"]["holds"]
    assert by_axiom["EFF"]["witnesses"][0]["lhs"] == "11/12"


@pytest.mark.parametrize("second, message", [
    ("missing.q", "error: [Errno 2] No such file or directory: '{path}'\n"),
    ("bad.q", "error: line 1, end of rule: expected ')'\n"),
    ("sum.q", "error: axiom checks take monotone Boolean queries\n"),
])
def test_axioms_refuses_a_bad_second_query_before_any_check(
    tmp_path, monkeypatch, capsys, second, message
):
    from causalpdb.scores import EndoWorlds

    tables = []
    original = EndoWorlds.value_table
    monkeypatch.setattr(
        EndoWorlds, "value_table", lambda self, q: tables.append(q) or original(self, q)
    )
    (tmp_path / "bad.q").write_text("Q() :- R(X\n")
    (tmp_path / "sum.q").write_text((FIXTURES / "sum_query.q").read_text())
    path = tmp_path / second
    code, out, err = run(
        capsys, "axioms",
        "--pdb", FIXTURES / "power_pprime.json",
        "--query", FIXTURES / "power_query.q",
        "--query2", path,
    )
    assert (code, out, err) == (2, "", message.format(path=path))
    assert tables == []


def test_axioms_with_banzhaf_score(capsys):
    code, out, _ = run(
        capsys, "axioms", "--format", "json", "--score", "banzhaf",
        "--pdb", FIXTURES / "power_pprime.json",
        "--query", FIXTURES / "ground_pair_query.q",
    )
    assert code == 0
    payload = json.loads(out)
    by_axiom = {v["axiom"]: v for v in payload["verdicts"]}
    assert not by_axiom["G-SYM"]["holds"]


@pytest.mark.parametrize("score", ["banzhaf", "shapley"])
def test_axioms_scores_each_tuple_once_per_request(monkeypatch, capsys, score):
    from causalpdb import scores

    builds = []
    original = scores.EndoWorlds.value_table

    def counting(self, q):
        builds.append(q)
        return original(self, q)

    monkeypatch.setattr(scores.EndoWorlds, "value_table", counting)
    argv = ["axioms", "--score", score, "--pdb", FIXTURES / "four_worlds_pdb.json",
            "--query", FIXTURES / "path_query.q"]
    for request in (1, 2):  # nothing is kept from one request to the next
        code, _, err = run(capsys, *argv)
        assert code == 0 and err == ""
        # The five tables the checks build themselves, plus one score per
        # endogenous tuple (six), each asked for once however many checks
        # read it.
        assert len(builds) == 11 * request


@pytest.mark.parametrize("score", ["gces", "banzhaf", "shapley"])
def test_axioms_scores_honour_max_endogenous(monkeypatch, capsys, tmp_path, score):
    # With both enumeration caps below the document's six endogenous
    # tuples, --max-endogenous 6 must admit the scores the checks ask for,
    # as it admits the same score from `score`.  The space is
    # tuple-independent, so the causal effect of the path union (no lifted
    # plan) enumerates worlds too.
    from causalpdb import core, scores

    doc = json.loads((FIXTURES / "four_worlds_pdb.json").read_text())
    del doc["worlds"]
    doc["marginals"] = {entry["tid"]: "0.5" for entry in doc["tuples"]}
    pdb = tmp_path / "half.json"
    pdb.write_text(json.dumps(doc))
    monkeypatch.setattr(core, "DEFAULT_WORLD_CAP", 4)
    monkeypatch.setattr(scores, "DEFAULT_WORLD_CAP", 4)
    files = ["--pdb", pdb, "--query", FIXTURES / "path_query.q"]
    code, _, err = run(capsys, "axioms", "--score", score, *files)
    assert code == 1 and "exceed the" in err
    for argv in (["axioms", "--score", score], ["score", "--kind", score]):
        code, _, err = run(capsys, *argv, "--max-endogenous", "6", *files)
        assert code == 0 and err == "", argv


@pytest.mark.parametrize("argv, spaces", [
    (["score", "--kind", "gces"], 1),
    (["axioms", "--score", "gces"], 1),
    # The document's space and the two spaces the materialized oracle builds.
    (["oracle-compare", "--tuple", "t3"], 3),
])
def test_each_space_is_validated_once_per_request(monkeypatch, capsys, tmp_path, argv, spaces):
    from helpers import count_validations

    calls = count_validations(monkeypatch)
    pdb = tmp_path / "four_worlds.json"
    pdb.write_bytes((FIXTURES / "four_worlds_pdb.json").read_bytes())

    def validated() -> int:
        calls.clear()
        code, _, err = run(capsys, *argv, "--pdb", pdb, "--query", FIXTURES / "path_query.q")
        assert code == 0 and err == ""
        assert len(calls) == len({id(space) for space in calls})
        return len(calls)

    # The first request on a text validates the document's space; an
    # identical repeat reuses the parse with its verdict, and validates only
    # the spaces the request builds itself; a rewritten file is parsed and
    # validated again.
    assert validated() == spaces
    assert validated() == spaces - 1
    pdb.write_bytes(pdb.read_bytes() + b"\n")
    assert validated() == spaces


def test_oracle_compare(capsys):
    code, out, _ = run(
        capsys, "oracle-compare", "--format", "json",
        "--pdb", FIXTURES / "four_worlds_pdb.json",
        "--query", FIXTURES / "path_query.q", "--tuple", "t3",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["agree"] is True
    assert payload["materialized"]["value"] == "11/20"
    assert payload["direct"]["decimal"] == "0.550000"
    assert payload["subset_form"]["value"] == "11/20"


def test_oracle_compare_needs_tuple(capsys):
    code, _, err = run(
        capsys, "oracle-compare",
        "--pdb", FIXTURES / "four_worlds_pdb.json",
        "--query", FIXTURES / "path_query.q",
    )
    assert code == 2
    assert "--tuple" in err


def _prob_on(tmp_path, capsys, pdb_text, query_text="Q() :- R(X)\n"):
    pdb = tmp_path / "doc.json"
    pdb.write_text(pdb_text)
    query = tmp_path / "q.q"
    query.write_text(query_text)
    return run(capsys, "prob", "--pdb", pdb, "--query", query)


def _one_tuple_doc(predicate='"R"', arg='"a"'):
    return (
        '{"schema": {"R": 1}, "tuples": [{"tid": "t1", "predicate": %s, '
        '"args": [%s], "kind": "endogenous"}], "marginals": {"t1": "1/2"}}'
        % (predicate, arg)
    )


def test_list_predicate_is_input_error(tmp_path, capsys):
    code, out, err = _prob_on(tmp_path, capsys, _one_tuple_doc(predicate='["R"]'))
    assert (code, out) == (2, "")
    assert err == "error: tuple 't1': predicate must be a string, got ['R']\n"


def test_json_integer_past_the_digit_limit_is_input_error(tmp_path, capsys):
    code, out, err = _prob_on(tmp_path, capsys, _one_tuple_doc(arg="1" * 5000))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {tmp_path / 'doc.json'}: invalid JSON (")
    assert "4300 digits" in err


def _long_marginal_files(tmp_path, marginals):
    """R(a), R(b), ... with the given marginals, and Q() :- R(X)."""
    names = [f"t{i + 1}" for i in range(len(marginals))]
    doc = {
        "schema": {"R": 1},
        "tuples": [
            {"tid": tid, "predicate": "R", "args": [chr(ord("a") + i)], "kind": "endogenous"}
            for i, tid in enumerate(names)
        ],
        "marginals": dict(zip(names, marginals)),
    }
    pdb = tmp_path / "long.json"
    pdb.write_text(json.dumps(doc))
    query = tmp_path / "q.q"
    query.write_text("Q() :- R(X)\n")
    return ["--pdb", pdb, "--query", query]


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_probability_past_the_digit_limit_is_a_domain_error(tmp_path, capsys, fmt):
    # Every input number is short enough to parse, but P(Q) = 1 - (1-p)(1-q)
    # has a denominator of about 4400 digits.
    files = _long_marginal_files(tmp_path, ["1/" + "9" * 2200, "1/" + "9" * 2199 + "7"])
    code, out, err = run(capsys, "prob", *files, "--format", fmt)
    assert code == 1 and out == ""
    assert "4300 digits" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", [
    ["score", "--kind", "ces-tid"], ["rank", "--kind", "gces"], ["oracle-compare", "--tuple", "t1"],
])
def test_scores_past_the_digit_limit_are_domain_errors(tmp_path, capsys, command):
    # A tuple's causal effect is the product of the other three co-marginals,
    # whose denominators have 1500 digits each.
    files = _long_marginal_files(tmp_path, ["1/" + "9" * 1499 + d for d in "1379"])
    code, out, err = run(capsys, *command, *files)
    assert code == 1 and out == ""
    assert "4300 digits" in err


def _long_mass_sum_doc(tmp_path):
    """One endogenous tuple and two worlds whose masses parse, but whose
    sum has a denominator of about 4400 digits."""
    doc = {
        "schema": {"R": 1},
        "tuples": [{"tid": "t1", "predicate": "R", "args": ["a"], "kind": "endogenous"}],
        "worlds": [
            {"tids": [], "p": "1/" + "9" * 2200},
            {"tids": ["t1"], "p": "1/" + "9" * 2199 + "7"},
        ],
    }
    pdb = tmp_path / "mass.json"
    pdb.write_text(json.dumps(doc))
    query = tmp_path / "q.q"
    query.write_text("Q() :- R(X)\n")
    return pdb, query


LONG_MASS_DETAIL = "world masses sum to a number of more than 4300 digits, not 1"


def test_validate_reports_a_mass_sum_past_the_digit_limit(tmp_path, capsys):
    pdb, _ = _long_mass_sum_doc(tmp_path)
    code, out, err = run(capsys, "validate", "--pdb", pdb)
    assert (code, out, err) == (1, f"violation [mass-total] {LONG_MASS_DETAIL}\n", "")
    code, out, err = run(capsys, "validate", "--pdb", pdb, "--format", "json")
    assert (code, err) == (1, "")
    assert json.loads(out) == {
        "valid": False,
        "violations": [{"code": "mass-total", "detail": LONG_MASS_DETAIL}],
    }


@pytest.mark.parametrize("command", [
    ["prob"], ["score", "--kind", "gces"], ["rank", "--kind", "shapley"],
    ["axioms"], ["oracle-compare", "--tuple", "t1"], ["intervene", "--in", "t1"],
], ids=lambda command: command[0])
def test_commands_refuse_a_mass_sum_past_the_digit_limit(tmp_path, capsys, command):
    pdb, query = _long_mass_sum_doc(tmp_path)
    files = ["--pdb", pdb] if command[0] == "intervene" else ["--pdb", pdb, "--query", query]
    code, out, err = run(capsys, *command, *files)
    assert (code, out) == (1, "")
    assert err == f"error: {pdb}: invalid space: [mass-total] {LONG_MASS_DETAIL}\n"


def _long_result_doc(tmp_path):
    """A valid space on R(a), R(b) whose worlds {}, {t1}, {t2}, {t1,t2}
    carry a, b, 1/2 - a and 1/2 - b, with a = 1/(10^2200 - 1) and
    b = 1/(10^2200 - 3): forcing t1 in adds a and b."""
    from fractions import Fraction

    a, b = Fraction(1, 10 ** 2200 - 1), Fraction(1, 10 ** 2200 - 3)
    masses = [([], a), (["t1"], b), (["t2"], Fraction(1, 2) - a), (["t1", "t2"], Fraction(1, 2) - b)]
    doc = {
        "schema": {"R": 1},
        "tuples": [
            {"tid": "t1", "predicate": "R", "args": ["a"], "kind": "endogenous"},
            {"tid": "t2", "predicate": "R", "args": ["b"], "kind": "endogenous"},
        ],
        "worlds": [
            {"tids": tids, "p": f"{p.numerator}/{p.denominator}"} for tids, p in masses
        ],
    }
    pdb = tmp_path / "long.json"
    pdb.write_text(json.dumps(doc))
    query = tmp_path / "q.q"
    query.write_text("Q() :- R(X)\n")
    return pdb, query


@pytest.mark.parametrize("fmt", ["table", "json"])
@pytest.mark.parametrize("command", ["intervene", "axioms"])
def test_intervene_and_axioms_past_the_digit_limit_are_domain_errors(
    tmp_path, capsys, command, fmt
):
    pdb, query = _long_result_doc(tmp_path)
    assert run(capsys, "validate", "--pdb", pdb) == (0, "valid\n", "")
    if command == "intervene":
        argv = ["intervene", "--in", "t1", "--pdb", pdb]
    else:
        argv = ["axioms", "--score", "gces", "--pdb", pdb, "--query", query]
    code, out, err = run(capsys, *argv, "--format", fmt)
    assert (code, out) == (1, "")
    assert err.startswith("error: cannot print the result:")
    assert "4300 digits" in err and "Traceback" not in err


def test_deeply_nested_json_is_input_error(tmp_path, capsys):
    code, out, err = _prob_on(tmp_path, capsys, "[" * 100000 + "]" * 100000)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {tmp_path / 'doc.json'}: invalid JSON (maximum recursion")


def _write_deep_input(tmp_path, name):
    doc, text = deep_inputs()[name]
    (tmp_path / "doc.json").write_text(json.dumps(doc))
    (tmp_path / "q.q").write_text(text + "\n")
    return tmp_path / "doc.json", tmp_path / "q.q"


@pytest.mark.parametrize("name, command", [
    ("long-body", ["prob", "--backend", "brute"]),
    ("long-body", ["prob"]),
    ("long-body", ["score", "--kind", "shapley"]),
    ("long-body", ["score", "--kind", "ces-tid"]),
    ("chain", ["prob"]),
])
def test_bodies_past_the_atom_limit_are_input_errors(tmp_path, capsys, name, command):
    pdb, query = _write_deep_input(tmp_path, name)
    code, out, err = run(capsys, *command, "--pdb", pdb, "--query", query)
    assert (code, out) == (2, "")
    assert err.startswith("error: line 1, column ")
    assert err.endswith(
        ": a rule body takes at most 200 atoms; the evaluators recurse once per atom\n"
    )


def test_a_wide_atom_takes_the_lifted_plan(tmp_path, capsys):
    from causalpdb import load_pdb_file, load_query_file, query_probability

    pdb, query = _write_deep_input(tmp_path, "wide-atom")
    space = load_pdb_file(pdb).space
    q = load_query_file(query, space.instance.schema)
    assert query_probability(space, q) == query_probability(space, q, "brute") == Fraction(1, 2)
    code, out, err = run(capsys, "prob", "--pdb", pdb, "--query", query)
    assert (code, out, err) == (0, "P(Q) = 0.500000 (1/2) [lifted]\n", "")
    code, out, err = run(capsys, "score", "--kind", "ces-ui", "--pdb", pdb, "--query", query)
    assert code == 0 and err == ""
    assert out.splitlines()[1].split() == ["1", "t1", "1.000000", "1/1", "lifted"]


def test_query_literal_past_the_digit_limit_is_input_error(tmp_path, capsys):
    code, out, err = _prob_on(
        tmp_path, capsys, _one_tuple_doc(), "Q() :- R(%s)\n" % ("1" * 5000)
    )
    assert (code, out) == (2, "")
    assert err.startswith("error: line 1, column 10: cannot read number")
    assert "4300 digits" in err


def test_files_that_are_not_utf8_are_input_errors(tmp_path, capsys):
    bad = b'Q() :- R(\xff)\n'
    (tmp_path / "doc.json").write_bytes(_one_tuple_doc().encode() + bad)
    (tmp_path / "q.q").write_bytes(bad)
    code, out, err = run(
        capsys, "prob", "--pdb", tmp_path / "doc.json", "--query", FIXTURES / "path_query.q"
    )
    assert (code, out) == (2, "") and "invalid JSON ('utf-8' codec" in err
    code, out, err = run(capsys, "dichotomy", "--query", tmp_path / "q.q")
    assert (code, out) == (2, "") and "not UTF-8 text ('utf-8' codec" in err


def test_missing_file_is_input_error(capsys):
    code, _, err = run(
        capsys, "validate", "--pdb", FIXTURES / "does_not_exist.json"
    )
    assert code == 2
    assert err.startswith("error:")


def test_unknown_score_kind(capsys):
    code, _, err = run(
        capsys, "score", "--kind", "bogus",
        "--pdb", FIXTURES / "paths_instance.json",
        "--query", FIXTURES / "path_query.q",
    )
    assert code == 2
    assert "unknown score kind" in err


def test_threads_must_be_positive(capsys):
    code, _, err = run(
        capsys, "prob", "--threads", "0",
        "--pdb", FIXTURES / "two_component_tid.json",
        "--query", FIXTURES / "two_component_query.q",
    )
    assert code == 2
    assert "--threads" in err


def test_cap_env_var(capsys, monkeypatch):
    monkeypatch.setenv("CES_MAX_WORLDS", "2")
    code, _, err = run(
        capsys, "prob", "--backend", "brute",
        "--pdb", FIXTURES / "two_component_tid.json",
        "--query", FIXTURES / "two_component_query.q",
    )
    assert code == 1
    assert "cap of 2" in err
    # the flag overrides the environment
    code, out, _ = run(
        capsys, "prob", "--backend", "brute", "--max-endogenous", "12",
        "--pdb", FIXTURES / "two_component_tid.json",
        "--query", FIXTURES / "two_component_query.q",
    )
    assert code == 0


@pytest.mark.parametrize("argv", [
    ["--kind", "gces", "--pdb", FIXTURES / "four_worlds_pdb.json",
     "--query", FIXTURES / "path_query.q"],
    ["--kind", "ces-tid", "--pdb", FIXTURES / "nonhier_pdb.json",
     "--query", FIXTURES / "nonhier_query.q"],
    ["--kind", "shapley", "--pdb", FIXTURES / "nonhier_pdb.json",
     "--query", FIXTURES / "nonhier_query.q"],
])
def test_negative_cap_is_an_input_error(capsys, monkeypatch, argv):
    code, out, err = run(capsys, "score", *argv, "--max-endogenous", "-1")
    assert (code, out) == (2, "")
    assert err == "error: --max-endogenous must not be negative, got -1\n"
    monkeypatch.setenv("CES_MAX_WORLDS", "-2")
    code, out, err = run(capsys, "score", *argv)
    assert (code, out) == (2, "")
    assert err == "error: CES_MAX_WORLDS must not be negative, got -2\n"
    # A zero cap stays valid: an explicit space never checks it, and the
    # other kinds refuse the instance as too large (exit 1).
    code, _, _ = run(capsys, "score", *argv, "--max-endogenous", "0")
    assert code == (0 if argv[1] == "gces" else 1)


@pytest.mark.parametrize("argv", [
    ["validate", "--pdb", FIXTURES / "four_worlds_pdb.json"],
    ["intervene", "--pdb", FIXTURES / "four_worlds_pdb.json", "--in", "t1"],
    ["dichotomy", "--query", FIXTURES / "nonhier_query.q"],
])
def test_every_command_refuses_a_bad_cap(capsys, monkeypatch, argv):
    # Commands that enumerate nothing refuse a bad cap as `score` does.
    code, out, err = run(capsys, *argv, "--max-endogenous", "-5")
    assert (code, out, err) == (2, "", "error: --max-endogenous must not be negative, got -5\n")
    monkeypatch.setenv("CES_MAX_WORLDS", "-2")
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", "error: CES_MAX_WORLDS must not be negative, got -2\n")
    monkeypatch.setenv("CES_MAX_WORLDS", "abc")
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", "error: CES_MAX_WORLDS='abc' is not an integer\n")
    monkeypatch.delenv("CES_MAX_WORLDS")
    assert run(capsys, *argv, "--max-endogenous", "0")[0] == 0


def test_thread_count_never_changes_output(capsys):
    outputs = []
    for threads in ("1", "7"):
        code, out, _ = run(
            capsys, "score", "--kind", "shapley", "--threads", threads,
            "--format", "json",
            "--pdb", FIXTURES / "power_p.json",
            "--query", FIXTURES / "power_query.q",
        )
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_score_without_distribution_when_needed(capsys):
    code, _, err = run(
        capsys, "score", "--kind", "gces",
        "--pdb", FIXTURES / "paths_instance.json",
        "--query", FIXTURES / "path_query.q",
    )
    assert code == 2
    assert "distribution" in err


# One request per command on the fixtures; every one is run in both formats.
COMMANDS = {
    "validate": ["--pdb", FIXTURES / "four_worlds_pdb.json"],
    "prob": [
        "--pdb", FIXTURES / "two_component_tid.json",
        "--query", FIXTURES / "two_component_query.q",
    ],
    "score": [
        "--kind", "ces-ui", "--pdb", FIXTURES / "paths_instance.json",
        "--query", FIXTURES / "path_query.q",
    ],
    "rank": [
        "--kind", "gces", "--pdb", FIXTURES / "power_pprime.json",
        "--query", FIXTURES / "power_query.q",
    ],
    "intervene": ["--pdb", FIXTURES / "four_worlds_pdb.json", "--in", "t3"],
    "dichotomy": [
        "--pdb", FIXTURES / "nonhier_pdb.json",
        "--query", FIXTURES / "nonhier_query.q",
    ],
    "axioms": [
        "--pdb", FIXTURES / "power_pprime.json",
        "--query", FIXTURES / "power_query.q",
        "--query2", FIXTURES / "power_query2.q",
    ],
    "oracle-compare": [
        "--pdb", FIXTURES / "four_worlds_pdb.json",
        "--query", FIXTURES / "path_query.q", "--tuple", "t3",
    ],
}


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_repeated_calls_in_one_process_agree(capsys, command):
    for fmt in ("table", "json"):
        argv = [command, "--format", fmt, *COMMANDS[command]]
        first = run(capsys, *argv)
        assert first[0] == 0 and first[1]
        assert run(capsys, *argv) == first


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_append_flags_do_not_leak_between_calls(capsys):
    four = FIXTURES / "four_worlds_pdb.json"
    code, out, _ = run(capsys, "intervene", "--pdb", four, "--in", "t3")
    assert code == 0 and out.startswith("intervention: do(t3 in)\n")
    code, out, _ = run(capsys, "intervene", "--pdb", four, "--out", "t3")
    assert code == 0 and out.startswith("intervention: do(t3 out)\n")
    args = build_parser().parse_args(["intervene", "--pdb", str(four), "--out", "t3"])
    assert args.force_in is None and args.force_out == ["t3"]


def test_argparse_failure_leaves_the_next_call_unchanged(capsys):
    argv = ["validate", "--pdb", FIXTURES / "four_worlds_pdb.json"]
    alone = run(capsys, *argv)
    with pytest.raises(SystemExit) as exc:
        main(["validate", "--pdb", str(FIXTURES / "four_worlds_pdb.json"), "--bogus"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --bogus" in capsys.readouterr().err
    assert run(capsys, *argv) == alone


def test_help_is_identical_on_repeated_calls(capsys):
    outputs = []
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1]
    assert outputs[0].out.startswith("usage: causalpdb")


# ---------------------------------------------------------------------------
# The JSON writer and the one-level argument parse
# ---------------------------------------------------------------------------

class _Kind(str, enum.Enum):
    SHAPLEY = "shapley"


_JSON_SCALARS = (
    st.none() | st.booleans() | st.integers() | st.text()
    | st.sampled_from(["", '"', "\\", "\x00\x1f\x7f", "é ü ß", "雪", "\U0001f600", _Kind.SHAPLEY])
)
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=5), inner, max_size=4),
    max_leaves=25,
)


@settings(max_examples=300, deadline=None)
@given(value=_JSON_VALUES)
@example(value={"b": [], "a": {}, "c": [{"z": None, "y": True}, False, -3, " "]})
@example(value={"kind": _Kind.SHAPLEY, "scores": [{"value": "1/2", "decimal": "0.5"}]})
def test_json_writer_matches_json_dumps(value):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._emit_json(value)
    assert out.getvalue() == json.dumps(value, indent=2, sort_keys=True) + "\n"


_FOUR = str(FIXTURES / "four_worlds_pdb.json")
_PATH_Q = str(FIXTURES / "path_query.q")
_ARGV_CORPUS = [
    *([command, *map(str, args)] for command, args in COMMANDS.items()),
    ["score", "-h"],
    ["axioms", "--help"],
    ["validate", "--pdb", _FOUR, "--bogus"],
    ["validate", "--pdb", _FOUR, "extra"],
    ["prob", f"--pdb={_FOUR}", f"--query={_PATH_Q}", "--format=json"],
    ["validate", "--pd", _FOUR],
    ["axioms", "--pdb", _FOUR, "--quer", _PATH_Q],
    ["prob", "--pdb", _FOUR, "--query", _PATH_Q, "--backend", "nope"],
    ["prob", "--pdb", _FOUR, "--query"],
    ["score", "--pdb", _FOUR, "--query", _PATH_Q],
    ["validate", "--pdb", _FOUR, "--", "extra"],
    ["validate", "--", "--pdb", _FOUR],
    ["validate", "--pdb", _FOUR, "--threads", "0"],
    ["validate", "--pdb", _FOUR, "--max-endogenous", "x"],
    [],
    ["-h"],
    ["--pdb", _FOUR, "validate"],
    ["frobnicate", "--pdb", _FOUR],
]


def _outcome(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = ("exit", exc.code)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize(
    "argv", _ARGV_CORPUS,
    ids=lambda argv: " ".join(argv).replace(f"{FIXTURES}{os.sep}", "") or "(none)",
)
def test_one_level_parse_answers_as_the_full_parser(monkeypatch, capsys, argv):
    # `main` parses a leading command's arguments with that command's own
    # parser; the top-level parser reads the same argv to the same effect.
    one_level = _outcome(capsys, list(argv))
    try:
        assert vars(cli._parse_argv(argv)) == vars(build_parser().parse_args(argv))
    except SystemExit:
        pass
    capsys.readouterr()
    monkeypatch.setattr(cli, "_parse_argv", lambda argv: build_parser().parse_args(argv))
    assert _outcome(capsys, list(argv)) == one_level


def test_axioms_walks_the_homomorphisms_once_per_request(monkeypatch, capsys):
    from causalpdb import clear_kept, scores

    clear_kept()
    walks = []
    original = scores._homomorphism_images
    monkeypatch.setattr(scores, "_homomorphism_images",
                        lambda instance, q: walks.append(q) or original(instance, q))
    for score in ("banzhaf", "shapley", "banzhaf"):
        code, _, err = run(capsys, "axioms", "--score", score, "--pdb", FIXTURES / "four_worlds_pdb.json",
                           "--query", FIXTURES / "path_query.q")
        assert code == 0 and err == ""
        # The first request walks once for its eleven value tables; the
        # kept document brings its lineage to the later requests.
        assert len(walks) == 1
