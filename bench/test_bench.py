"""Tests of the benchmark itself: generator determinism, the oracles on
hand-checked fixture values, the checks catching a wrong output, and the
tracer's counters.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import causalpdb  # noqa: E402
from causalpdb import cli, queries, scores  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

FIXTURES = ROOT / "fixtures"


def fixture_group(name: str, rename=None, info=None) -> workloads.Group:
    """A group around a fixture document, its facts optionally renamed
    into the shape a closed form expects."""
    raw = json.loads((FIXTURES / name).read_text())
    facts = []
    for t in raw["tuples"]:
        pred, args = t["predicate"], tuple(t["args"])
        if rename:
            pred, args = rename(pred, args)
        facts.append((t["tid"], pred, args, t["kind"]))
    marginals = {t: Fraction(p) for t, p in raw.get("marginals", {}).items()} or None
    doc = workloads.Doc(name, facts, marginals)
    return workloads.Group("fixture", [], doc, info or {})


def plan_files(plan_fn, seed, tmp_path):
    plan = plan_fn(seed, tmp_path)
    files = {p.name: p.read_bytes() for p in sorted(tmp_path.iterdir())}
    return plan, files


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generators_are_deterministic_per_seed(name, tmp_path):
    plan_fn = workloads.WORKLOADS[name]
    a, files_a = plan_files(plan_fn, 7, tmp_path / "a")
    b, files_b = plan_files(plan_fn, 7, tmp_path / "b")
    c, files_c = plan_files(plan_fn, 8, tmp_path / "c")
    assert files_a == files_b
    assert files_a != files_c

    def argv(plan, root):
        return [tuple(a.replace(str(root), "") for a in plan.request(e).argv) for e in plan.schedule]

    assert argv(a, tmp_path / "a") == argv(b, tmp_path / "b")
    assert [g.info.get("probe") for g in a.groups] == [g.info.get("probe") for g in b.groups]


def test_banzhaf_oracle_on_paths_fixture():
    # ces-ui equals Banzhaf on Boolean queries; t1 = E(a,b) alone satisfies
    # the query, so it swings every subset where no other a-b path holds:
    # 21 of the 32 subsets of the other five edges.
    group = fixture_group("paths_instance.json")
    got = checks.brute_banzhaf(group, workloads.PATH_QUERY)
    assert got["t1"] == Fraction(21, 32)
    assert got["t3"] == got["t2"]


def test_lifted_closed_form_on_two_component_fixture():
    # Q() :- R1(X,Y), R2(Y), R3(Z) becomes R(X), S(X,Y), T(Z) with the root
    # Y of R1 moved to the first position.  P1 = 1/2 * (1 - 7/10 * 2/10)
    # = 43/100 and P2 = 1 - 1/10 * 2/10 = 49/50, so P(Q) = 2107/5000.
    rename = {"R2": lambda a: ("R", a), "R1": lambda a: ("S", (a[1], a[0])), "R3": lambda a: ("T", a)}
    group = fixture_group(
        "two_component_tid.json", lambda p, a: rename[p](a), {"kind": "ces-tid", "with_t": True}
    )
    ce = checks.lifted_closed_form(group)
    assert ce["t4"] == Fraction(86, 100) * Fraction(49, 50)  # u_b * P2
    assert ce["t5"] == Fraction(43, 100) * Fraction(2, 10)  # P1 * (1 - p(e))
    assert ce["t2"] == Fraction(1, 2) * Fraction(2, 10) * Fraction(49, 50)
    assert ce["t1"] == 0  # R2(a) is absent
    doc = causalpdb.load_pdb_file(FIXTURES / "two_component_tid.json")
    q = causalpdb.load_query_file(FIXTURES / "two_component_query.q", doc.instance.schema)
    assert scores.score_all(doc.space, q, "ces-tid").values() == ce


def test_lifted_closed_form_matches_engine_on_generated_instance(tmp_path):
    import random

    for with_t in (False, True):
        doc = workloads._star_doc(random.Random(3), "x", 24, with_t)
        for kind in ("ces-ui", "ces-tid"):
            group = workloads.Group("lifted", [], doc, {"kind": kind, "with_t": with_t})
            path = tmp_path / f"{with_t}.json"
            path.write_text(doc.to_json({"R": 1, "S": 2, "T": 1}))
            body = workloads.STAR_T_QUERY if with_t else workloads.STAR_QUERY
            space = causalpdb.load_pdb_file(path)
            q = queries.parse_query(workloads.query_text(body), space.instance.schema)
            source = space.space if kind == "ces-tid" else space.instance
            assert scores.score_all(source, q, kind).values() == checks.lifted_closed_form(group)


def run_group(plan, g):
    return [run.call(cli, req.argv)[1] for req in plan.groups[g].requests]


def test_checks_pass_right_outputs_and_flag_a_wrong_one(tmp_path):
    plan = workloads.cli_requests(5, tmp_path)
    group = plan.groups[0]
    outcomes = run_group(plan, 0)
    assert [oc.code for oc in outcomes] == [r.expect_exit for r in group.requests]
    assert checks.verify_cli(group, outcomes) == [None] * len(outcomes)
    i = group.info["roles"].index(("banzhaf", "json"))
    report = json.loads(outcomes[i].out)
    report["scores"][0]["value"] = "1/7"
    outcomes[i] = workloads.Outcome(0, json.dumps(report), "")
    flagged = checks.verify_cli(group, outcomes)
    assert flagged[i] is not None
    assert flagged[group.info["roles"].index(("ces-ui", "json"))] is not None


def test_lifted_check_flags_a_wrong_value(tmp_path):
    plan = workloads.lifted_tid(2, tmp_path, groups=1)
    outcomes = run_group(plan, 0)
    assert checks.verify_lifted(plan.groups[0], outcomes) == [None]
    report = json.loads(outcomes[0].out)
    report["scores"][-1]["value"] = "2/1"  # a causal effect is at most 1
    bad = [workloads.Outcome(0, json.dumps(report), "")]
    assert checks.verify_lifted(plan.groups[0], bad)[0] is not None


def traced_counts(plan, entries):
    tracer = Tracer()
    tracer.install()
    try:
        for i, entry in enumerate(entries):
            with tracer.request(i):
                run.call(cli, plan.request(entry).argv)
    finally:
        tracer.uninstall()
    return tracer


def test_tracer_counters_repeat_and_originals_come_back(tmp_path):
    originals = (queries.evaluate, scores.evaluate, causalpdb.evaluate,
                 scores.EndoWorlds.__dict__["value_table"])
    plan = workloads.cli_requests(4, tmp_path, groups=2)
    first = traced_counts(plan, plan.schedule)
    second = traced_counts(plan, plan.schedule)
    assert first.counts() == second.counts()
    assert first.counts()["cli.main.calls"] == len(plan.schedule)
    assert first.counters["queries.evaluate.calls"] > 0
    assert first.counters["axioms.check.calls"] == 2 * 2 * 6  # two groups, two formats
    assert (queries.evaluate, scores.evaluate, causalpdb.evaluate,
            scores.EndoWorlds.__dict__["value_table"]) == originals


def test_tracer_counts_worlds_and_masks(tmp_path):
    plan = workloads.gces_brute(1, tmp_path, groups=2)
    assert plan.groups[1].kind == "tid-path"
    tracer = traced_counts(plan, plan.schedule[1:2])
    n_free = len(plan.groups[1].doc.endogenous)
    # gces runs two brute enumerations of all 2^N worlds per endogenous tuple.
    assert tracer.counters["core.enumerate_worlds.worlds"] == 2 * n_free * 2 ** n_free
    assert tracer.counters["scores.value_table.calls"] == 0
    plan = workloads.subset_scores(1, tmp_path, groups=1)
    tracer = traced_counts(plan, plan.schedule[:1])
    assert tracer.counters["scores.value_table.masks"] == 2 ** len(plan.groups[0].doc.endogenous)
    assert tracer.counters["core.enumerate_worlds.worlds"] == 0


def test_tail_leaves_ten_samples_above():
    samples = [float(i) for i in range(100)]
    assert run.tail(samples) == (89.0, 90.0)
    assert run.tail(samples[:5]) == (4.0, 100.0)
