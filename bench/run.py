"""causalpdb benchmark runner.

    python3 bench/run.py --workload subset-scores --seed 1 --seconds 36 --trace 0

One process, one client, closed loop: the runner generates the workload's
inputs from the seed (see workloads.py), writes them as PDB JSON documents
and query files, and sends each request in-process through
`causalpdb.cli.main([...])` with stdout and stderr captured, so a request
pays what a CLI user pays: wire parse, query parse, scoring and rendering.
Requests follow the workload's schedule, cycling if it runs out, until
`--seconds` have passed.  Outputs are checked afterwards, off the clock
(see checks.py).

`--trace 0` reports the end-to-end metrics.  `--trace 1` ignores
`--seconds` and replays a fixed trace set, the first requests of the
schedule, each once untraced and twice under the outside-in tracer
(tracer.py).  It reports the per-layer metrics of the first traced pass
and the tracing overhead (median traced minus median untraced latency),
and fails unless both traced passes give identical counters.  Spans and
counters are written to `.bench_out/` at the root of the checkout.

Every metric is printed as `name value unit`; the last line of stdout is
one JSON object with `correct`, `attempted`, `failed` and `metrics`.  The
exit code is 0 when every output check passes, 1 when one fails, and 2 when
the benchmark cannot run (no `src/causalpdb` next to `bench/`, bad
arguments).
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import traceback
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

from workloads import WORKLOADS, Outcome, cli_requests

# checks.py and tracer.py import causalpdb, so functions import them only
# after main() has put the checkout's src/ on the path.
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 7
TAIL_BEYOND = 10  # samples the tail percentile must leave above it
RAISED = -1  # exit code recorded for a request whose cli.main raised


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_cli():
    """(Re-)import causalpdb from the checkout, so set-up pays the import."""
    for name in [m for m in sys.modules if m == "causalpdb" or m.startswith("causalpdb.")]:
        del sys.modules[name]
    return importlib.import_module("causalpdb.cli")


def call(cli, argv):
    """One request: cli.main with captured output; (seconds, Outcome)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else RAISED
        except Exception:
            code = RAISED
            traceback.print_exc()
        elapsed = perf_counter() - start
    return elapsed, Outcome(code, out.getvalue(), err.getvalue())


def set_up(workload, seed: int, workdir: Path):
    """Import causalpdb, generate and write the inputs, and warm up on one
    fixed group of cli-requests (every command, seed 0).  Returns the CLI
    module, the plan, and `setup_s`: the median of SETUP_REPEATS rounds."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        cli = import_cli()
        plan = workload(seed, workdir / "inputs")
        warmup = cli_requests(0, workdir / "warmup", groups=1)
        for entry in warmup.schedule:
            call(cli, warmup.request(entry).argv)
        times.append(perf_counter() - start)
    return cli, plan, statistics.median(times)


def closed_loop(cli, plan, seconds: float):
    schedule = plan.schedule
    samples = []
    deadline = perf_counter() + seconds
    while perf_counter() < deadline:
        entry = schedule[len(samples) % len(schedule)]
        elapsed, outcome = call(cli, plan.request(entry).argv)
        samples.append((entry, elapsed, outcome))
    return samples


def verify(cli, plan, samples) -> list:
    """Failure message (or None) per sample.  Each group touched is checked
    once; a request missing from the samples is run off the clock so that
    checks comparing two requests of a group can run."""
    from checks import VERIFIERS

    seen = defaultdict(set)
    for entry, _, outcome in samples:
        seen[entry].add(outcome)
    problems = {}
    for g in sorted({entry[0] for entry in seen}):
        group = plan.groups[g]
        outcomes = []
        for r, req in enumerate(group.requests):
            variants = seen.get((g, r)) or {call(cli, req.argv)[1]}
            if len(variants) > 1:
                problems[(g, r)] = "output differs between repeats of the request"
            outcome = min(variants, key=lambda o: (o.code, o.out, o.err))
            outcomes.append(outcome)
            if outcome.code != req.expect_exit:
                problems.setdefault((g, r), f"exit {outcome.code}, expected {req.expect_exit}: {outcome.err[-300:]}")
        try:
            messages = VERIFIERS[group.kind](group, outcomes)
        except Exception as exc:
            messages = [f"check raised {type(exc).__name__}: {exc}"] * len(outcomes)
        for r, message in enumerate(messages):
            if message is not None:
                problems.setdefault((g, r), message)
    return [problems.get(entry) for entry, _, _ in samples]


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile that leaves at least
    TAIL_BEYOND samples above it; the maximum when there are too few."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(samples, setup_s: float) -> dict:
    from checks import scored

    latencies = [elapsed for _, elapsed, _ in samples]
    tail_s, tail_pct = tail(latencies)
    scores = sum(scored(outcome.out) for _, _, outcome in samples)
    print(f"latency tail percentile: p{tail_pct:.1f} of {len(latencies)} samples")
    return {
        "latency_p50_s": metric(statistics.median(latencies), "s"),
        "latency_tail_s": metric(tail_s, "s"),
        "scores_per_s": metric(scores / sum(latencies), "1/s"),
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


LAYER_TIMES = (
    "cli.main.self_s", "cli.render.s", "core.load_pdb_file.s", "core.validate.s",
    "core.enumerate_worlds.s", "queries.load_query_file.s", "queries.evaluate.s",
    "queries.query_probability.lifted.s", "queries.query_probability.brute.s",
    "interventions.intervene.s", "interventions.intervened_query_value.s",
    "interventions.intervened_expectation.s", "scores.score_all.self_s",
    "scores.value_table.s", "scores.mass_table.s", "axioms.check.s",
)
LAYER_COUNTS = (
    "core.enumerate_worlds.calls", "core.enumerate_worlds.worlds", "queries.evaluate.calls",
    "queries.query_probability.lifted.calls", "queries.query_probability.brute.calls",
    "queries.lifted_rejections.calls", "interventions.intervene.calls",
    "interventions.intervened_query_value.calls", "scores.value_table.calls",
    "scores.value_table.masks", "scores.mass_table.calls", "axioms.check.calls",
)


def per_layer(plan, entries, tracer, untraced, traced) -> dict:
    from checks import backend_mix

    c = tracer.counters
    out = {name: metric(c.get(name, 0.0), "s") for name in LAYER_TIMES}
    out.update({name: metric(int(c.get(name, 0)), "count") for name in LAYER_COUNTS})
    masks = c.get("scores.value_table.masks", 0)
    tuples = c.get("scores.score_all.tuples", 0)
    out["scores.value_table.evaluate_ratio"] = metric(
        c.get("scores.value_table.evaluations", 0) / masks if masks else 0.0, "ratio")
    out["scores.worlds_per_score"] = metric(
        c.get("core.enumerate_worlds.worlds", 0) / tuples if tuples else 0.0, "count")
    traced_latency = [elapsed for _, elapsed, _ in traced]
    out["trace.request_s"] = metric(sum(traced_latency), "s")
    out["trace.overhead_s"] = metric(
        statistics.median(traced_latency) - statistics.median(e for _, e, _ in untraced), "s")

    requests = [plan.request(entry) for entry in entries]
    pairs = Counter()
    repeats = 0
    for req in requests:
        repeats += pairs[req.pair] > 0
        pairs[req.pair] += 1
    backends = Counter(b for _, _, o in traced for b in backend_mix(o.out))
    total = sum(backends.values()) or 1
    sizes = sorted(req.n_endogenous for req in requests)
    out.update({
        "input.requests": metric(len(requests), "count"),
        "input.repeat_share": metric(repeats / len(requests), "ratio"),
        "input.backend.lifted": metric(backends["lifted"] / total, "ratio"),
        "input.backend.brute": metric(backends["brute"] / total, "ratio"),
        "input.backend.closed_form": metric(backends["closed-form"] / total, "ratio"),
        "input.endogenous.p50": metric(statistics.median(sizes), "count"),
        "input.endogenous.max": metric(sizes[-1], "count"),
        "input.worlds_per_request": metric(c.get("core.enumerate_worlds.worlds", 0) / len(requests), "count"),
        "input.masks_per_request": metric(masks / len(requests), "count"),
    })
    return out


def traced_run(cli, plan, workload_name: str):
    """Replay the trace set, each request once untraced and then once under
    each of two tracers, so the pairs see the same host; returns (samples,
    metrics, counters of the two tracers agree)."""
    from tracer import Tracer

    entries = plan.schedule[: plan.trace_requests]
    first, second = Tracer(), Tracer()
    untraced, traced, again = [], [], []
    for i, entry in enumerate(entries):
        argv = plan.request(entry).argv
        untraced.append((entry, *call(cli, argv)))
        for tracer, samples in ((first, traced), (second, again)):
            tracer.install()
            try:
                with tracer.request(i):
                    samples.append((entry, *call(cli, argv)))
            finally:
                tracer.uninstall()
    agree = first.counts() == second.counts()
    if not agree:
        print(f"traced counters differ between passes: {first.counts()} vs {second.counts()}", file=sys.stderr)
    outdir = ROOT / ".bench_out"
    outdir.mkdir(exist_ok=True)
    first.write_spans(outdir / f"{workload_name}.spans.tsv")
    (outdir / f"{workload_name}.counters.json").write_text(
        json.dumps(dict(sorted(first.counters.items())), indent=1), encoding="utf-8")
    metrics = per_layer(plan, entries, first, untraced, traced)
    return untraced + traced + again, metrics, agree


def main(argv=None) -> int:
    if not (ROOT / "src" / "causalpdb" / "__init__.py").is_file():
        print(f"bench: no causalpdb sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    args = parse_args(argv)

    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        cli, plan, setup_s = set_up(WORKLOADS[args.workload], args.seed, workdir)
        if args.trace:
            samples, metrics, agree = traced_run(cli, plan, args.workload)
        else:
            samples = closed_loop(cli, plan, args.seconds)
            metrics, agree = end_to_end(samples, setup_s), True
        problems = verify(cli, plan, samples)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            workdir.parent.rmdir()
    failed = sum(p is not None for p in problems)
    for (entry, _, _), problem in zip(samples, problems):
        if problem is not None:
            print(f"FAILED {' '.join(plan.request(entry).argv)}: {problem}", file=sys.stderr)
    print(f"attempted {len(samples)} count")
    print(f"failed_ratio {failed / len(samples):.6f} ratio")
    for name, m in metrics.items():
        print(f"{name} {m['value']} {m['unit']}")
    correct = failed == 0 and agree
    print(json.dumps({"correct": correct, "attempted": len(samples), "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
