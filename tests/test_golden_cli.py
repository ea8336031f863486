"""Golden outputs of the scoring commands: exit code, stdout and stderr of
`prob --backend auto|brute|lifted`, `score --kind
gces|ces-tid|ces-ui|shapley|banzhaf|power|weighted-power`,
`oracle-compare --tuple <first endogenous tid>` and `axioms --score
gces|banzhaf|shapley --query2 <the same query file>`, in both formats, for every fixture
document and query file, plus `intervene --in <first endogenous tid>` in
both formats for every fixture document.  The test
replays every recorded invocation in-process through `cli.main` and
requires byte-identical results, so a change to the engines that moves any
digit, label or message shows up here.

Regenerate the file (the only way to change it) by running this module as
a script from the repository root:

    PYTHONHASHSEED=0 PYTHONPATH=src python3 tests/test_golden_cli.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "causal_effects.json"
ENV_MAX_WORLDS = "CES_MAX_WORLDS"


def _first_endogenous(doc: Path) -> str | None:
    for entry in json.loads(doc.read_text(encoding="utf-8"))["tuples"]:
        if entry["kind"] == "endogenous":
            return entry["tid"]
    return None


def invocations() -> list[list[str]]:
    """Every recorded argv, with paths relative to the repository root."""
    out = []
    for doc in sorted((ROOT / "fixtures").glob("*.json")):
        tid = _first_endogenous(doc)
        for query in sorted((ROOT / "fixtures").glob("*.q")):
            files = ["--pdb", f"fixtures/{doc.name}", "--query", f"fixtures/{query.name}"]
            commands = [["prob", "--backend", b] for b in ("auto", "brute", "lifted")]
            commands += [
                ["score", "--kind", kind]
                for kind in (
                    "gces", "ces-tid", "ces-ui",
                    "shapley", "banzhaf", "power", "weighted-power",
                )
            ]
            if tid is not None:
                commands.append(["oracle-compare", "--tuple", tid])
            commands += [
                ["axioms", "--score", score, "--query2", f"fixtures/{query.name}"]
                for score in ("gces", "banzhaf", "shapley")
            ]
            for command in commands:
                for fmt in ("table", "json"):
                    out.append(command + files + ["--format", fmt])
        if tid is not None:
            for fmt in ("table", "json"):
                out.append(["intervene", "--in", tid, "--pdb", f"fixtures/{doc.name}", "--format", fmt])
    return out


def replay(argv: list[str]) -> dict:
    """Run one invocation in-process from the repository root."""
    from causalpdb.cli import main

    stdout, stderr = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
    finally:
        os.chdir(cwd)
    return {"argv": argv, "exit": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue()}


def test_causal_effect_commands_match_the_golden_file(monkeypatch):
    monkeypatch.delenv(ENV_MAX_WORLDS, raising=False)
    recorded = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert [r["argv"] for r in recorded] == invocations()
    for want in recorded:
        assert replay(want["argv"]) == want, " ".join(want["argv"])


# Replays every recorded invocation in a fresh interpreter and prints the
# argv of each one whose result differs, as one JSON list.
_REPLAY_ALL = """
import json, sys
sys.path[:0] = sys.argv[1:]
import test_golden_cli as golden
recorded = json.loads(golden.GOLDEN.read_text(encoding="utf-8"))
print(json.dumps([r["argv"] for r in recorded if golden.replay(r["argv"]) != r]))
"""


def test_golden_file_replays_under_another_hash_seed():
    # Set and dict iteration over strings follows the hash seed; no output
    # may depend on it.  The file was recorded under PYTHONHASHSEED=0.
    env = {k: v for k, v in os.environ.items() if k != ENV_MAX_WORLDS}
    env["PYTHONHASHSEED"] = "1"
    done = subprocess.run(
        [sys.executable, "-c", _REPLAY_ALL, str(ROOT / "src"), str(ROOT / "tests")],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == []


if __name__ == "__main__":
    os.environ.pop(ENV_MAX_WORLDS, None)
    sys.path.insert(0, str(ROOT / "src"))
    results = [replay(argv) for argv in invocations()]
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(results, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(results)} invocations to {GOLDEN.relative_to(ROOT)}")
