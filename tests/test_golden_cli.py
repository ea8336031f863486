"""Golden outputs of the commands that choose a backend: exit code, stdout
and stderr of `prob --backend auto|brute|lifted`, `score --kind
gces|ces-tid|ces-ui` and `oracle-compare --tuple <first endogenous tid>`,
in both formats, for every fixture document and query file.  The test
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
            commands += [["score", "--kind", kind] for kind in ("gces", "ces-tid", "ces-ui")]
            if tid is not None:
                commands.append(["oracle-compare", "--tuple", tid])
            for command in commands:
                for fmt in ("table", "json"):
                    out.append(command + files + ["--format", fmt])
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


if __name__ == "__main__":
    os.environ.pop(ENV_MAX_WORLDS, None)
    sys.path.insert(0, str(ROOT / "src"))
    results = [replay(argv) for argv in invocations()]
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(results, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(results)} invocations to {GOLDEN.relative_to(ROOT)}")
