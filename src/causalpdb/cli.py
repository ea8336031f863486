"""Command-line front end: ingest a PDB JSON document and a query file,
dispatch to the engines, and emit deterministic reports.

Exit codes: 0 on success, 1 on a domain error (lifted backend refused the
query, validation found violations, an enumeration cap was hit), 2 on an
input error (missing or malformed files, bad identifiers, bad flags).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .axioms import (
    SCORE_FUNCTIONS,
    _require_boolean,
    check_dum,
    check_eff,
    check_g_eff,
    check_g_sym,
    check_lin,
    check_sym,
)
from .core import (
    ExplicitWorlds,
    InputError,
    InvalidSpaceError,
    ResourceLimitError,
    fraction_to_decimal,
    load_pdb_file,
    require_valid,
    space_to_document,
)
from .interventions import Intervention, intervene
from .queries import (
    BCQ,
    DichotomyError,
    _probability,
    components,
    hierarchy_violation,
    is_self_join_free,
    load_query_file,
)
from .scores import ScoreKind, gces_oracle, score_all

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_INPUT = 2

ENV_MAX_WORLDS = "CES_MAX_WORLDS"


def _frac_json(value) -> dict:
    return {
        "value": f"{value.numerator}/{value.denominator}",
        "decimal": fraction_to_decimal(value),
    }


def _require_printable(*values) -> None:
    """Refuse a result whose numerator or denominator has more digits than
    Python converts to text (`sys.get_int_max_str_digits`, 0 = no limit)."""
    limit = sys.get_int_max_str_digits()
    for value in values if limit else ():
        num, den = value.as_integer_ratio()
        for part in (abs(num), den):
            # Below 2**(3*limit) < 10**limit a part has at most `limit` digits.
            if part.bit_length() > 3 * limit and part >= 10 ** limit:
                raise ResourceLimitError(
                    f"cannot print the result: its numerator or denominator has "
                    f"more than {limit} digits, Python's limit for converting "
                    f"an integer to text"
                )


def _emit_json(payload: dict):
    parts: list[str] = []
    _write_json(payload, parts, "\n")
    print("".join(parts))


_json_string = json.encoder.encode_basestring_ascii


def _write_json(value, parts: list[str], newline: str) -> None:
    """Append the text of ``json.dumps(value, indent=2, sort_keys=True)``
    to ``parts``, for string keys; ``newline`` is a line break followed
    by the current indent.  Scalars other than strings, ints, booleans
    and None (floats, or a type json refuses) go to `json.dumps`."""
    if isinstance(value, str):
        parts.append(_json_string(value))
    elif isinstance(value, dict):
        if not value:
            parts.append("{}")
            return
        inner = newline + "  "
        lead = "{" + inner
        for key in sorted(value):
            parts += (lead, _json_string(key), ": ")
            _write_json(value[key], parts, inner)
            lead = "," + inner
        parts.append(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            parts.append("[]")
            return
        inner = newline + "  "
        lead = "[" + inner
        for item in value:
            parts.append(lead)
            _write_json(item, parts, inner)
            lead = "," + inner
        parts.append(newline + "]")
    elif value is None:
        parts.append("null")
    elif value is True:
        parts.append("true")
    elif value is False:
        parts.append("false")
    elif isinstance(value, int):
        parts.append(int.__repr__(value))
    else:
        parts.append(json.dumps(value))


def _resolve_cap(args) -> int | None:
    """The enumeration cap from ``--max-endogenous``, else from the
    environment, else None (the default cap); a negative cap is refused.
    `main` resolves it once, for every command, into
    ``args.max_endogenous``."""
    cap = args.max_endogenous
    name = "--max-endogenous"
    if cap is None:
        env = os.environ.get(ENV_MAX_WORLDS)
        if env is None:
            return None
        try:
            cap = int(env)
        except ValueError:
            raise InputError(f"{ENV_MAX_WORLDS}={env!r} is not an integer") from None
        name = ENV_MAX_WORLDS
    if cap < 0:
        raise InputError(f"{name} must not be negative, got {cap}")
    return cap


def _read(args, need_space: bool = True):
    doc = load_pdb_file(args.pdb)
    if need_space and doc.space is None:
        raise InputError(
            f"{args.pdb}: no distribution; the document needs 'worlds' or 'marginals'"
        )
    return doc


def _load(args, need_space: bool = True):
    """Read the document and refuse an invalid space before anything uses
    it."""
    doc = _read(args, need_space)
    if doc.space is not None:
        try:
            require_valid(doc.space)
        except InvalidSpaceError as exc:
            raise InvalidSpaceError(f"{args.pdb}: {exc}") from None
    return doc


def _load_query(args, doc):
    return load_query_file(args.query, doc.instance.schema)


def _add_common(sub, query: bool = True):
    sub.add_argument("--pdb", required=True, help="PDB JSON document")
    if query:
        sub.add_argument("--query", required=True, help="query file")
    sub.add_argument(
        "--format", choices=("table", "json"), default="table", help="output format"
    )
    sub.add_argument(
        "--max-endogenous", type=int, default=None,
        help=f"enumeration cap override (also {ENV_MAX_WORLDS})",
    )
    sub.add_argument(
        "--threads", type=int, default=1,
        help="worker count; results are identical for any value",
    )


def _check_threads(args):
    if args.threads < 1:
        raise InputError("--threads must be at least 1")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_validate(args) -> int:
    doc = _read(args)
    violations = doc.space._violations  # the verdict the space keeps
    if args.format == "json":
        _emit_json(
            {
                "valid": not violations,
                "violations": [
                    {"code": v.code, "detail": v.detail} for v in violations
                ],
            }
        )
    else:
        if not violations:
            print("valid")
        for v in violations:
            print(f"violation [{v.code}] {v.detail}")
    return EXIT_OK if not violations else EXIT_DOMAIN


def cmd_prob(args) -> int:
    doc = _load(args)
    q = _load_query(args, doc)
    value, backend = _probability(doc.space, q, args.backend, args.max_endogenous)
    _require_printable(value)
    if args.format == "json":
        _emit_json({"probability": _frac_json(value), "backend": backend})
    else:
        print(
            f"P(Q) = {fraction_to_decimal(value)} "
            f"({value.numerator}/{value.denominator}) [{backend}]"
        )
    return EXIT_OK


def cmd_score(args, by_rank: bool = False) -> int:
    doc = _load(args, need_space=False)
    q = _load_query(args, doc)
    try:
        kind = ScoreKind(args.kind)
    except ValueError:
        raise InputError(
            f"unknown score kind {args.kind!r}; choose from "
            + ", ".join(k.value for k in ScoreKind)
        ) from None
    needs_space = kind in (ScoreKind.GCES, ScoreKind.CES_TID, ScoreKind.WEIGHTED_POWER)
    source = doc.space if needs_space else doc.instance
    if needs_space and doc.space is None:
        raise InputError(
            f"score kind {kind.value!r} needs a distribution in the document"
        )
    report = score_all(source, q, kind, args.max_endogenous)
    _require_printable(*report.values().values())
    if args.format == "json":
        _emit_json(report.to_json_dict())
    else:
        print(report.to_table(by_rank=by_rank))
    return EXIT_OK


def cmd_rank(args) -> int:
    return cmd_score(args, by_rank=True)


def _parse_targets(raw: list[str] | None) -> frozenset[str]:
    out = []
    for item in raw or []:
        out.extend(part.strip() for part in item.split(",") if part.strip())
    return frozenset(out)


def cmd_intervene(args) -> int:
    doc = _load(args)
    ins = _parse_targets(args.force_in)
    outs = _parse_targets(args.force_out)
    iv = Intervention(ins=ins, outs=outs)
    derived = intervene(doc.space, iv)
    rep = derived.representation
    table = rep.masses if isinstance(rep, ExplicitWorlds) else rep.marginals
    _require_printable(*table.values())
    if args.format == "json":
        _emit_json(space_to_document(derived))
    else:
        rep = space_to_document(derived)
        print(f"intervention: {iv}")
        if "worlds" in rep:
            for entry in rep["worlds"]:
                print("  {" + ",".join(entry["tids"]) + "} " + entry["p"])
        else:
            for tid, p in rep["marginals"].items():
                print(f"  {tid} {p}")
    return EXIT_OK


def cmd_dichotomy(args) -> int:
    schema = None
    if args.pdb is not None:
        schema = _load(args, need_space=False).instance.schema
    q = load_query_file(args.query, schema)
    if not isinstance(q, BCQ):
        raise InputError("dichotomy classification takes a single BCQ")
    sjf = is_self_join_free(q)
    hier = hierarchy_violation(q)
    groups = [
        [str(a) for a in grp] for grp in components(q).atom_groups()
    ]
    if not sjf:
        verdict = "out of dichotomy scope (self-join)"
    elif hier is None:
        verdict = "PTIME"
    else:
        verdict = "#P-hard"
    payload = {
        "self_join_free": sjf,
        "hierarchical": hier is None,
        "components": groups,
        "verdict": verdict,
    }
    if hier is not None:
        payload["witness_pair"] = list(hier)
    if args.format == "json":
        _emit_json(payload)
    else:
        print(f"self-join free: {str(sjf).lower()}")
        print(f"hierarchical:   {str(hier is None).lower()}")
        for i, grp in enumerate(groups, start=1):
            print(f"component C{i}:   " + ", ".join(grp))
        if hier is not None:
            print(f"witness pair:   ({hier[0]}, {hier[1]})")
        print(f"verdict:        {verdict}")
    return EXIT_OK


def cmd_axioms(args) -> int:
    cap = args.max_endogenous
    doc = _load(args)
    q = _load_query(args, doc)
    _require_boolean(q)
    # A bad second query is refused before any check builds a table.
    q2 = None
    if args.query2:
        q2 = load_query_file(args.query2, doc.instance.schema)
        _require_boolean(q2)
    # Each check asks for scores the others ask for too; one request
    # scores each (query, tuple) once, under the request's cap.
    score_fn = functools.cache(functools.partial(SCORE_FUNCTIONS[args.score], cap=cap))
    verdicts = [
        check_dum(doc.space, q, score_fn, cap),
        check_eff(doc.space, q, score_fn, cap),
        check_sym(doc.space, q, score_fn, cap),
        check_g_eff(doc.space, q, score_fn, cap),
        check_g_sym(doc.space, q, score_fn, cap),
    ]
    if q2 is not None:
        verdicts.append(check_lin(doc.space, q, q2, score_fn, cap))
    _require_printable(*(
        side for v in verdicts for w in v.witnesses for side in (w.lhs, w.rhs)
    ))
    if args.format == "json":
        _emit_json({"score": args.score, "verdicts": [v.to_json_dict() for v in verdicts]})
    else:
        for v in verdicts:
            status = "holds" if v.holds else "FAILS"
            print(f"{v.axiom:>6}: {status}")
            for w in v.witnesses:
                print(f"        witness {w}")
    return EXIT_OK


def cmd_oracle_compare(args) -> int:
    doc = _load(args)
    q = _load_query(args, doc)
    targets = _parse_targets(args.tuple)
    if not targets:
        raise InputError("oracle-compare needs at least one --tuple")
    report = gces_oracle(doc.space, q, targets, args.max_endogenous)
    _require_printable(report.materialized, report.direct, report.subset_form or 0)
    if args.format == "json":
        payload = {
            "targets": list(report.targets),
            "materialized": _frac_json(report.materialized),
            "direct": _frac_json(report.direct),
            "agree": report.agree,
        }
        if report.subset_form is not None:
            payload["subset_form"] = _frac_json(report.subset_form)
        _emit_json(payload)
    else:
        print(f"targets:       {','.join(report.targets)}")
        print(
            f"materialized:  {fraction_to_decimal(report.materialized)} "
            f"({report.materialized})"
        )
        print(f"direct sums:   {fraction_to_decimal(report.direct)} ({report.direct})")
        if report.subset_form is not None:
            print(
                f"subset form:   {fraction_to_decimal(report.subset_form)} "
                f"({report.subset_form})"
            )
        print(f"agree:         {str(report.agree).lower()}")
        print(f"value:         {fraction_to_decimal(report.value)} ({report.value})")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by every
    `main` call in the process; callers must not mutate it."""
    return _parsers()[0]


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict]:
    """The top-level parser and each command's parser by name."""
    parser = argparse.ArgumentParser(
        prog="causalpdb",
        description="Exact causal-attribution scores over probabilistic databases",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check space invariants")
    _add_common(p, query=False)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("prob", help="query probability")
    _add_common(p)
    p.add_argument("--backend", choices=("auto", "brute", "lifted"), default="auto")
    p.set_defaults(func=cmd_prob)

    p = sub.add_parser("score", help="score every endogenous tuple")
    _add_common(p)
    p.add_argument("--kind", required=True, help="score kind (gces, ces-tid, ces-ui, shapley, banzhaf, power, weighted-power)")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("rank", help="score and list tuples by rank")
    _add_common(p)
    p.add_argument("--kind", required=True, help="score kind")
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("intervene", help="materialize an intervened distribution")
    _add_common(p, query=False)
    p.add_argument("--in", dest="force_in", action="append", help="tuples forced present")
    p.add_argument("--out", dest="force_out", action="append", help="tuples forced absent")
    p.set_defaults(func=cmd_intervene)

    p = sub.add_parser("dichotomy", help="classify a BCQ (PTIME vs #P-hard)")
    p.add_argument("--query", required=True, help="query file")
    p.add_argument("--pdb", default=None, help="optional PDB document for schema checks")
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.add_argument("--max-endogenous", type=int, default=None)
    p.add_argument("--threads", type=int, default=1)
    p.set_defaults(func=cmd_dichotomy)

    p = sub.add_parser("axioms", help="run axiom checks for a score function")
    _add_common(p)
    p.add_argument("--query2", default=None, help="second query (enables LIN)")
    p.add_argument("--score", choices=sorted(SCORE_FUNCTIONS), default="gces")
    p.set_defaults(func=cmd_axioms)

    p = sub.add_parser("oracle-compare", help="causal effect along independent routes")
    _add_common(p)
    p.add_argument("--tuple", action="append", help="target tuple id (repeatable)")
    p.set_defaults(func=cmd_oracle_compare)

    return parser, sub.choices


def _parse_argv(argv) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``, read at one level when it can:
    a leading command's arguments go straight to that command's parser,
    the one the top-level parser hands them to.  When that parser leaves
    an argument over, or ``argv`` does not start with a command, the
    top-level parser reads ``argv`` itself, so every message, usage line
    and exit code is its own."""
    argv = sys.argv[1:] if argv is None else list(argv)
    command = _parsers()[1].get(argv[0]) if argv else None
    if command is not None:
        args, rest = command.parse_known_args(argv[1:])
        if not rest:
            args.command = argv[0]
            return args
    return build_parser().parse_args(argv)


def main(argv=None) -> int:
    args = _parse_argv(argv)
    try:
        _check_threads(args)
        args.max_endogenous = _resolve_cap(args)
        return args.func(args)
    except (DichotomyError, ResourceLimitError, InvalidSpaceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
