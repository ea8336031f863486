"""Off-clock output checks, one verifier per group kind.

A verifier takes a group and the outcomes of its requests and returns, per
request, None when the output is right or a message saying what is wrong.
Every check reaches the answer by a route other than the one the request
took: an independent homomorphism matcher and closed forms written here,
or a different causalpdb entry point (the swing-sum G-EFF identity, the
direct base-world sum of `gces_oracle`, `scores.weighted_power`).
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction

from causalpdb import axioms, load_pdb_file, load_query_file, scores

from workloads import STAR_QUERY, Group, Outcome


class CheckFailure(Exception):
    pass


def expect(condition: bool, message: str):
    if not condition:
        raise CheckFailure(message)


# ---------------------------------------------------------------------------
# Independent query evaluation over the generated facts
# ---------------------------------------------------------------------------

def _is_var(term: str) -> bool:
    return term[:1].isupper()


def _match(atoms, facts, env) -> bool:
    if not atoms:
        return True
    pred, terms = atoms[0]
    for fpred, args in facts:
        if fpred != pred:
            continue
        bound = dict(env)
        for term, arg in zip(terms, args):
            if _is_var(term):
                if bound.setdefault(term, arg) != arg:
                    break
            elif term != arg:
                break
        else:
            if _match(atoms[1:], facts, bound):
                return True
    return False


def holds(body, facts) -> bool:
    """Does some disjunct of a Boolean query body map into the facts?"""
    facts = list(facts)
    return any(_match(list(atoms), facts, {}) for atoms in body)


def is_hierarchical(atoms) -> bool:
    where: dict[str, set[int]] = {}
    for i, (_, terms) in enumerate(atoms):
        for term in terms:
            if _is_var(term):
                where.setdefault(term, set()).add(i)
    sets = list(where.values())
    return all(a <= b or b <= a or not a & b for a in sets for b in sets)


def _facts(group: Group, tids) -> list:
    chosen = set(tids)
    return [(p, args) for t, p, args, _ in group.doc.facts if t in chosen]


def _exogenous(group: Group) -> set[str]:
    return {t for t, _, _, kind in group.doc.facts if kind == "exogenous"}


def world_probability_sum(group: Group, body) -> Fraction:
    """P(Q) by summing the generated distribution over the worlds where
    the independent matcher finds the query."""
    doc = group.doc
    if doc.worlds is not None:
        return sum(
            (m for w, m in doc.worlds if holds(body, _facts(group, w))), Fraction(0)
        )
    sure = [t for t, p in doc.marginals.items() if p == 1]
    free = sorted(t for t, p in doc.marginals.items() if 0 < p < 1)
    total = Fraction(0)
    for mask in range(1 << len(free)):
        world = sure + [t for i, t in enumerate(free) if mask >> i & 1]
        if holds(body, _facts(group, world)):
            mass = Fraction(1)
            for i, t in enumerate(free):
                p = doc.marginals[t]
                mass *= p if mask >> i & 1 else 1 - p
            total += mass
    return total


def brute_banzhaf(group: Group, body) -> dict[str, Fraction]:
    """Banzhaf values straight from the definition."""
    endo = group.doc.endogenous
    exo = _exogenous(group)
    value = {}
    for mask in range(1 << len(endo)):
        world = exo | {t for i, t in enumerate(endo) if mask >> i & 1}
        value[mask] = int(holds(body, _facts(group, world)))
    share = Fraction(1, 1 << (len(endo) - 1))
    out = {}
    for i, t in enumerate(endo):
        bit = 1 << i
        out[t] = share * sum(value[m | bit] - value[m] for m in value if not m & bit)
    return out


# ---------------------------------------------------------------------------
# Output parsing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Scores:
    values: dict
    backends: dict
    ranking: list


def parse_scores(text: str) -> Scores:
    if text.lstrip().startswith("{"):
        doc = json.loads(text)
        values = {e["tid"]: Fraction(e["value"]) for e in doc["scores"]}
        backends = {e["tid"]: e["backend"] for e in doc["scores"]}
        return Scores(values, backends, list(doc["ranking"]))
    rows = [line.split() for line in text.strip().splitlines()]
    expect(rows and rows[0] == ["rank", "tid", "value", "exact", "backend"], "bad table header")
    values, backends, ranks = {}, {}, {}
    for rank, tid, _, exact, backend in rows[1:]:
        values[tid] = Fraction(exact)
        backends[tid] = backend
        ranks[tid] = int(rank)
    return Scores(values, backends, sorted(ranks, key=ranks.get))


def backend_mix(text: str) -> list[str]:
    """Backends named in an output's `backend` fields or column."""
    if text.lstrip().startswith("{"):
        doc = json.loads(text)
        if "scores" in doc:
            return [e["backend"] for e in doc["scores"]]
        return [doc["backend"]] if "backend" in doc else []
    if text.startswith("rank "):
        return list(parse_scores(text).backends.values())
    found = re.search(r"\[(\w[\w-]*)\]$", text.strip())
    return [found.group(1)] if found else []


def scored(text: str) -> int:
    """Tuple scores an output returns (score and rank outputs)."""
    if text.startswith("{"):
        return len(json.loads(text).get("scores", ()))
    if text.startswith("rank "):
        return len(text.strip().splitlines()) - 1
    return 0


def _covers(group: Group, values: dict):
    expect(sorted(values) == group.doc.endogenous, "scored tuples differ from the endogenous tuples")


def _load(group: Group, query: str):
    doc = load_pdb_file(group.requests[0].argv[group.requests[0].argv.index("--pdb") + 1])
    return doc, load_query_file(query, doc.instance.schema)


def _per_request(checks) -> list:
    out = []
    for check in checks:
        try:
            check()
            out.append(None)
        except (CheckFailure, ValueError, KeyError, IndexError) as exc:
            out.append(f"{type(exc).__name__}: {exc}")
    return out


# ---------------------------------------------------------------------------
# Verifiers
# ---------------------------------------------------------------------------

def verify_subset(group: Group, outcomes: list[Outcome]) -> list:
    parsed = {}
    for req, oc in zip(group.requests, outcomes):
        parsed[req.argv[2]] = parse_scores(oc.out)
    body = group.info["body"]
    n = len(group.doc.endogenous)
    exo = _exogenous(group)
    everything = [t for t, _, _, _ in group.doc.facts]

    def shapley():
        vals = parsed["shapley"].values
        _covers(group, vals)
        gain = int(holds(body, _facts(group, everything))) - int(holds(body, _facts(group, exo)))
        expect(sum(vals.values()) == gain, f"Shapley sum {sum(vals.values())} != Q(D) - Q(D_ex) = {gain}")

    def banzhaf_power():
        ban, power = parsed["banzhaf"].values, parsed["power"].values
        _covers(group, ban)
        _covers(group, power)
        scale = 1 << (n - 1)
        bad = [t for t in ban if ban[t] * scale != power[t]]
        expect(not bad, f"Banzhaf * 2^(N-1) != power for {bad}")

    def weighted():
        vals = parsed["weighted-power"].values
        _covers(group, vals)
        doc, q = _load(group, group.info["query"])
        probe = group.info["probe"]
        want = scores.weighted_power(doc.space, q, probe)
        expect(vals[probe] == want, f"weighted-power of {probe}: {vals[probe]} != {want}")

    checks = {"shapley": shapley, "banzhaf": banzhaf_power, "power": banzhaf_power,
              "weighted-power": weighted}
    return _per_request(checks[req.argv[2]] for req in group.requests)


def _g_eff_holds(group: Group, values: dict):
    doc, q = _load(group, group.info["query"])
    verdict = axioms.check_g_eff(doc.space, q, lambda pdb, query, tid: values[tid])
    expect(verdict.holds, f"G-EFF fails: {[str(w) for w in verdict.witnesses]}")


def verify_gces(group: Group, outcomes: list[Outcome]) -> list:
    def check():
        values = parse_scores(outcomes[0].out).values
        _covers(group, values)
        if not group.info["aggregate"]:
            _g_eff_holds(group, values)
            return
        doc, q = _load(group, group.info["query"])
        probe = group.info["probe"]
        report = scores.gces_oracle(doc.space, q, probe)
        expect(report.agree, f"oracle routes disagree for {probe}")
        expect(values[probe] == report.direct, f"{probe}: {values[probe]} != direct sum {report.direct}")

    return _per_request([check])


def _others(factors: list[Fraction]) -> list[Fraction]:
    """For each position, the product of all the other factors."""
    prefix = [Fraction(1)]
    for f in factors:
        prefix.append(prefix[-1] * f)
    out = [Fraction(0)] * len(factors)
    suffix = Fraction(1)
    for i in range(len(factors) - 1, -1, -1):
        out[i] = prefix[i] * suffix
        suffix *= factors[i]
    return out


def lifted_closed_form(group: Group) -> dict[str, Fraction]:
    """CE of every endogenous tuple for R(X),S(X,Y) [, T(Z)] on a TID, from
    the derivative of P(Q) = (1 - prod_x (1 - r_x s_x)) * P(T component),
    with s_x = 1 - prod_y (1 - p_S(x,y))."""
    doc = group.doc
    if group.info["kind"] == "ces-ui":
        p = {t: Fraction(1 if kind == "exogenous" else Fraction(1, 2)) for t, _, _, kind in doc.facts}
    else:
        p = doc.marginals
    r_tid, s_tids, t_tids = {}, {}, []
    for tid, pred, args, _ in doc.facts:
        if pred == "R":
            r_tid[args[0]] = tid
        elif pred == "S":
            s_tids.setdefault(args[0], []).append(tid)
        else:
            t_tids.append(tid)
    roots = sorted(set(r_tid) | set(s_tids))
    r = {x: p[r_tid[x]] if x in r_tid else Fraction(0) for x in roots}
    miss_s = {x: [1 - p[t] for t in s_tids.get(x, [])] for x in roots}
    s = {x: 1 - math.prod(miss_s[x]) for x in roots}
    factors = [1 - r[x] * s[x] for x in roots]
    outer = _others(factors)
    ce = {}
    p_t = Fraction(1)
    if group.info["with_t"]:
        t_miss = [1 - p[t] for t in t_tids]
        t_rest = _others(t_miss)
        p_t = 1 - math.prod(t_miss)
        p_star = 1 - math.prod(factors)
        for t, rest in zip(t_tids, t_rest):
            ce[t] = p_star * rest
    for i, x in enumerate(roots):
        if x in r_tid:
            ce[r_tid[x]] = s[x] * outer[i] * p_t
        for tid, rest in zip(s_tids.get(x, []), _others(miss_s[x])):
            ce[tid] = r[x] * rest * outer[i] * p_t
    endo = set(doc.endogenous)
    return {t: v for t, v in ce.items() if t in endo}


def verify_lifted(group: Group, outcomes: list[Outcome]) -> list:
    def check():
        got = parse_scores(outcomes[0].out)
        _covers(group, got.values)
        want = lifted_closed_form(group)
        bad = sorted(t for t in want if got.values[t] != want[t])
        expect(not bad, f"closed-form CE differs for {bad[:5]}")

    return _per_request([check])


_PROB_RE = re.compile(r"^P\(Q\) = \S+ \((-?\d+)/(\d+)\) \[(\w+)\]$")


def _prob(text: str) -> tuple[Fraction, str]:
    if text.lstrip().startswith("{"):
        doc = json.loads(text)
        return Fraction(doc["probability"]["value"]), doc["backend"]
    found = _PROB_RE.match(text.strip())
    expect(found is not None, f"unparsable prob output {text!r}")
    return Fraction(int(found.group(1)), int(found.group(2))), found.group(3)


def _table_fields(text: str) -> dict[str, str]:
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(":")
        if sep:
            out[key.strip()] = value.strip()
    return out


def verify_cli(group: Group, outcomes: list[Outcome]) -> list:
    info = group.info
    doc = group.doc
    probe = info["probe"]
    by_role = {role: oc for role, oc in zip(info["roles"], outcomes)}
    body = STAR_QUERY  # the query the cli-requests plan scores
    explicit = doc.worlds is not None

    def validate(fmt, oc):
        if fmt == "json":
            expect(json.loads(oc.out) == {"valid": True, "violations": []}, "space reported invalid")
        else:
            expect(oc.out.strip() == "valid", "space reported invalid")

    def prob(fmt, oc, backend):
        value, used = _prob(oc.out)
        want = world_probability_sum(group, body)
        expect(value == want, f"P(Q) {value} != world sum {want}")
        other = by_role[("prob-brute" if backend == "auto" else "prob-auto", fmt)]
        expect(_prob(other.out)[0] == value, "auto and brute backends disagree")
        expected = "brute" if backend == "brute" or explicit else "lifted"
        expect(used == expected, f"backend {used}, expected {expected}")

    def refused(fmt, oc):
        reason = "not tuple-independent" if explicit else "non-hierarchical"
        expect(oc.out == "" and reason in oc.err, f"lifted refusal should name {reason!r}")

    def ces_ui(fmt, oc):
        values = parse_scores(oc.out).values
        _covers(group, values)
        expect(values == parse_scores(by_role[("banzhaf", fmt)].out).values, "ces-ui != banzhaf")

    def banzhaf(fmt, oc):
        values = parse_scores(oc.out).values
        expect(values == brute_banzhaf(group, body), "banzhaf differs from its definition")

    def rank(fmt, oc):
        got = parse_scores(oc.out)
        _covers(group, got.values)
        expect(got.ranking == sorted(got.values, key=lambda t: (-got.values[t], t)), "ranking not by value")
        _g_eff_holds(group, got.values)

    def intervene(fmt, oc):
        if fmt == "json":
            rep = json.loads(oc.out)
            worlds = [(set(w["tids"]), Fraction(w["p"])) for w in rep.get("worlds", [])]
            marginals = {t: Fraction(p) for t, p in rep.get("marginals", {}).items()}
        else:
            lines = oc.out.strip().splitlines()
            expect(lines[0] == f"intervention: do({probe} in)", "wrong intervention header")
            worlds, marginals = [], {}
            for line in lines[1:]:
                key, value = line.split()
                if key.startswith("{"):
                    worlds.append((set(filter(None, key[1:-1].split(","))), Fraction(value)))
                else:
                    marginals[key] = Fraction(value)
        if explicit:
            expect(sum(m for _, m in worlds) == 1, "intervened masses do not sum to 1")
            expect(all(probe in w for w, _ in worlds), f"{probe} missing from an intervened world")
        else:
            want = dict(doc.marginals, **{probe: Fraction(1)})
            expect(marginals == want, "intervened marginals wrong")

    def dichotomy(fmt, oc):
        hier = is_hierarchical(info["dichotomy_body"][0])
        verdict = "PTIME" if hier else "#P-hard"
        if fmt == "json":
            rep = json.loads(oc.out)
            got = (rep["self_join_free"], rep["hierarchical"], rep["verdict"])
        else:
            fields = _table_fields(oc.out)
            got = (fields["self-join free"] == "true", fields["hierarchical"] == "true", fields["verdict"])
        expect(got == (True, hier, verdict), f"dichotomy {got}, expected {(True, hier, verdict)}")

    def axiom_lab(fmt, oc):
        if fmt == "json":
            verdicts = {v["axiom"]: v["holds"] for v in json.loads(oc.out)["verdicts"]}
        else:
            verdicts = {k: v == "holds" for k, v in _table_fields(oc.out).items() if v in ("holds", "FAILS")}
        bad = [a for a in ("DUM", "G-EFF", "G-SYM", "LIN") if verdicts.get(a) is not True]
        expect(not bad, f"axioms reported failing: {bad}")

    def oracle(fmt, oc):
        if fmt == "json":
            rep = json.loads(oc.out)
            agree, value = rep["agree"], Fraction(rep["materialized"]["value"])
        else:
            fields = _table_fields(oc.out)
            agree = fields["agree"] == "true"
            value = Fraction(fields["value"].split("(")[1].rstrip(")"))
        expect(agree, "oracle routes disagree")
        ranked = parse_scores(by_role[("rank-gces", fmt)].out).values
        expect(value == ranked[probe], f"oracle {value} != rank gces {ranked[probe]}")

    checks = {
        "validate": validate, "prob-auto": lambda f, o: prob(f, o, "auto"),
        "prob-brute": lambda f, o: prob(f, o, "brute"), "prob-lifted": refused,
        "ces-ui": ces_ui, "banzhaf": banzhaf, "rank-gces": rank, "intervene": intervene,
        "dichotomy": dichotomy, "axioms": axiom_lab, "oracle": oracle,
    }
    return _per_request(
        (lambda r=role, f=fmt, o=oc: checks[r](f, o))
        for (role, fmt), oc in zip(info["roles"], outcomes)
    )


VERIFIERS = {
    "subset": verify_subset,
    "tid-path": verify_gces, "explicit-path": verify_gces,
    "tid-count": verify_gces, "explicit-count": verify_gces,
    "lifted": verify_lifted,
    "cli": verify_cli,
}
