"""Seeded input generators for the benchmark workloads.

Each workload turns a seed into a `Plan`: PDB JSON documents and query
files written under a work directory, plus a schedule of CLI requests.
Requests come in groups that share one instance; a group is the unit the
off-clock checks verify (some checks compare two requests of a group).

Every random choice is drawn from `random.Random(f"{workload}:{seed}")`,
so the same seed writes byte-identical files.  Sizes, query shapes and
score kinds follow a fixed cycle and only the instance contents are
random, so the mix of cheap and expensive requests is the same for every
seed.  Each cycle interleaves cheap, mid-cost and expensive requests in
fixed shares, so that the median request falls inside one tier and the
tail percentile (at least ten samples beyond it, about p70-p85 for the
30-100 requests of a run) inside the expensive tier, not on the edge
between two tiers, where a few requests more or less would move it.

Nothing here imports causalpdb: the generators write the wire format the
CLI reads, and keep the generated structure in memory for the oracles.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

NODES = ("a", "b", "c", "d", "e", "f")
MIDDLE = ("c", "d", "e", "f")

# Query bodies are lists of disjuncts; a disjunct is a list of atoms
# (predicate, terms); a term starting with an uppercase letter is a variable.
L1 = (("E", ("a", "b")),)
L2 = (("E", ("a", "Z1")), ("E", ("Z1", "b")))
L3 = (("E", ("a", "Z1")), ("E", ("Z1", "Z2")), ("E", ("Z2", "b")))
L4 = (("E", ("a", "Z1")), ("E", ("Z1", "Z2")), ("E", ("Z2", "Z3")), ("E", ("Z3", "b")))
PATH_QUERY = (L1, L2, L3, L4)  # fixtures/path_query.q: a path from a to b
COUNT_BODY = (("E", ("X", "Y")), ("E", ("Y", "Z")))

STAR_QUERY = ((("R", ("X",)), ("S", ("X", "Y"))),)
STAR_T_QUERY = ((("R", ("X",)), ("S", ("X", "Y")), ("T", ("Z",))),)
NONHIER_QUERY = ((("R", ("X",)), ("S", ("X", "Y")), ("T", ("Y",))),)
T_QUERY = ((("T", ("Y",)),),)

SKEWED = ("1/20", "1/10", "1/5", "4/5", "9/10", "19/20")
SPREAD = ("1/10", "1/4", "1/3", "1/2", "2/3", "3/4", "9/10")


@dataclass
class Doc:
    """A generated PDB document: facts as (tid, predicate, args, kind)."""

    name: str
    facts: list
    marginals: dict | None = None
    worlds: list | None = None  # [(frozenset of tids, Fraction)]

    @property
    def endogenous(self) -> list[str]:
        return sorted(t for t, _, _, kind in self.facts if kind == "endogenous")

    def to_json(self, schema: dict) -> str:
        doc = {
            "schema": schema,
            "tuples": [
                {"tid": t, "predicate": p, "args": list(args), "kind": kind}
                for t, p, args, kind in self.facts
            ],
        }
        if self.marginals is not None:
            doc["marginals"] = {t: str(p) for t, p in sorted(self.marginals.items())}
        if self.worlds is not None:
            doc["worlds"] = [
                {"tids": sorted(w), "p": str(m)} for w, m in self.worlds
            ]
        return json.dumps(doc, sort_keys=True)


@dataclass
class Request:
    argv: tuple[str, ...]
    pair: str  # "document|query": requests sharing it repeat a pair
    n_endogenous: int
    expect_exit: int = 0


@dataclass(frozen=True)
class Outcome:
    """What one request returned: exit code, stdout and stderr."""

    code: int
    out: str
    err: str


@dataclass
class Group:
    """Requests on one instance plus the data their checks need."""

    kind: str
    requests: list[Request]
    doc: Doc
    info: dict = field(default_factory=dict)


@dataclass
class Plan:
    groups: list[Group]
    trace_requests: int  # leading schedule entries the traced run replays

    @property
    def schedule(self) -> list[tuple[int, int]]:
        return [
            (g, r) for g, group in enumerate(self.groups)
            for r in range(len(group.requests))
        ]

    def request(self, entry: tuple[int, int]) -> Request:
        return self.groups[entry[0]].requests[entry[1]]


def query_text(body, head: str = "Q()") -> str:
    return "\n".join(
        f"{head} :- " + ", ".join(f"{p}({','.join(terms)})" for p, terms in atoms)
        for atoms in body
    ) + "\n"


class _Writer:
    def __init__(self, workdir: Path, schema: dict):
        self.dir = workdir
        self.schema = schema
        self.dir.mkdir(parents=True, exist_ok=True)

    def doc(self, doc: Doc) -> str:
        path = self.dir / f"{doc.name}.json"
        path.write_text(doc.to_json(self.schema), encoding="utf-8")
        return str(path)

    def query(self, name: str, text: str) -> str:
        path = self.dir / f"{name}.q"
        path.write_text(text, encoding="utf-8")
        return str(path)


def _score(kind: str, pdb: str, query: str, fmt: str = "json"):
    return ("score", "--kind", kind, "--pdb", pdb, "--query", query, "--format", fmt)


def _marginals(rng, facts, choices) -> dict:
    return {
        t: (Fraction(rng.choice(choices)) if kind == "endogenous" else Fraction(1))
        for t, _, _, kind in facts
    }


def _edge_doc(rng, name: str, n_endo: int, n_exo: int) -> Doc:
    """A directed graph over NODES with n_endo endogenous and n_exo
    exogenous edges.  `a` has two endogenous edges out, `b` two in, both
    into or out of the middle nodes, and there is no edge a->b; the other
    edges neither leave `a` nor enter `b`.  Fixing the degrees at `a` and
    `b` keeps the cost of a value table for an a-to-b path query within
    about 15% across seeds, where free random graphs vary it threefold;
    and no a-to-b path lies in the exogenous part alone."""
    out_a = [("a", m) for m in rng.sample(MIDDLE, 2)]
    in_b = [(m, "b") for m in rng.sample(MIDDLE, 2)]
    rest = [
        (u, v) for u in NODES for v in NODES
        if u != v and u != "a" and v != "b"
    ]
    picked = rng.sample(rest, n_endo - 4 + n_exo)
    endo = out_a + in_b + picked[: n_endo - 4]
    rng.shuffle(endo)
    facts = [(f"e{i + 1}", "E", e, "endogenous") for i, e in enumerate(endo)]
    facts += [(f"x{i + 1}", "E", e, "exogenous") for i, e in enumerate(picked[n_endo - 4:])]
    return Doc(name, facts)


def _explicit_worlds(rng, doc: Doc, count: int) -> list:
    """`count` distinct endogenous subsets, each with every exogenous tuple,
    with random rational masses summing to exactly 1."""
    endo = doc.endogenous
    exo = frozenset(t for t, _, _, kind in doc.facts if kind == "exogenous")
    masks = rng.sample(range(1 << len(endo)), count)
    weights = [rng.randint(1, 9) for _ in masks]
    total = sum(weights)
    return [
        (frozenset(t for i, t in enumerate(endo) if m >> i & 1) | exo, Fraction(w, total))
        for m, w in zip(masks, weights)
    ]


# ---------------------------------------------------------------------------
# subset-scores: the shared value table of the subset-enumeration scores
# ---------------------------------------------------------------------------

SUBSET_QUERIES = {"path": PATH_QUERY, "len3": (L3,), "len4": (L4,)}
# (endogenous edges, query) per group.  Every instance has 12 endogenous and
# 2 exogenous edges (~0.1-0.2 s a request on a 2-core x86 host), so the
# requests form one cost cluster and the median and the tail both fall
# inside it.  Mixing 12- to 15-edge instances put the median on the edge
# between two clusters (13 edges cost twice what 12 do), where a few
# requests more or less moved it by a quarter from seed to seed.
SUBSET_CYCLE = ((12, "path"), (12, "len4"), (12, "len3"))
SUBSET_KINDS = ("shapley", "banzhaf", "power", "weighted-power")


def subset_scores(seed: int, workdir: Path, groups: int = 120) -> Plan:
    rng = random.Random(f"subset-scores:{seed}")
    out = _Writer(workdir, {"E": 2})
    queries = {name: out.query(name, query_text(body)) for name, body in SUBSET_QUERIES.items()}
    plan = []
    for g in range(groups):
        n, qname = SUBSET_CYCLE[g % len(SUBSET_CYCLE)]
        doc = _edge_doc(rng, f"s{g}", n, 2)
        doc.marginals = _marginals(rng, doc.facts, SPREAD)
        path = out.doc(doc)
        requests = [
            Request(_score(kind, path, queries[qname]), f"{doc.name}|{qname}", n)
            for kind in SUBSET_KINDS
        ]
        info = {
            "body": SUBSET_QUERIES[qname], "query": queries[qname],
            "probe": rng.choice(doc.endogenous),
        }
        plan.append(Group("subset", requests, doc, info))
    return Plan(plan, trace_requests=16)


# ---------------------------------------------------------------------------
# gces-brute: world enumeration behind the causal effect
# ---------------------------------------------------------------------------

# Not listed in BENCHMARK.json, whose runs are long enough to ride out
# drift in host speed and then leave no room for a fourth workload in the
# run budget; run it by name with --workload gces-brute.
#
# (group kind, endogenous tuples, score kind) per group.  Cheap tier:
# explicit-world documents, count() aggregates and 8-edge TIDs (~0.1-0.35 s);
# mid tier: the path query on 9-edge TIDs (~0.5 s); expensive tier: 10-edge
# TIDs (~1.1 s).  Eleven-edge TIDs (~1.6 s a request) would leave fewer than
# thirty requests in a run.
GCES_CYCLE = (
    ("explicit-path", 10, "gces"), ("tid-path", 10, "gces"), ("tid-path", 9, "gces"),
    ("tid-path", 8, "ces-tid"), ("tid-path", 10, "ces-tid"), ("explicit-count", 8, "gces"),
    ("tid-path", 9, "ces-tid"), ("tid-path", 10, "gces"),
    ("tid-count", 8, "gces"), ("tid-path", 10, "ces-tid"), ("tid-path", 9, "gces"),
    ("explicit-path", 11, "gces"), ("tid-path", 10, "gces"), ("tid-path", 8, "gces"),
    ("tid-path", 9, "ces-tid"), ("tid-path", 10, "ces-tid"),
)


def gces_brute(seed: int, workdir: Path, groups: int = 80) -> Plan:
    rng = random.Random(f"gces-brute:{seed}")
    out = _Writer(workdir, {"E": 2})
    queries = {
        "path": out.query("path", query_text(PATH_QUERY)),
        "count": out.query("count", query_text((COUNT_BODY,), head="Q(count())")),
    }
    plan = []
    for g in range(groups):
        kind, n, score = GCES_CYCLE[g % len(GCES_CYCLE)]
        shape, qname = kind.split("-")
        doc = _edge_doc(rng, f"g{g}", n, 2)
        if shape == "tid":
            doc.marginals = _marginals(rng, doc.facts, SKEWED)
        else:
            doc.worlds = _explicit_worlds(rng, doc, min(1 << n, rng.randint(200, 320)))
        path = out.doc(doc)
        request = Request(_score(score, path, queries[qname]), f"{doc.name}|{qname}", n)
        info = {"query": queries[qname], "aggregate": qname == "count", "probe": rng.choice(doc.endogenous)}
        plan.append(Group(kind, [request], doc, info))
    return Plan(plan, trace_requests=8)


# ---------------------------------------------------------------------------
# lifted-tid: the safe plan and per-tuple interventions
# ---------------------------------------------------------------------------

# (endogenous-tuple target, score kind, query) per group: cheap 40-50
# tuples (~0.1-0.25 s), mid 70 (~0.45 s), expensive 100 (~0.9 s), where the
# superlinear growth of the lifted cost sets the tail.  Instances of 150
# tuples (~2 s) would leave fewer than thirty requests in a run.
LIFTED_CYCLE = (
    (40, "ces-ui", "star"), (100, "ces-tid", "star"), (70, "ces-tid", "star-t"),
    (45, "ces-tid", "star-t"), (100, "ces-ui", "star-t"), (70, "ces-tid", "star-t"),
    (50, "ces-ui", "star-t"), (100, "ces-tid", "star-t"),
)


def _star_doc(rng, name: str, target: int, with_t: bool) -> Doc:
    """Facts for R(X), S(X,Y) (and T(Z)): R over some roots, S edges from
    roots (some of them without an R fact) to children, three exogenous
    tuples, and marginals drawn from SPREAD."""
    n_t = max(2, target // 12) if with_t else 0
    n_roots = max(3, (target - n_t) // 5)
    roots = [f"r{i}" for i in range(n_roots)]
    children = [f"c{i}" for i in range(max(8, n_roots))]
    facts = []
    n_r = max(2, n_roots - rng.randint(0, 2))
    for x in sorted(rng.sample(roots, n_r)):
        facts.append(("R", (x,)))
    pairs = rng.sample([(x, y) for x in roots for y in children], target - n_t - n_r)
    for x, y in sorted(pairs):
        facts.append(("S", (x, y)))
    for i in range(n_t):
        facts.append(("T", (f"z{i}",)))
    exo = set(rng.sample(range(len(facts)), 3))
    tuples = [
        (f"t{i + 1}", pred, args, "exogenous" if i in exo else "endogenous")
        for i, (pred, args) in enumerate(facts)
    ]
    return Doc(name, tuples, _marginals(rng, tuples, SPREAD))


def lifted_tid(seed: int, workdir: Path, groups: int = 120) -> Plan:
    rng = random.Random(f"lifted-tid:{seed}")
    out = _Writer(workdir, {"R": 1, "S": 2, "T": 1})
    queries = {
        "star": out.query("star", query_text(STAR_QUERY)),
        "star-t": out.query("star-t", query_text(STAR_T_QUERY)),
    }
    plan = []
    for g in range(groups):
        target, kind, qname = LIFTED_CYCLE[g % len(LIFTED_CYCLE)]
        doc = _star_doc(rng, f"l{g}", target, qname == "star-t")
        path = out.doc(doc)
        requests = [Request(_score(kind, path, queries[qname]), f"{doc.name}|{qname}", len(doc.endogenous))]
        plan.append(Group("lifted", requests, doc, {"kind": kind, "with_t": qname == "star-t"}))
    return Plan(plan, trace_requests=8)


# ---------------------------------------------------------------------------
# cli-requests: small documents through every command, both formats
# ---------------------------------------------------------------------------

# (R, S, T) fact counts per document; one fact is exogenous, so documents
# have 3 to 6 endogenous tuples, each size in a fixed share of the cycle.
SMALL_SHAPES = ((1, 2, 1), (2, 3, 2), (2, 2, 1), (1, 3, 2))


def _small_doc(rng, name: str, shape: tuple[int, int, int], explicit: bool) -> Doc:
    n_r, n_s, n_t = shape
    roots = ["a", "b", "c"]
    kids = ["u", "v", "w"]
    facts = [("R", (x,)) for x in rng.sample(roots, n_r)]
    facts += [("S", e) for e in rng.sample([(x, y) for x in roots for y in kids], n_s)]
    facts += [("T", (y,)) for y in rng.sample(kids, n_t)]
    rng.shuffle(facts)
    exo = rng.randrange(len(facts))
    tuples = [
        (f"t{i + 1}", p, args, "exogenous" if i == exo else "endogenous")
        for i, (p, args) in enumerate(facts)
    ]
    doc = Doc(name, tuples)
    if explicit:
        doc.worlds = _explicit_worlds(rng, doc, min(1 << len(doc.endogenous), rng.randint(6, 12)))
    else:
        doc.marginals = _marginals(rng, tuples, SPREAD)
    return doc


def cli_requests(seed: int, workdir: Path, groups: int = 48) -> Plan:
    rng = random.Random(f"cli-requests:{seed}")
    out = _Writer(workdir, {"R": 1, "S": 2, "T": 1})
    hq = out.query("hier", query_text(STAR_QUERY))
    nq = out.query("nonhier", query_text(NONHIER_QUERY))
    q2 = out.query("second", query_text(T_QUERY))
    plan = []
    for g in range(groups):
        shape = SMALL_SHAPES[g % len(SMALL_SHAPES)]
        doc = _small_doc(rng, f"c{g}", shape, explicit=g // len(SMALL_SHAPES) % 2 == 1)
        pdb = out.doc(doc)
        n = len(doc.endogenous)
        probe = rng.choice(doc.endogenous)
        dich_q = (hq, nq)[g // 2 % 2]
        commands = [
            ("validate", ("validate", "--pdb", pdb), "-", 0),
            ("prob-auto", ("prob", "--backend", "auto", "--pdb", pdb, "--query", hq), "hier", 0),
            ("prob-brute", ("prob", "--backend", "brute", "--pdb", pdb, "--query", hq), "hier", 0),
            ("prob-lifted", ("prob", "--backend", "lifted", "--pdb", pdb, "--query", nq), "nonhier", 1),
            ("ces-ui", ("score", "--kind", "ces-ui", "--pdb", pdb, "--query", hq), "hier", 0),
            ("banzhaf", ("score", "--kind", "banzhaf", "--pdb", pdb, "--query", hq), "hier", 0),
            ("rank-gces", ("rank", "--kind", "gces", "--pdb", pdb, "--query", hq), "hier", 0),
            ("intervene", ("intervene", "--pdb", pdb, "--in", probe), "-", 0),
            ("dichotomy", ("dichotomy", "--pdb", pdb, "--query", dich_q), "dich", 0),
            ("axioms", ("axioms", "--score", "gces", "--pdb", pdb, "--query", hq, "--query2", q2), "hier", 0),
            ("oracle", ("oracle-compare", "--pdb", pdb, "--query", hq, "--tuple", probe), "hier", 0),
        ]
        requests = []
        roles = []
        for fmt in ("table", "json"):
            for role, argv, qname, code in commands:
                requests.append(Request(argv + ("--format", fmt), f"{doc.name}|{qname}", n, code))
                roles.append((role, fmt))
        info = {
            "roles": roles, "probe": probe, "query": hq,
            "dichotomy_body": STAR_QUERY if dich_q == hq else NONHIER_QUERY,
        }
        plan.append(Group("cli", requests, doc, info))
    return Plan(plan, trace_requests=44)


WORKLOADS = {
    "subset-scores": subset_scores,
    "gces-brute": gces_brute,
    "lifted-tid": lifted_tid,
    "cli-requests": cli_requests,
}
