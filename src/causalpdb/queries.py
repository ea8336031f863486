"""Monotone queries over instances: concrete grammar, homomorphism
evaluation, structural analysis, and exact query probability.

Supported query classes: Boolean conjunctive queries, unions of them, and
scalar SUM/COUNT aggregates over a conjunctive body.  One homomorphism
search (`_homomorphisms`) walks the instance's records through its
argument index and serves world evaluation (restricted to the world's
tuples), lineage images and minimal satisfiable sets.  Query probability is
computed either by brute-force world enumeration or, for self-join-free
hierarchical BCQs on tuple-independent spaces, by lifted inference.  Every
brute-force expectation, here and in `interventions` and `scores`, is one
mass-weighted sum over the enumerated worlds of a function of the world
(`_world_sum`).  One function, `_route`, chooses the backend for
`query_probability`, the `prob` command and every causal effect: it
returns the backend label and, on the lifted and closed-form (single-atom
sum) routes, the validated space's tuple marginals with the expectation
that reads them.  An intervention on such a space is a marginal override
(`Intervention.force`: 1 for do(t in), 0 for do(t out)), so the same
expectation serves it.  The lifted safe plan is built once per query and
instance as a read-once formula over the tuples, and evaluated on any
independent marginals of those tuples: it splits the atoms into components
connected by unbound variables (independent, probabilities multiply),
binds the roots of a component (the variables in every atom of it) all at
once to each tuple of values that every atom's tuples offer, combining
those groundings as independent disjuncts, and turns an atom whose
variables are all bound into the disjunction of the leaves of the tuples
carrying its one fact, each leaf reading one tuple's marginal.

Query grammar, one rule per line (``;`` also separates rules, ``#`` starts
a comment)::

    Q() :- R1(X,Y), R2(Y), R3(Z)
    Q(sum(Y)) :- S(X,Y)
    Q(count()) :- E(X,Y)

Several Boolean rules with the same head form a union.  Variables start
uppercase; constants are lowercase identifiers, quoted strings, or numeric
literals.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterable, Iterator, Mapping

from .core import (
    Constant,
    InputError,
    InstanceStore,
    PDBSpace,
    Probability,
    RelationSchema,
    _kept,
    _ratio_sum,
    constant_repr,
    enumerate_worlds,
)

SUM = "sum"
COUNT = "count"


class QuerySyntaxError(InputError):
    """Query text rejected, with a line/column position in the message."""


class DichotomyError(Exception):
    """The lifted backend was asked to evaluate a query outside its PTIME
    class (non-hierarchical, self-joins, a union, or a non-independent
    space); exact evaluation then falls to the brute-force backend."""


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Var:
    name: str

    def __str__(self) -> str:
        return self.name


Term = Var | Constant


_BARE_CONSTANT = re.compile(r"[a-z_][A-Za-z0-9_]*")


def term_repr(term: Term) -> str:
    if isinstance(term, Var):
        return term.name
    if isinstance(term, str):
        return term if _BARE_CONSTANT.fullmatch(term) else f'"{term}"'
    return constant_repr(term)


@dataclass(frozen=True)
class Atom:
    predicate: str
    terms: tuple[Term, ...]

    @cached_property
    def variables(self) -> frozenset[str]:
        return frozenset(t.name for t in self.terms if isinstance(t, Var))

    def __str__(self) -> str:
        return f"{self.predicate}({','.join(map(term_repr, self.terms))})"


class _Rendered:
    """A query whose text (`str`) is rendered once, as `text`."""

    @cached_property
    def text(self) -> str:
        return str(self)


@dataclass(frozen=True)
class BCQ(_Rendered):
    atoms: tuple[Atom, ...]

    @property
    def variables(self) -> frozenset[str]:
        return frozenset(v for a in self.atoms for v in a.variables)

    def __str__(self) -> str:
        return ", ".join(map(str, self.atoms))


@dataclass(frozen=True)
class UBCQ(_Rendered):
    disjuncts: tuple[BCQ, ...]

    def __str__(self) -> str:
        return " ; ".join(map(str, self.disjuncts))


@dataclass(frozen=True)
class Aggregate(_Rendered):
    op: str  # SUM or COUNT
    target: Var | None
    atoms: tuple[Atom, ...]

    def __str__(self) -> str:
        head = f"sum({self.target})" if self.op == SUM else "count()"
        return f"{head} :- " + ", ".join(map(str, self.atoms))


@dataclass(frozen=True)
class QueryOfSet(_Rendered):
    """The monotone Boolean query that is true exactly on supersets of a
    fixed tuple-id set."""

    base: frozenset[str]

    def __str__(self) -> str:
        return "contains{" + ",".join(sorted(self.base)) + "}"


@dataclass(frozen=True)
class ConjQuery(_Rendered):
    """World-level conjunction of monotone Boolean queries."""

    parts: tuple["BooleanQuery", ...]

    def __str__(self) -> str:
        return " AND ".join(f"({p})" for p in self.parts)


@dataclass(frozen=True)
class DisjQuery(_Rendered):
    """World-level disjunction of monotone Boolean queries."""

    parts: tuple["BooleanQuery", ...]

    def __str__(self) -> str:
        return " OR ".join(f"({p})" for p in self.parts)


BooleanQuery = BCQ | UBCQ | QueryOfSet | ConjQuery | DisjQuery
Query = BooleanQuery | Aggregate


def is_boolean(q: Query) -> bool:
    return not isinstance(q, Aggregate)


# ---------------------------------------------------------------------------
# Grammar
# ---------------------------------------------------------------------------

# One token per match: the whitespace before it, then its kind's group;
# any other character is a ``bad`` token.
_TOKEN_RE = re.compile(
    r"""
    \s*(?:
      (?P<arrow>:-)
    | (?P<lp>\()
    | (?P<rp>\))
    | (?P<comma>,)
    | (?P<dot>\.)
    | (?P<number>-?\d+(?:\.\d+)?)
    | (?P<string>"[^"\n]*")
    | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<bad>\S)
    )
    """,
    re.VERBOSE,
)


_MAX_BODY_ATOMS = 200  # the evaluators nest once per atom, within the recursion limit


class _RuleParser:
    """Reads one rule with one token of lookahead, pulled as the previous
    one is consumed, so a refused rule is not tokenized past the refusal.
    A token's kind and text are read once, as it is pulled."""

    def __init__(self, text: str, line_no: int):
        self.matches = _TOKEN_RE.finditer(text)
        self.line_no = line_no
        self.text = None
        self.advance()

    def error(self, message: str) -> QuerySyntaxError:
        where = "end of rule"
        if self.kind is not None:
            where = f"column {self.match.start(self.kind) + 1}"
        return QuerySyntaxError(f"line {self.line_no}, {where}: {message}")

    def advance(self) -> str | None:
        """Consume the lookahead token and return its text; the next token,
        if any, becomes the lookahead (kind and text None past the last)."""
        consumed = self.text
        self.match = match = next(self.matches, None)
        self.kind = self.text = None
        if match is not None:
            self.kind = match.lastgroup
            self.text = match[self.kind]
            if self.kind == "bad":
                raise self.error(f"unexpected character {self.text!r}")
        return consumed

    def take(self, kind: str, what: str) -> str:
        if self.kind != kind:
            raise self.error(f"expected {what}")
        return self.advance()

    def parse_rule(self) -> tuple[str, tuple[str, Var | None], tuple[Atom, ...]]:
        head_name = self.take("ident", "query name")
        self.take("lp", "'('")
        head: tuple[str, Var | None] = ("boolean", None)
        if self.kind == "ident":
            op = self.text
            if op not in (SUM, COUNT):
                raise self.error(
                    f"free variables are not supported; head must be (), "
                    f"(sum(V)) or (count()), got {op!r}"
                )
            self.advance()
            self.take("lp", "'('")
            target: Var | None = None
            if op == SUM:
                name = self.take("ident", "aggregation variable")
                if not name[0].isupper():
                    raise self.error(
                        f"aggregation target {name!r} must be a variable"
                    )
                target = Var(name)
            self.take("rp", "')'")
            head = (op, target)
        self.take("rp", "')'")
        self.take("arrow", "':-'")
        atoms = [self.parse_atom()]
        while self.kind == "comma":
            self.advance()
            if len(atoms) == _MAX_BODY_ATOMS:
                raise self.error(
                    f"a rule body takes at most {_MAX_BODY_ATOMS} atoms; "
                    f"the evaluators recurse once per atom"
                )
            atoms.append(self.parse_atom())
        if self.kind == "dot":
            self.advance()
        if self.kind is not None:
            raise self.error(f"unexpected token {self.text!r}")
        return head_name, head, tuple(atoms)

    def parse_atom(self) -> Atom:
        pred = self.take("ident", "relation name")
        self.take("lp", "'('")
        terms: list[Term] = []
        if self.kind is not None and self.kind != "rp":
            terms.append(self.parse_term())
            while self.kind == "comma":
                self.advance()
                terms.append(self.parse_term())
        self.take("rp", "')'")
        return Atom(pred, tuple(terms))

    def parse_term(self) -> Term:
        kind, text = self.kind, self.text
        if kind is None:
            raise self.error("expected a term")
        if kind == "number":
            try:
                value = Fraction(text)
            except ValueError as exc:  # past the 4300-digit int limit
                raise self.error(f"cannot read number: {exc}") from None
            self.advance()
            return value
        if kind not in ("string", "ident"):
            raise self.error(f"expected a term, got {text!r}")
        self.advance()
        if kind == "string":
            return text[1:-1]
        return Var(text) if text[0].isupper() else text


def parse_query(
    text: str, schema: Mapping[str, RelationSchema] | None = None
) -> Query:
    """Parse query text into an AST.  With a schema, relation names and
    arities are checked; without one, any atom is accepted."""
    rules = []
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0]
        for piece in line.split(";"):
            parser = _RuleParser(piece, line_no)
            if parser.kind is not None:
                rules.append(parser.parse_rule())
    if not rules:
        raise QuerySyntaxError("no query rule found")
    names = {name for name, _, _ in rules}
    if len(names) > 1:
        raise QuerySyntaxError(
            f"all rules must share one head name, got {sorted(names)}"
        )
    heads = {head for _, head, _ in rules}
    if len(heads) > 1:
        raise QuerySyntaxError("rules mix aggregate and Boolean heads")
    (op, target), = heads
    if schema is not None:
        for _, _, atoms in rules:
            for atom in atoms:
                decl = schema.get(atom.predicate)
                if decl is None:
                    raise QuerySyntaxError(f"unknown relation {atom.predicate!r}")
                if len(atom.terms) != decl.arity:
                    raise QuerySyntaxError(
                        f"relation {atom.predicate!r} expects {decl.arity} "
                        f"arguments, got {len(atom.terms)} in {atom}"
                    )
    if op == "boolean":
        disjuncts = tuple(BCQ(atoms) for _, _, atoms in rules)
        return disjuncts[0] if len(disjuncts) == 1 else UBCQ(disjuncts)
    if len(rules) > 1:
        raise QuerySyntaxError("aggregate queries take a single rule")
    atoms = rules[0][2]
    if target is not None:
        body_vars = frozenset(v for a in atoms for v in a.variables)
        if target.name not in body_vars:
            raise QuerySyntaxError(
                f"aggregation target {target.name!r} does not occur in the body"
            )
    return Aggregate(op, target, atoms)


def load_query_file(path, schema=None) -> Query:
    """Read and parse a query file (`parse_query`), checked against the
    schema when one is given.

    The file is read on every call, so a rewritten file is always seen.
    The parses of the last 8 texts are kept (`core._kept`), each keyed by
    the text and the schema's items, so the same text under another
    schema is checked again.  A schema that cannot be hashed (say, a
    relation with list tags) is parsed on every call."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            text = handle.read()
        except UnicodeDecodeError as exc:
            raise InputError(f"{path}: not UTF-8 text ({exc})") from exc
    items = None if schema is None else tuple(schema.items())
    try:
        hash(items)
    except TypeError:  # no key to keep the parse by
        return parse_query(text, schema)
    return _parse_query_text(text, items)


@_kept(8)
def _parse_query_text(text: str, schema_items: tuple | None) -> Query:
    return parse_query(text, None if schema_items is None else dict(schema_items))


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def _unify(atom: Atom, args: tuple[Constant, ...], binding: dict) -> dict | None:
    # Constants are str or Fraction; cross-type values never compare equal.
    new = None
    for term, value in zip(atom.terms, args):
        if isinstance(term, Var):
            if new is not None and term.name in new:
                bound = new[term.name]
            else:
                bound = binding.get(term.name, _UNSET)
            if bound is _UNSET:
                if new is None:
                    new = {}
                new[term.name] = value
            elif bound != value:
                return None
        elif term != value:
            return None
    if new is None:
        return binding
    merged = dict(binding)
    merged.update(new)
    return merged


_UNSET = object()


def _homomorphisms(
    atoms: tuple[Atom, ...], instance: InstanceStore, world: frozenset[str] | None,
    binding: dict, chosen: list[str]
) -> Iterator[dict]:
    """The bindings that extend ``binding`` to the atoms through records of
    the instance (only those whose tuple id is in ``world``, when one is
    given), in record order; ``chosen`` holds the tuple ids of the records
    matched so far, in step with each yielded binding.  An atom's
    candidates are the fewest records that agree with one of its bound
    positions (a constant, or a variable an earlier atom bound), read from
    the instance's argument index; `_unify` still checks every term of each
    candidate.  Both indexes are read from the instance once per walk, as
    the dicts behind its read-only views."""
    return _walk(
        atoms, instance._predicate_index, instance._argument_index, world, binding, chosen
    )


def _walk(
    atoms: tuple[Atom, ...], by_predicate: dict, by_argument: dict,
    world: frozenset[str] | None, binding: dict, chosen: list[str]
) -> Iterator[dict]:
    if not atoms:
        yield binding
        return
    atom, rest = atoms[0], atoms[1:]
    candidates = by_predicate.get(atom.predicate, ())
    for pos, term in enumerate(atom.terms):
        value = binding.get(term.name, _UNSET) if isinstance(term, Var) else term
        if value is not _UNSET:
            matches = by_argument.get((atom.predicate, pos, value), ())
            if len(matches) < len(candidates):
                candidates = matches
    for rec in candidates:
        if world is not None and rec.tid not in world:
            continue
        merged = _unify(atom, rec.args, binding)
        if merged is not None:
            chosen.append(rec.tid)
            yield from _walk(rest, by_predicate, by_argument, world, merged, chosen)
            chosen.pop()


def evaluate(q: Query, instance: InstanceStore, tids: Iterable[str]):
    """Evaluate any query on the world given by a tuple-id set: 0/1 for
    Boolean forms (1 iff some homomorphism maps the query, or one disjunct
    of a union, into the world), an exact rational for aggregates (SUM adds
    the target value once per distinct body assignment; COUNT counts
    distinct assignments)."""
    world = frozenset(tids)
    if isinstance(q, QueryOfSet):
        return int(q.base <= world)
    if isinstance(q, ConjQuery):
        return min(evaluate(p, instance, world) for p in q.parts)
    if isinstance(q, DisjQuery):
        return max(evaluate(p, instance, world) for p in q.parts)
    if not world <= instance.tids:
        raise InputError(f"unknown tuple id {min(world - instance.tids)!r}")
    if isinstance(q, Aggregate):
        # Each target is checked as the walk yields it, so the first bad
        # value named is the first in record order.
        values: dict[frozenset, Fraction] = {}
        for binding in _homomorphisms(q.atoms, instance, world, {}, []):
            value = Fraction(1) if q.op == COUNT else binding[q.target.name]
            if not isinstance(value, Fraction):
                raise InputError(
                    f"non-numeric value {value!r} at aggregation target {q.target}"
                )
            values[frozenset(binding.items())] = value
        return sum(values.values(), Fraction(0))
    for disjunct in q.disjuncts if isinstance(q, UBCQ) else (q,):
        for _ in _homomorphisms(disjunct.atoms, instance, world, {}, []):
            return 1
    return 0


# ---------------------------------------------------------------------------
# Structure
# ---------------------------------------------------------------------------

def is_self_join_free(q: BCQ) -> bool:
    preds = [a.predicate for a in q.atoms]
    return len(preds) == len(set(preds))


def _atoms_of_vars(q: BCQ) -> dict[str, frozenset[int]]:
    occ: dict[str, set[int]] = {}
    for i, atom in enumerate(q.atoms):
        for v in atom.variables:
            occ.setdefault(v, set()).add(i)
    return {v: frozenset(s) for v, s in occ.items()}


def is_hierarchical(q: BCQ) -> bool:
    """True iff every variable pair has nested or disjoint atom sets."""
    return hierarchy_violation(q) is None


def hierarchy_violation(q: BCQ) -> tuple[str, str] | None:
    """The first variable pair breaking the hierarchy condition, or None."""
    occ = _atoms_of_vars(q)
    # The first violating pair is a pair of first variables of atom sets.
    firsts: dict[frozenset[int], str] = {}
    for v in sorted(occ):
        firsts.setdefault(occ[v], v)
    names = sorted(firsts.values())
    for i, x in enumerate(names):
        for y in names[i + 1:]:
            ax, ay = occ[x], occ[y]
            if not (ax <= ay or ay <= ax or not (ax & ay)):
                return (x, y)
    return None


@dataclass(frozen=True)
class ComponentPartition:
    """Variable-connected components of a BCQ's atoms (atom indices, in
    first-occurrence order; variable-free atoms are singletons)."""

    atoms: tuple[Atom, ...]
    groups: tuple[tuple[int, ...], ...]

    def atom_groups(self) -> tuple[tuple[Atom, ...], ...]:
        return tuple(tuple(self.atoms[i] for i in grp) for grp in self.groups)

    def subquery(self, index: int) -> BCQ:
        return BCQ(tuple(self.atoms[i] for i in self.groups[index]))

    def __len__(self) -> int:
        return len(self.groups)


def _atom_groups(
    atoms: tuple[Atom, ...], bound=frozenset()
) -> tuple[tuple[int, ...], ...]:
    """Indices of the atoms in each variable-connected component, where
    only variables outside `bound` connect atoms; components in
    first-occurrence order, atoms without such a variable alone."""
    groups: list[tuple[set[str], list[int]]] = []
    for i, atom in enumerate(atoms):
        free, members = set(atom.variables - bound), [i]
        for group in [g for g in groups if g[0] & free]:
            groups.remove(group)
            free |= group[0]
            members += group[1]
        groups.append((free, members))
    return tuple(
        tuple(sorted(members)) for _, members in sorted(groups, key=lambda g: min(g[1]))
    )


def components(q: BCQ) -> ComponentPartition:
    return ComponentPartition(q.atoms, _atom_groups(q.atoms))


# ---------------------------------------------------------------------------
# Query probability
# ---------------------------------------------------------------------------

BRUTE = "brute"
LIFTED = "lifted"
CLOSED_FORM = "closed-form"


def lifted_rejections(pdb: PDBSpace, q: Query) -> list[str]:
    """Why the lifted backend cannot run; empty means eligible."""
    reasons = []
    if not pdb.is_tid:
        reasons.append("the space is not tuple-independent")
    if isinstance(q, UBCQ):
        reasons.append("the query is a union, outside the hierarchical BCQ class")
    elif not isinstance(q, BCQ):
        reasons.append(f"the query is not a BCQ ({type(q).__name__})")
    elif not is_self_join_free(q):
        reasons.append("the query has self-joins, outside the dichotomy's scope")
    elif (pair := hierarchy_violation(q)) is not None:
        reasons.append(
            f"the query is non-hierarchical (variables {pair[0]} and {pair[1]} "
            f"overlap without containment), so exact evaluation is #P-hard"
        )
    return reasons


def query_probability(
    pdb: PDBSpace, q: Query, backend: str = "auto", cap: int | None = None
) -> Probability:
    """Exact probability that a monotone Boolean query holds.

    ``brute`` sums masses over the enumerated worlds; ``lifted`` evaluates
    the ground read-once safe plan and requires a self-join-free
    hierarchical BCQ on a tuple-independent space; ``auto`` picks lifted
    when eligible (`_route`).
    """
    return _probability(pdb, q, backend, cap)[0]


def _probability(
    pdb: PDBSpace, q: Query, backend: str, cap: int | None
) -> tuple[Probability, str]:
    """P(q) and the label of the route that computed it."""
    if isinstance(q, Aggregate):
        raise InputError("aggregate queries have expectations, not probabilities")
    route = _route(pdb, q, backend)
    if route.expectation is None:
        value = _world_sum(pdb, lambda world: evaluate(q, pdb.instance, world), cap)
        return Probability(value), route.backend
    return Probability(route.expectation(route.marginals)), route.backend


def expected_value(pdb: PDBSpace, q: Aggregate, cap: int | None = None) -> Fraction:
    """Exact expectation of a scalar aggregate by world enumeration."""
    if not isinstance(q, Aggregate):
        raise InputError("expected_value takes an aggregate query")
    return _world_sum(pdb, lambda world: evaluate(q, pdb.instance, world), cap)


def _world_sum(
    pdb: PDBSpace, value: Callable[[frozenset[str]], Fraction | int], cap: int | None
) -> Fraction:
    """The mass-weighted sum of ``value(W)`` over the enumerated worlds W of
    the space: E(q) when ``value`` evaluates q, P(q) for a Boolean q (its
    values are 0 and 1, as ``bool`` or ``int``).  The one mass-weighted
    loop over `enumerate_worlds`.  Each term's integer numerator is added
    over a running common denominator, which on an independent space
    settles after the first world, and the sum is one reduced
    ``Fraction``."""
    def terms():
        for world, mass in enumerate_worlds(pdb, cap):
            v = value(world)
            if v:
                yield mass.numerator * v.numerator, mass.denominator * v.denominator

    return _ratio_sum(terms())


Marginals = Mapping[str, Fraction]  # tid -> P(tuple)


@dataclass(frozen=True)
class _Route:
    """How a query's expectations on a space are computed: the backend
    label and, on the lifted and closed-form routes, the validated space's
    tuple marginals (`_plain`) with the expectation that reads them (or a
    copy of them with some overridden, as an intervention does).  The world
    route has neither."""

    backend: str
    marginals: Marginals | None = None
    expectation: Callable[[Marginals], Fraction] | None = None


def _route(pdb: PDBSpace, q: Query, backend: str = "auto") -> _Route:
    """The one place a backend is chosen.  ``brute`` classifies nothing and
    takes world sums.  ``lifted`` builds the safe plan once from the
    space's instance, and raises `DichotomyError` for a query outside its
    class.  ``auto`` takes that plan for a query in the class, the closed
    form for a single-atom sum on an independent space, and world sums
    otherwise.  The lifted and closed-form routes refuse an invalid space."""
    if backend not in ("auto", BRUTE, LIFTED):
        raise InputError(f"unknown backend {backend!r}")
    if backend == BRUTE:
        return _Route(BRUTE)
    if backend == "auto" and isinstance(q, Aggregate):
        if pdb.is_tid and q.op == SUM and len(q.atoms) == 1:
            return _Route(CLOSED_FORM, _plain(pdb), _closed_form_sum(pdb.instance, q))
        return _Route(BRUTE)
    reasons = lifted_rejections(pdb, q)
    if reasons:
        if backend == LIFTED:
            raise DichotomyError("; ".join(reasons))
        return _Route(BRUTE)
    return _Route(LIFTED, _plain(pdb), _lifted_plan(pdb.instance, q).probability)


def _plain(pdb: PDBSpace) -> dict[str, Fraction]:
    """A dict copy of the validated space's marginals, as plain
    ``Fraction``s: `Intervention.force` unpacks it twice per tuple, which
    is slow on the space's read-only view, and arithmetic with a
    `Probability`, a subclass, pays an ABC instance check per operation."""
    return {tid: Fraction(p) for tid, p in pdb.representation.marginals.items()}


def _closed_form_sum(instance: InstanceStore, q: Aggregate) -> Callable[[Marginals], Fraction]:
    """E(sum) for a single-atom body on an independent space, as a function
    of the tuple marginals: each fact matching the atom contributes its
    target value times the probability that one of its carriers is
    present.  The facts are matched, and their values checked, here once."""
    atom = q.atoms[0]
    carriers: dict[tuple, list[_Tuple]] = {}
    for rec in instance.records_by_predicate.get(atom.predicate, ()):
        carriers.setdefault(rec.args, []).append(_Tuple(rec.tid))
    terms = []
    for args, leaves in carriers.items():
        binding = _unify(atom, args, {})
        if binding is None:
            continue
        value = binding[q.target.name]
        if not isinstance(value, Fraction):
            raise InputError(
                f"non-numeric value {value!r} at aggregation target {q.target}"
            )
        terms.append((value, _either(leaves)))

    def expectation(marginals: Marginals) -> Fraction:
        total = Fraction(0)
        for value, fact in terms:
            total += value * fact.probability(marginals)
        return total
    return expectation


class _Tuple:
    """A leaf: the marginal of one tuple."""

    def __init__(self, tid: str):
        self.tid = tid

    def probability(self, marginals: Marginals) -> Fraction:
        return marginals[self.tid]


class _And:
    """Independent components: their probabilities multiply."""

    def __init__(self, children: tuple):
        self.children = children

    def probability(self, marginals: Marginals) -> Fraction:
        result = Fraction(1)
        for child in self.children:
            result *= child.probability(marginals)
        return result


class _Or:
    """Independent disjuncts (the groundings of a component, or the
    carriers of a fact): it holds with probability 1 - prod(1 - P(child)),
    and fails with none."""

    def __init__(self, children: tuple):
        self.children = children

    def probability(self, marginals: Marginals) -> Fraction:
        # Fraction minus Fraction: an int minus a Fraction pays an ABC
        # instance check.
        one = miss = Fraction(1)
        for child in self.children:
            miss *= one - child.probability(marginals)
        return one - miss


def _either(children: list):
    """The disjunction of independent children; one child stands alone."""
    return children[0] if len(children) == 1 else _Or(tuple(children))


def _lifted_plan(instance: InstanceStore, q: BCQ):
    """The safe plan of a self-join-free hierarchical BCQ as a read-once
    formula over the tuples of an instance: each tuple sits in at most one
    leaf (`_Tuple`), so the children of a node touch disjoint tuples.  Its
    `probability(m)` is P(q) under any independent marginals `m` of the
    instance's tuples, such as a space's marginals with some targets set to
    1 or 0 by an intervention.  A component with no root variable is
    refused (`DichotomyError`) once the tuples ground the roots above it;
    one they never reach adds no grounding."""

    def build(atoms: tuple[Atom, ...], tuples: list, bound: frozenset[str]):
        # tuples[i]: the (leaf, match) pairs of atoms[i] under the bound values.
        parts = []
        for group in _atom_groups(atoms, bound):
            free = [atoms[i].variables - bound for i in group]
            roots = sorted(free[0].intersection(*free[1:]))
            if not roots:
                if len(group) > 1:
                    raise DichotomyError(
                        "no variable occurs in every atom of a connected component; "
                        "the component is non-hierarchical"
                    )
                # An atom whose variables are all bound names one fact at
                # most; it holds iff one of the fact's carriers does.
                (i,) = group
                parts.append(_either([leaf for leaf, _ in tuples[i]]))
                continue
            # Bind every root at once: split each atom's tuples by root values.
            offers = []
            for i in group:
                offer: dict[tuple, list] = {}
                for leaf, match in tuples[i]:
                    offer.setdefault(tuple(match[v] for v in roots), []).append((leaf, match))
                offers.append(offer)
            sub = tuple(atoms[i] for i in group)
            parts.append(_either([
                build(sub, [offer[values] for offer in offers], bound.union(roots))
                for values in offers[0] if all(values in offer for offer in offers[1:])
            ]))
        return parts[0] if len(parts) == 1 else _And(tuple(parts))

    by_pred = instance.records_by_predicate
    tuples = []
    for atom in q.atoms:
        pairs = ((r.tid, _unify(atom, r.args, {})) for r in by_pred.get(atom.predicate, ()))
        tuples.append([(_Tuple(tid), match) for tid, match in pairs if match is not None])
    return build(q.atoms, tuples, frozenset())


# ---------------------------------------------------------------------------
# Minimal satisfiable sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MssFamily:
    """All minimal tuple-id sets making the query true; no member contains
    another."""

    sets: tuple[frozenset[str], ...]

    def __iter__(self):
        return iter(self.sets)

    def __len__(self) -> int:
        return len(self.sets)

    def as_lists(self) -> list[list[str]]:
        return [sorted(s) for s in self.sets]


def _homomorphism_images(
    instance: InstanceStore, q: BooleanQuery
) -> Iterator[frozenset[str]]:
    """The tuple-id sets that homomorphisms of a BCQ, or of a union's
    disjuncts, map the atoms onto, one per homomorphism (repeats
    included).  The query holds on a world iff the world contains one."""
    if isinstance(q, BCQ):
        disjuncts: tuple[BCQ, ...] = (q,)
    elif isinstance(q, UBCQ):
        disjuncts = q.disjuncts
    else:
        raise InputError(
            f"homomorphism images are defined for BCQs and unions, "
            f"not {type(q).__name__}"
        )
    for disjunct in disjuncts:
        chosen: list[str] = []
        for _ in _homomorphisms(disjunct.atoms, instance, None, {}, chosen):
            yield frozenset(chosen)


def minimal_satisfiable_sets(instance: InstanceStore, q: BooleanQuery) -> MssFamily:
    """The minimal homomorphism images (as tuple-id sets) of a BCQ or a
    union of BCQs into the instance."""
    images = set(_homomorphism_images(instance, q))
    minimal: list[frozenset[str]] = []
    for image in sorted(images, key=len):
        if not any(kept <= image for kept in minimal):
            minimal.append(image)
    return MssFamily(tuple(sorted(minimal, key=lambda s: tuple(sorted(s)))))


# ---------------------------------------------------------------------------
# Monotonicity
# ---------------------------------------------------------------------------

def is_monotone_check(q: Query, instance: InstanceStore, exhaustive_cap: int = 12) -> bool:
    """Boolean forms and COUNT are structurally monotone.  SUM is monotone
    when every reachable target value is nonnegative; with negative values
    in reach the check falls back to exhaustively testing single-tuple
    additions on small instances, and answers False beyond the cap."""
    if not isinstance(q, Aggregate):
        return True
    if q.op == COUNT:
        return True
    values = (b[q.target.name] for b in _homomorphisms(q.atoms, instance, None, {}, []))
    if all(isinstance(v, Fraction) and v >= 0 for v in values):
        return True
    if len(instance) > exhaustive_cap:
        return False
    tids = sorted(instance.tids)
    for mask in range(1 << len(tids)):
        world = frozenset(t for i, t in enumerate(tids) if mask >> i & 1)
        base = evaluate(q, instance, world)
        for tid in tids:
            if tid not in world:
                if evaluate(q, instance, world | {tid}) < base:
                    return False
    return True
