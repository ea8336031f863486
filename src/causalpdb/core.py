"""Relational instances and probability spaces over their possible worlds.

A probabilistic database is modelled as an ``InstanceStore`` (facts with
tuple identifiers, partitioned into endogenous and exogenous tuples) plus a
distribution over subinstances.  Two distribution representations are
supported: an explicit list of worlds with masses, and a tuple-independent
one with per-tuple marginals.  All probability arithmetic is exact: masses
and marginals are ``fractions.Fraction`` values parsed from decimal or
``num/den`` strings, never binary floats.  A space hands out its
distribution only while valid, checked once; `validate` reports.
"""

from __future__ import annotations

import json
import math
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

ENDOGENOUS = "endogenous"
EXOGENOUS = "exogenous"

SYMBOLIC = "symbolic"
NUMERIC = "numeric"

#: Default cap on the number of free (probability strictly between 0 and 1)
#: endogenous tuples a tuple-independent space may have when its worlds are
#: enumerated: 2**25 worlds is the practical desk-scale exact limit.
DEFAULT_WORLD_CAP = 25

Constant = str | Fraction


class InputError(ValueError):
    """Malformed input: bad wire data, unknown identifiers, bad arguments."""


class InvalidSpaceError(InputError):
    """A distribution breaks a space invariant (see `validate`)."""


class ResourceLimitError(RuntimeError):
    """An exact enumeration would exceed a configured size cap."""


_KEEPERS: list = []


def _kept(size: int):
    """Keep the results of a function's last ``size`` distinct calls, each
    keyed by its arguments and Python's int digit limit, so what was
    derived under one limit is not served under another.  An error is
    never kept: a failing call fails again every time."""

    def keep(derive):
        keyed = lru_cache(maxsize=size)(lambda _limit, *args: derive(*args))
        _KEEPERS.append(keyed)

        def kept(*args):
            return keyed(sys.get_int_max_str_digits(), *args)

        kept.cache_info = keyed.cache_info
        return kept

    return keep


def clear_kept() -> None:
    """Forget every kept parse and subset lattice: each is derived again."""
    for keyed in _KEEPERS:
        keyed.cache_clear()


class Probability(Fraction):
    """An exact rational probability, validated to lie in [0, 1].

    Arithmetic on probabilities degrades to plain ``Fraction`` (sums and
    differences of probabilities are not themselves probabilities).
    """

    def __new__(cls, value, denominator=None):
        if isinstance(value, float):
            raise InputError(
                "probabilities must be exact (string, int, or Fraction), not float"
            )
        if denominator is None:
            self = super().__new__(cls, value)
        else:
            self = super().__new__(cls, value, denominator)
        if not 0 <= self <= 1:
            raise InputError(f"probability {_number_text(self)!r} outside [0, 1]")
        return self

    @classmethod
    def from_wire(cls, text) -> "Probability":
        """Parse a probability from its wire form: a decimal string like
        ``"0.25"`` or a rational string like ``"1/12"`` (`_parse_fraction`).
        A document repeats a few marginals, so the last 64 texts are kept."""
        if not isinstance(text, str):
            raise InputError(
                f"probability must be a decimal or num/den string, got {text!r}"
            )
        return _probability_text(cls, text)


@_kept(64)
def _probability_text(cls: type[Probability], text: str) -> Probability:
    try:
        value = _parse_fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"cannot parse probability {text!r}: {exc}") from exc
    return cls(value)


def _parse_fraction(text: str) -> Fraction:
    """A rational from a decimal or ``num/den`` string.  Exponent notation
    is refused before `Fraction` expands it: ``"1e-999999999"`` would
    become a billion-digit denominator."""
    if re.search(r"[0-9.][eE]", text):
        raise ValueError("exponent notation is not supported")
    return Fraction(text)


def parse_constant(value, tag: str | None = None) -> Constant:
    """Normalize a wire-level constant: strings stay symbolic unless the
    position is tagged numeric, ints become Fractions, floats are rejected."""
    if isinstance(value, str):  # the common case, checked first
        if tag == NUMERIC:
            try:
                return _parse_fraction(value)
            except (ValueError, ZeroDivisionError) as exc:
                raise InputError(
                    f"value {value!r} in a numeric position is not a number"
                ) from exc
        return value
    if isinstance(value, bool):
        raise InputError(f"boolean constant {value!r} not allowed")
    if isinstance(value, float):
        raise InputError(
            f"binary float constant {value!r} not allowed; use an int or a decimal string"
        )
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, Fraction):
        return Fraction(value.numerator, value.denominator)
    raise InputError(f"unsupported constant {value!r}")


def constant_repr(value: Constant) -> str:
    if isinstance(value, Fraction):
        return str(value.numerator) if value.denominator == 1 else str(value)
    return value


def _quoted(value: Constant) -> str:
    """A constant quoted for a message; a number with more digits than
    Python converts to text is described instead."""
    try:
        return repr(constant_repr(value))
    except ValueError:
        return _number_text(value)


def _number_text(value: Fraction) -> str:
    """A number for a message, described instead when it has more digits
    than Python converts to text."""
    try:
        return str(value)
    except ValueError:
        return f"a number of more than {sys.get_int_max_str_digits()} digits"


def fraction_to_wire(value: Fraction) -> str:
    """Render a rational as a finite decimal when one exists, else ``num/den``."""
    reduced = value.denominator
    for prime in (2, 5):
        while reduced % prime == 0:
            reduced //= prime
    if reduced != 1:
        return f"{value.numerator}/{value.denominator}"
    digits = 0
    while 10 ** digits % value.denominator != 0:
        digits += 1
    scaled = value.numerator * 10 ** digits // value.denominator
    if digits == 0:
        return str(scaled)
    text = str(abs(scaled)).rjust(digits + 1, "0")
    sign = "-" if scaled < 0 else ""
    return f"{sign}{text[:-digits]}.{text[-digits:]}"


def fraction_to_decimal(value: Fraction, places: int = 6) -> str:
    """Round a rational to a fixed number of decimal places (half to even)."""
    num, den = value.as_integer_ratio()
    sign = "-" if num < 0 else ""
    quot, rem = divmod(abs(num) * 10 ** places, den)
    twice = 2 * rem
    if twice > den or (twice == den and quot % 2 == 1):
        quot += 1
    text = str(quot).rjust(places + 1, "0")
    return f"{sign}{text[:-places]}.{text[-places:]}"


@dataclass(frozen=True)
class TupleRecord:
    """One identified fact: relation name, argument list, and whether the
    tuple is subject to interventions (endogenous) or given (exogenous)."""

    tid: str
    predicate: str
    args: tuple[Constant, ...]
    kind: str

    def __post_init__(self):
        if self.kind not in (ENDOGENOUS, EXOGENOUS):
            raise InputError(
                f"tuple {self.tid!r}: kind must be {ENDOGENOUS!r} or {EXOGENOUS!r}, "
                f"got {self.kind!r}"
            )
        # A string or a plain Fraction is parsed already (a document's
        # arguments are parsed once, with their tags); anything else is not.
        object.__setattr__(self, "args", tuple(
            a if isinstance(a, str) or type(a) is Fraction else parse_constant(a)
            for a in self.args
        ))

    @property
    def is_endogenous(self) -> bool:
        return self.kind == ENDOGENOUS

    @property
    def fact(self) -> tuple[str, tuple[Constant, ...]]:
        return (self.predicate, self.args)

    def __str__(self) -> str:
        inner = ",".join(constant_repr(a) for a in self.args)
        return f"{self.tid}:{self.predicate}({inner})"


@dataclass(frozen=True)
class RelationSchema:
    name: str
    arity: int
    tags: tuple[str, ...] | None = None  # per-position SYMBOLIC/NUMERIC, None = unchecked

    def __post_init__(self):
        if self.tags is not None:
            if len(self.tags) != self.arity:
                raise InputError(
                    f"relation {self.name!r}: {len(self.tags)} tags for arity {self.arity}"
                )
            for tag in self.tags:
                if tag not in (SYMBOLIC, NUMERIC):
                    raise InputError(f"relation {self.name!r}: unknown tag {tag!r}")


class InstanceStore:
    """A schema plus a set of identified tuples, with the derived
    endogenous/exogenous partition and active domain.  The schema is a
    read-only view, the tuple-id sets are read-only properties and the
    record indexes are handed out as read-only views, so a space's verdict
    on the instance holds."""

    def __init__(self, schema: Mapping[str, RelationSchema], records: Iterable[TupleRecord]):
        schema = dict(schema)
        self._schema: Mapping[str, RelationSchema] = MappingProxyType(schema)
        by_tid: dict[str, TupleRecord] = {}
        for rec in records:
            if rec.tid in by_tid:
                raise InputError(f"duplicate tuple id {rec.tid!r}")
            decl = schema.get(rec.predicate)
            if decl is None:
                raise InputError(
                    f"tuple {rec.tid!r} uses undeclared relation {rec.predicate!r}"
                )
            if len(rec.args) != decl.arity:
                raise InputError(
                    f"tuple {rec.tid!r}: {rec.predicate!r} expects {decl.arity} "
                    f"arguments, got {len(rec.args)}"
                )
            if decl.tags is not None:
                # Only a string in a numeric position can still need parsing.
                args = tuple(
                    parse_constant(a, tag) if tag == NUMERIC and isinstance(a, str) else a
                    for a, tag in zip(rec.args, decl.tags)
                )
                for pos, (arg, tag) in enumerate(zip(args, decl.tags)):
                    if tag == SYMBOLIC and not isinstance(arg, str):
                        raise InputError(
                            f"tuple {rec.tid!r}: position {pos} of {rec.predicate!r} "
                            f"must be symbolic, got {_quoted(arg)}"
                        )
                rec = TupleRecord(rec.tid, rec.predicate, args, rec.kind)
            by_tid[rec.tid] = rec
        self._by_tid = by_tid
        self._tids = frozenset(by_tid)
        self._endogenous = frozenset(t for t, r in by_tid.items() if r.kind == ENDOGENOUS)
        self._exogenous = self._tids - self._endogenous
        self._endogenous_order = tuple(sorted(self._endogenous))
        # (query, packed lineage table) of the last Boolean query
        # `scores.EndoWorlds` built a lineage table for over this instance.
        self._lineage: tuple | None = None

    schema = property(lambda self: self._schema)
    tids = property(lambda self: self._tids)
    endogenous = property(lambda self: self._endogenous)
    exogenous = property(lambda self: self._exogenous)
    #: Endogenous tids in sorted order; the canonical bit order for
    #: subset enumerations.
    endogenous_order = property(lambda self: self._endogenous_order)

    def __contains__(self, tid: str) -> bool:
        return tid in self._by_tid

    @cached_property
    def _predicate_index(self) -> dict[str, tuple[TupleRecord, ...]]:
        by_pred: dict[str, list[TupleRecord]] = {}
        for rec in self.records():
            by_pred.setdefault(rec.predicate, []).append(rec)
        return {pred: tuple(recs) for pred, recs in by_pred.items()}

    @cached_property
    def _argument_index(self) -> dict[tuple, tuple[TupleRecord, ...]]:
        index: dict[tuple, list[TupleRecord]] = {}
        for rec in self.records():
            for pos, arg in enumerate(rec.args):
                index.setdefault((rec.predicate, pos, arg), []).append(rec)
        return {key: tuple(recs) for key, recs in index.items()}

    #: Read-only views of the indexes, each built once and kept in
    #: tuple-id order: records by predicate, and by (predicate, position,
    #: constant), where ``"1"`` and ``Fraction(1)`` are different keys.
    records_by_predicate = property(lambda self: MappingProxyType(self._predicate_index))
    records_by_argument = property(lambda self: MappingProxyType(self._argument_index))

    def __len__(self) -> int:
        return len(self._by_tid)

    def record(self, tid: str) -> TupleRecord:
        try:
            return self._by_tid[tid]
        except KeyError:
            raise InputError(f"unknown tuple id {tid!r}") from None

    def records(self, tids: Iterable[str] | None = None) -> list[TupleRecord]:
        if tids is None:
            return [self._by_tid[t] for t in sorted(self._by_tid)]
        return [self.record(t) for t in sorted(set(tids))]

    def adom(self) -> frozenset[Constant]:
        return frozenset(a for r in self._by_tid.values() for a in r.args)

    def require_endogenous(self, tids: Iterable[str]) -> frozenset[str]:
        tids = frozenset(tids)
        for tid in sorted(tids):  # the first bad id named is the least one
            rec = self.record(tid)
            if not rec.is_endogenous:
                raise InputError(f"tuple {tid!r} is exogenous")
        return tids

    def with_records(self, extra: Iterable[TupleRecord]) -> "InstanceStore":
        return InstanceStore(self.schema, list(self._by_tid.values()) + list(extra))


class ExplicitWorlds:
    """A distribution given world by world, each mass a probability.  Duplicate
    world entries are merged by summing mass; zero-mass entries are kept
    (they are legal, enumeration skips them)."""

    kind = "explicit"

    def __init__(self, entries: Iterable[tuple[Iterable[str], Fraction]]):
        masses: dict[frozenset[str], Fraction] = {}
        for tids, mass in entries:
            world = frozenset(tids)
            mass = mass if isinstance(mass, Probability) else Probability(mass)
            masses[world] = masses.get(world, Fraction(0)) + mass
        self._masses: Mapping[frozenset[str], Fraction] = MappingProxyType(masses)

    masses = property(lambda self: self._masses)

    def support(self) -> list[tuple[frozenset[str], Fraction]]:
        nonzero = [(w, m) for w, m in self.masses.items() if m != 0]
        return sorted(nonzero, key=lambda item: tuple(sorted(item[0])))

    def total_mass(self) -> Fraction:
        return _ratio_sum((m.numerator, m.denominator) for m in self.masses.values())


class TupleIndependent:
    """A distribution where each tuple holds independently with its marginal."""

    kind = "tid"

    def __init__(self, marginals: Mapping[str, Probability]):
        # A Probability is checked already; anything else is coerced here.
        self._marginals: Mapping[str, Probability] = MappingProxyType({
            tid: p if isinstance(p, Probability) else Probability(p)
            for tid, p in marginals.items()
        })

    marginals = property(lambda self: self._marginals)


Representation = ExplicitWorlds | TupleIndependent


class PDBSpace:
    """A probability space over the possible worlds of an instance.  The
    instance, the representation and its table are read-only, so one
    verdict holds: the space runs `validate` once, at the first read of its
    distribution, and refuses that read while the verdict lists violations."""

    def __init__(self, instance: InstanceStore, representation: Representation):
        self._instance = instance
        self._representation = representation

    instance = property(lambda self: self._instance)

    @property
    def representation(self) -> Representation:
        require_valid(self)
        return self._representation

    @cached_property
    def _violations(self) -> list[Violation]:
        return validate(self)

    @property
    def is_tid(self) -> bool:
        return isinstance(self._representation, TupleIndependent)

    def support(self) -> list[tuple[frozenset[str], Fraction]]:
        """Nonzero-mass worlds in canonical order (may enumerate a TID)."""
        return list(enumerate_worlds(self))


@dataclass(frozen=True)
class Violation:
    code: str
    detail: str


def validate(pdb: PDBSpace) -> list[Violation]:
    """Check every space invariant; an empty list means the space is valid.

    Reported codes: ``unknown-tid``, ``mass-total``, ``exogenous-missing``
    (a nonzero-mass world omits an exogenous tuple), ``missing-marginal``,
    and ``exogenous-marginal`` (an exogenous tuple with marginal != 1).
    """
    out: list[Violation] = []
    inst = pdb.instance
    rep = pdb._representation
    if isinstance(rep, ExplicitWorlds):
        total = rep.total_mass()
        if total != 1:
            out.append(
                Violation(
                    "mass-total", f"world masses sum to {_number_text(total)}, not 1"
                )
            )
        for world, mass in sorted(
            rep.masses.items(), key=lambda item: tuple(sorted(item[0]))
        ):
            unknown = sorted(t for t in world if t not in inst)
            if unknown:
                out.append(
                    Violation(
                        "unknown-tid",
                        f"world {sorted(world)} contains unknown tuple ids {unknown}",
                    )
                )
            if mass != 0:
                missing = sorted(inst.exogenous - world)
                if missing:
                    out.append(
                        Violation(
                            "exogenous-missing",
                            f"world {sorted(world)} has mass {_number_text(mass)} "
                            f"> 0 but omits exogenous tuples {missing}",
                        )
                    )
    else:
        assert isinstance(rep, TupleIndependent)
        marginals = rep.marginals
        for tid in sorted(marginals):
            if tid not in inst:
                out.append(
                    Violation("unknown-tid", f"marginal for unknown tuple id {tid!r}")
                )
        for tid in sorted(inst.tids):
            if tid not in marginals:
                out.append(
                    Violation("missing-marginal", f"tuple {tid!r} has no marginal")
                )
            elif tid in inst.exogenous and marginals[tid] != 1:
                out.append(
                    Violation(
                        "exogenous-marginal",
                        f"exogenous tuple {tid!r} has marginal "
                        f"{marginals[tid]}, expected 1",
                    )
                )
    return out


def require_valid(pdb: PDBSpace) -> None:
    """Refuse a space that breaks an invariant, naming every violation as
    ``[code] detail``: the masses of such a space mean nothing."""
    if pdb._violations:
        raise InvalidSpaceError(
            "invalid space: "
            + "; ".join(f"[{v.code}] {v.detail}" for v in pdb._violations)
        )


def world_probability(pdb: PDBSpace, world: Iterable[str]) -> Probability:
    """Mass of one world: the stored mass for explicit spaces, the product of
    marginals (members) and co-marginals (non-members) for independent ones."""
    rep = pdb.representation
    tids = frozenset(world)
    unknown = sorted(t for t in tids if t not in pdb.instance)
    if unknown:
        raise InputError(f"world contains unknown tuple ids {unknown}")
    if isinstance(rep, ExplicitWorlds):
        return Probability(rep.masses.get(tids, Fraction(0)))
    mass = Fraction(1)
    for tid in pdb.instance.tids:
        p = rep.marginals[tid]
        mass *= p if tid in tids else 1 - p
    return Probability(mass)


def tuple_probability(pdb: PDBSpace, tid: str) -> Probability:
    """Probability that a tuple is present: the sum of masses of the worlds
    containing it, which for an independent space is just its marginal."""
    rep = pdb.representation
    pdb.instance.record(tid)
    if isinstance(rep, TupleIndependent):
        return rep.marginals[tid]
    total = sum((m for w, m in rep.masses.items() if tid in w), Fraction(0))
    return Probability(total)


def _ratio_sum(terms: Iterable[tuple[int, int]]) -> Fraction:
    """The exact sum of n/d over (n, d) integer pairs with d > 0, as one
    reduced ``Fraction``.  Numerators accumulate over a running common
    denominator, widened by lcm only when a term's d does not divide it,
    so a stream of terms over one denominator costs no gcd per term."""
    num, den = 0, 1
    for n, d in terms:
        if d != den:
            if den % d:
                common = math.lcm(den, d)
                num *= common // den
                den = common
            n *= den // d
        num += n
    return Fraction(num, den)


#: Open tuples whose choices `enumerate_worlds` lists up front (at most
#: 2**10 entries), below the walk's recursion over the earlier ones.
_LISTED_OPEN = 10


def enumerate_worlds(
    pdb: PDBSpace, cap: int | None = None
) -> Iterator[tuple[frozenset[str], Fraction]]:
    """All nonzero-mass worlds with their masses, in canonical order:
    lexicographic over the worlds' sorted tuple-id lists.

    Explicit spaces stream their stored support.  An independent space's
    worlds are its sure tuples (marginal 1) plus any subset of its open
    ones (0 < marginal < 1), in tid order: the choices of the last
    `_LISTED_OPEN` open tuples are listed once, bottom up, and the earlier
    ones are walked one recursion level each, each level running through
    that list at its end.  More open tuples than the cap or than half the
    recursion limit are refused.  At an open tuple the worlds taking it
    come first, unless no sure tuple sorts after it: then the world leaving
    it and all later open tuples out is a prefix of them and comes first.
    A mass is an integer numerator (a marginal a/d gives a in, d - a out)
    over the product of the open denominators, reduced once per world.
    """
    rep = pdb.representation
    if isinstance(rep, ExplicitWorlds):
        yield from rep.support()
        return
    assert isinstance(rep, TupleIndependent)
    sure: list[str] = []
    opened: list[tuple[str, int, int]] = []  # (tid, a, d) of a marginal a/d
    for tid in sorted(pdb.instance.tids):
        p = rep.marginals[tid]
        if p == 1:
            sure.append(tid)
        elif p != 0:
            opened.append((tid, p.numerator, p.denominator))
    limit = DEFAULT_WORLD_CAP if cap is None else cap
    if len(opened) > limit:
        raise ResourceLimitError(
            f"{len(opened)} tuples with open marginals exceed the world "
            f"enumeration cap of {limit}"
        )
    depth = sys.getrecursionlimit() // 2
    if len(opened) > depth:
        raise ResourceLimitError(
            f"{len(opened)} tuples with open marginals exceed the world walk's "
            f"depth of {depth}, half the interpreter's recursion limit"
        )
    base = frozenset(sure)
    denominator = math.prod(d for _, _, d in opened)
    first = lambda tid: not sure or tid > sure[-1]  # no sure tuple sorts after tid
    # The last open tuples' choices in world order, built bottom up once,
    # as (members, numerator factor) pairs.
    top = max(len(opened) - _LISTED_OPEN, 0)
    tail: list[tuple[tuple[str, ...], int]] = [((), 1)]
    for tid, a, d in reversed(opened[top:]):
        ins = [((tid,) + members, factor * a) for members, factor in tail]
        outs = [(members, factor * (d - a)) for members, factor in tail]
        tail = outs[:1] + ins + outs[1:] if first(tid) else ins + outs

    def walk(i: int, chosen: tuple[str, ...], mass: int):
        if i == top:
            for members, factor in tail:
                yield base.union(chosen + members), Fraction(mass * factor, denominator)
            return
        tid, a, d = opened[i]
        rest = walk(i + 1, chosen, mass * (d - a))
        if first(tid):
            yield next(rest)
        yield from walk(i + 1, chosen + (tid,), mass * a)
        yield from rest

    yield from walk(0, (), 1)


def make_uniform_tid(instance: InstanceStore) -> PDBSpace:
    """The independent space assigning probability 1/2 to every endogenous
    tuple (exogenous tuples are sure)."""
    half = Probability(1, 2)
    one = Probability(1)
    marginals = {
        tid: (half if tid in instance.endogenous else one) for tid in instance.tids
    }
    return PDBSpace(instance, TupleIndependent(marginals))


# ---------------------------------------------------------------------------
# Wire format
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PdbDocument:
    """A parsed input document: always an instance, plus a distribution when
    the document carried `worlds` or `marginals`.  Read-only, like the
    instance and space it holds: `load_pdb_file` hands one document to every
    call that reads the same text."""

    instance: InstanceStore
    space: PDBSpace | None


_TUPLE_FIELDS = frozenset({"tid", "predicate", "args", "kind"})


def parse_pdb_document(doc) -> PdbDocument:
    """Parse the JSON wire form: ``schema`` (relation name -> arity or list
    of position tags), ``tuples``, and at most one of ``worlds`` or
    ``marginals``.  Probabilities are decimal or ``num/den`` strings."""
    if not isinstance(doc, dict):
        raise InputError("document root must be a JSON object")
    unknown = sorted(set(doc) - {"schema", "tuples", "worlds", "marginals"})
    if unknown:
        raise InputError(f"unknown document fields {unknown}")
    schema_obj = doc.get("schema")
    if not isinstance(schema_obj, dict):
        raise InputError("document needs a 'schema' object")
    schema: dict[str, RelationSchema] = {}
    for name, decl in schema_obj.items():
        if isinstance(decl, bool):
            raise InputError(f"relation {name!r}: bad declaration {decl!r}")
        if isinstance(decl, int):
            schema[name] = RelationSchema(name, decl)
        elif isinstance(decl, list):
            schema[name] = RelationSchema(name, len(decl), tuple(decl))
        else:
            raise InputError(f"relation {name!r}: bad declaration {decl!r}")
    tuple_list = doc.get("tuples")
    if not isinstance(tuple_list, list):
        raise InputError("document needs a 'tuples' list")
    records = []
    for entry in tuple_list:
        if not isinstance(entry, dict):
            raise InputError(f"bad tuple entry {entry!r}")
        if not entry.keys() >= _TUPLE_FIELDS:
            missing = sorted(_TUPLE_FIELDS.difference(entry))
            raise InputError(f"tuple entry {entry!r} misses {missing}")
        if not isinstance(entry["predicate"], str):
            raise InputError(
                f"tuple {entry['tid']!r}: predicate must be a string, "
                f"got {entry['predicate']!r}"
            )
        decl = schema.get(entry["predicate"])
        tags = (decl.tags or ()) if decl is not None else ()
        args = entry["args"]
        if not isinstance(args, list):
            raise InputError(f"tuple {entry['tid']!r}: args must be a list")
        # An argument past the declared tags is parsed untagged.
        parsed = tuple(map(parse_constant, args, tags + (None,) * len(args)))
        records.append(
            TupleRecord(str(entry["tid"]), entry["predicate"], parsed, entry["kind"])
        )
    instance = InstanceStore(schema, records)
    has_worlds = "worlds" in doc
    has_marginals = "marginals" in doc
    if has_worlds and has_marginals:
        raise InputError("document may carry 'worlds' or 'marginals', not both")
    space: PDBSpace | None = None
    if has_worlds:
        worlds_obj = doc["worlds"]
        if not isinstance(worlds_obj, list):
            raise InputError("'worlds' must be a list")
        entries = []
        for w in worlds_obj:
            if not (isinstance(w, dict) and isinstance(w.get("tids"), list) and "p" in w):
                raise InputError(f"bad world entry {w!r}")
            entries.append((list(map(str, w["tids"])), Probability.from_wire(w["p"])))
        space = PDBSpace(instance, ExplicitWorlds(entries))
    elif has_marginals:
        marg_obj = doc["marginals"]
        if not isinstance(marg_obj, dict):
            raise InputError("'marginals' must be an object")
        marginals = {str(t): Probability.from_wire(p) for t, p in marg_obj.items()}
        space = PDBSpace(instance, TupleIndependent(marginals))
    return PdbDocument(instance, space)


def load_pdb_file(path) -> PdbDocument:
    """Read and parse a PDB JSON document (`parse_pdb_document`).

    The file is read on every call, so a rewritten file is always seen.
    The parse of the text read last is kept (`_kept`), so a repeated
    document comes back with its space's validity verdict and its
    instance's argument index already built.  A failing document fails
    again on every call, and a JSON error names that call's path."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            text = handle.read()
        except ValueError as exc:  # not UTF-8
            raise InputError(f"{path}: invalid JSON ({exc})") from exc
    try:
        return _parse_document_text(text)
    except _NotJSON as refused:
        exc = refused.__cause__
        raise InputError(f"{path}: invalid JSON ({exc})") from exc


class _NotJSON(Exception):
    """`json.loads` refused a document's text (the cause); the loader names
    the path."""


@_kept(1)
def _parse_document_text(text: str) -> PdbDocument:
    try:
        doc = json.loads(text)
    # ValueError: bad JSON, or an int past the digit limit;
    # RecursionError: arrays or objects nested too deep to decode.
    except (ValueError, RecursionError) as exc:
        raise _NotJSON from exc
    return parse_pdb_document(doc)


def space_to_document(pdb: PDBSpace) -> dict:
    """Serialize a space back to the wire form (schema, tuples, and the
    distribution), with deterministic ordering."""
    inst = pdb.instance
    schema = {
        name: (list(decl.tags) if decl.tags is not None else decl.arity)
        for name, decl in sorted(inst.schema.items())
    }
    tuples = [
        {
            "tid": rec.tid,
            "predicate": rec.predicate,
            "args": [
                (a if isinstance(a, str) else constant_repr(a)) for a in rec.args
            ],
            "kind": rec.kind,
        }
        for rec in inst.records()
    ]
    doc: dict = {"schema": schema, "tuples": tuples}
    rep = pdb.representation
    if isinstance(rep, ExplicitWorlds):
        doc["worlds"] = [
            {"tids": sorted(world), "p": fraction_to_wire(mass)}
            for world, mass in rep.support()
        ]
    else:
        assert isinstance(rep, TupleIndependent)
        doc["marginals"] = {
            tid: fraction_to_wire(rep.marginals[tid]) for tid in sorted(rep.marginals)
        }
    return doc
