"""Attribution scores for endogenous tuples: the causal-effect score under
an arbitrary world distribution, its uniform-1/2 independent special case,
Shapley and Banzhaf values, and the swing-counting power functions.

Every score is exact.  The causal effect of a target set,
E[Q | do(T in)] - E[Q | do(T out)], is written once, in `_causal_effect`:
the route supplies one expectation of an intervention, taken for both.  On
a tuple-independent space an intervention only sets the targets' marginals
to 1 or 0 (`Intervention.force`), so self-join-free hierarchical BCQs (the
lifted evaluator) and single-atom sums (a closed form) read the validated
space's marginals forced that way, and no intervened space is built.  The
route comes from `queries._route`, the one place a backend is chosen;
`score_all` asks for it once, so the space is validated and the lifted plan
built once for all its tuples.  Every other case sums over worlds: a
Boolean query over the base worlds by their pushed images, an aggregate
over the materialized intervened spaces.  `gces_oracle` recomputes one
effect along independent routes, the same ones for every query.

Every subset score is one weighted swing sum: the sum, over the
endogenous subsets S without tuple t, of Q(S + t) - Q(S) times a weight
that depends only on the score.  Shapley weighs by |S| (2^N subsets beat
N! permutations), Banzhaf and power weigh uniformly, weighted power by the
mass p(S), and the causal effect's subset form by p(S) + p(S + t).  One
kernel, `_swing_scorer`, sums it over a Boolean table packed into one
integer, bit S set iff Q holds on S, with a few big-integer operations:
Banzhaf and power need one popcount per tuple, Shapley counts the swings
per subset size, and the mass-weighted kinds add the masses at their bits
as integer (numerator, denominator) pairs (`core._ratio_sum`).  The masks
these operations read depend on the number of tuples alone (`_Lattice`).
A score is linear in the game, so an aggregate, the sum of value(a) over
its distinct body assignments a, scores as the sum of value(a) times the
score of the Boolean game "a homomorphism with assignment a maps into S".

The table of a BCQ, a union or one such game comes from its lineage: over
a fixed instance such a query is the DNF of its homomorphism images, so a
subset satisfies it iff it holds an image's endogenous part.  The images'
masks are set in one integer and closed upward by one shift per tuple.
The world-level conjunction (`ConjQuery`), and a query with more images
than the table has subsets, are evaluated subset by subset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from itertools import compress
from typing import Callable, Iterable, Iterator, Sequence, Union

from .core import (
    DEFAULT_WORLD_CAP,
    ExplicitWorlds,
    InputError,
    InstanceStore,
    PDBSpace,
    ResourceLimitError,
    TupleIndependent,
    _kept,
    _ratio_sum,
    fraction_to_decimal,
    make_uniform_tid,
)
from .interventions import (
    Intervention,
    intervene,
    intervened_expectation,
    intervened_query_value,
)
from .queries import (
    BCQ,
    BRUTE,
    COUNT,
    UBCQ,
    Aggregate,
    Query,
    _homomorphism_images,
    _homomorphisms,
    _Route,
    _route,
    _world_sum,
    evaluate,
    is_boolean,
)


class ScoreKind(str, Enum):
    GCES = "gces"
    CES_TID = "ces-tid"
    CES_UI = "ces-ui"
    SHAPLEY = "shapley"
    BANZHAF = "banzhaf"
    POWER_TUPLE = "power"
    WEIGHTED_POWER = "weighted-power"


def _instance_of(source: Union[PDBSpace, InstanceStore]) -> InstanceStore:
    return source.instance if isinstance(source, PDBSpace) else source


class _Lattice:
    """The masks of the subset lattice over n tuples, each packed into one
    integer of 2^n bits: for each tuple bit, the subsets without it, and
    for Shapley, the subsets of each size with their integer weights.  They
    depend on n alone, so every `EndoWorlds` of one size shares one lattice
    (`_lattice`); each mask is built when first read."""

    def __init__(self, n: int):
        self.n = n
        self.size = 1 << n
        self._lacking: dict[int, int] = {}

    def lacking(self, bit: int) -> int:
        """The masks without ``bit`` (a power of two, not an index), as one
        integer: runs of ``bit`` set bits alternating with runs of ``bit``
        clear ones, built by copying the pattern onto itself at doubling
        distances: one shift and one OR per doubling."""
        mask = self._lacking.get(bit)
        if mask is None:
            mask = (1 << bit) - 1
            span = bit << 1
            while span < self.size:
                mask |= mask << span
                span <<= 1
            self._lacking[bit] = mask
        return mask

    @cached_property
    def levels(self) -> list[int]:
        """``levels[k]`` packs the masks of k bits among n."""
        levels = [1]
        for i in range(self.n):
            # k bits among i + 1: k among i without bit i, or k - 1 with it.
            span = 1 << i
            levels = [a | b << span for a, b in zip(levels + [0], [0] + levels)]
        return levels

    @cached_property
    def shares(self) -> list[int]:
        """Shapley's weight |S|! (n-|S|-1)! / n! of a subset of k = |S|
        tuples, as the integer numerator over the common denominator n!."""
        n = self.n
        return [math.factorial(k) * math.factorial(n - k - 1) for k in range(n)]


#: Lattices of at most 2^16 subsets are kept, all sizes together under
#: 1 MB; a larger one is built for each table and dropped with it.
_KEPT_TUPLES = 16
_kept_lattice = _kept(_KEPT_TUPLES + 1)(_Lattice)


def _lattice(n: int) -> _Lattice:
    return _kept_lattice(n) if n <= _KEPT_TUPLES else _Lattice(n)


class EndoWorlds:
    """Subsets of the endogenous tuples as bitmasks (bit order = sorted
    tids), with the query's value table and the distribution's mass table
    over those masks."""

    def __init__(self, instance: InstanceStore, cap: int | None = None):
        limit = DEFAULT_WORLD_CAP if cap is None else cap
        self.instance = instance
        self.order = instance.endogenous_order
        if len(self.order) > limit:
            raise ResourceLimitError(
                f"{len(self.order)} endogenous tuples exceed the subset "
                f"enumeration cap of {limit}"
            )
        self.bit = {tid: i for i, tid in enumerate(self.order)}
        self.lattice = _lattice(len(self.order))
        self.size = self.lattice.size
        self._packed: int | None = None  # the last lineage table, packed

    def mask_of(self, tids: Iterable[str]) -> int:
        mask = 0
        for tid in tids:
            try:
                mask |= 1 << self.bit[tid]
            except KeyError:
                raise InputError(f"tuple {tid!r} is not endogenous") from None
        return mask

    def endo_tids(self, mask: int) -> frozenset[str]:
        return frozenset(t for i, t in enumerate(self.order) if mask >> i & 1)

    def world(self, mask: int) -> frozenset[str]:
        return self.endo_tids(mask) | self.instance.exogenous

    def value_table(self, q: Query) -> bytes:
        """Q[W union D_ex] for every endogenous subset W of a Boolean
        query, as 2^N bytes, each 0 or 1 (an aggregate is a sum of Boolean
        games, `aggregate_games`).

        A BCQ or union is the DNF of its homomorphism images: W satisfies
        it iff W holds the endogenous part of some image, so the table is
        the upward closure of those parts' masks, built packed into one
        integer, which is kept for the readers of the packed form
        (`packed_table`); the bytes are that integer unpacked.  With more
        images than masks, and for the other forms, every subset is
        evaluated instead; Boolean forms are monotone, so a mask whose
        strict submask already holds needs no homomorphism search."""
        if not is_boolean(q):
            raise InputError("value tables are built for Boolean queries, not aggregates")
        self._packed = None
        if isinstance(q, (BCQ, UBCQ)):
            self._packed = self._lineage_table(q)
            if self._packed is not None:
                return _unpack(self._packed, self.size)
        table = bytearray(self.size)
        for mask in range(self.size):
            if mask:
                low = mask & -mask
                if table[mask ^ low]:
                    table[mask] = 1
                    continue
            table[mask] = evaluate(q, self.instance, self.world(mask))
        return bytes(table)

    def packed_table(self, q: Query) -> int:
        """A Boolean query's value table packed into one integer, bit W
        set iff Q holds on W: the lineage's integer as `value_table` built
        it, or the evaluated bytes packed (`_pack`)."""
        values = self.value_table(q)
        return _pack(values) if self._packed is None else self._packed

    def _lineage_table(self, q: BCQ | UBCQ) -> int | None:
        """The packed value table (bit W set iff W satisfies the query),
        or None past one image per mask.  The instance keeps the answer
        for the last query asked, so scoring that query again on the same
        instance skips the homomorphism walk."""
        kept = self.instance._lineage
        if kept is not None and kept[0] == q:
            return kept[1]
        table = 0
        images = _homomorphism_images(self.instance, q)
        for count, image in enumerate(images, start=1):
            if count > self.size:
                table = None
                break
            table |= 1 << self.mask_of(image & self.instance.endogenous)
        else:
            table = self._closed(table)
        self.instance._lineage = (q, table)
        return table

    def _closed(self, table: int) -> int:
        """A packed table closed upward, one shift per tuple."""
        lacking = self.lattice.lacking
        for i in range(len(self.order)):
            bit = 1 << i
            table |= (table & lacking(bit)) << bit
        return table

    def aggregate_games(self, q: Aggregate) -> Iterator[tuple[Fraction, int]]:
        """The aggregate as (value(a), packed g_a) pairs, one per distinct
        body assignment a of one walk (the keys `evaluate` sums over):
        Q[W] is the sum of value(a) g_a(W), and g_a holds on W iff W holds
        the endogenous part of an image of a's homomorphisms, so its table
        is those parts' masks closed upward, built as the pairs are read.
        A non-numeric target is refused as evaluating the subsets in mask
        order would: at the least mask holding one."""
        endogenous = self.instance.endogenous
        games: dict[frozenset, tuple[Fraction, set[int]]] = {}
        refused = None  # the least image mask with a non-numeric target
        chosen: list[str] = []
        for binding in _homomorphisms(q.atoms, self.instance, None, {}, chosen):
            mask = self.mask_of(endogenous.intersection(chosen))
            value = Fraction(1) if q.op == COUNT else binding[q.target.name]
            if not isinstance(value, Fraction):
                refused = mask if refused is None else min(refused, mask)
            else:
                games.setdefault(frozenset(binding.items()), (value, set()))[1].add(mask)
        if refused is not None:  # evaluating that subset raises the refusal
            evaluate(q, self.instance, self.world(refused))
        # The masks are distinct, so their powers of two add as an OR.
        return ((value, self._closed(sum(1 << m for m in masks))) for value, masks in games.values())

    def pair_swings(self, table: int, a: str, b: str) -> tuple[int, int]:
        """The masks without tuples ``a`` and ``b`` at which adding ``a``
        changes a packed Boolean table (`packed_table`), and those at which
        adding ``b`` does, each packed into one integer."""
        bit_a, bit_b = 1 << self.bit[a], 1 << self.bit[b]
        lacking = self.lattice.lacking
        without = lacking(bit_a) & lacking(bit_b)
        return ((table >> bit_a) ^ table) & without, ((table >> bit_b) ^ table) & without

    def mass_table(self, pdb: PDBSpace) -> list[Fraction]:
        """p(W union D_ex) for every endogenous subset W, as reduced
        Fractions.  On a tuple-independent space each tuple doubles the
        table: the entries without it times 1 - p, those with it times p,
        the complement taken once per tuple."""
        if pdb.instance is not self.instance and pdb.instance.tids != self.instance.tids:
            raise InputError("space and subset table use different instances")
        rep = pdb.representation
        if isinstance(rep, ExplicitWorlds):
            table = [Fraction(0)] * self.size
            for world, mass in rep.masses.items():
                table[self.mask_of(world & self.instance.endogenous)] += mass
            return table
        assert isinstance(rep, TupleIndependent)
        table = [Fraction(1)]
        for tid in self.order:
            # A plain Fraction: a product with a Probability, a subclass,
            # would pay an ABC instance check.
            p = Fraction(rep.marginals[tid])
            q = 1 - p
            table = [t * q for t in table] + [t * p for t in table]
        return table


_DIGITS = bytes.maketrans(b"\x00\x01", b"01")
_BITS = bytes.maketrans(b"01", b"\x00\x01")


def _pack(values: Sequence[int]) -> int:
    """A 0/1 value table as one integer: bit S holds ``values[S]``."""
    return int(bytes(values[::-1]).translate(_DIGITS), 2)


def _unpack(table: int, size: int) -> bytes:
    """The first ``size`` bits of a packed table, one 0/1 byte per mask."""
    return format(table, f"0{size}b")[::-1].encode().translate(_BITS)


def _swing_scorer(
    worlds: EndoWorlds, kind: ScoreKind, source: Union[PDBSpace, InstanceStore],
) -> Callable[[int], Callable[[str], Fraction]]:
    """The one kernel of the subset-enumeration kinds (GCES meaning its
    subset form), prepared once per request (Shapley's weights, the
    source's masses as integer pairs for the mass-weighted kinds): it
    maps a Boolean table packed into one integer T, bit S set iff Q holds
    on S, to the score of each tuple.  For tuple bit b, the masks S without b that b swings up are
    ``(T >> b) & ~T`` and those it swings down ``T & ~(T >> b)``, both
    restricted to the masks without b; a score weighs the first set minus
    the second.  Banzhaf and power weigh every swing alike and need only
    |up| - |down|: of the masks S without b, c_b = popcount((T >> b) &
    lacking_b) hold Q with b added and the other c - c_b of T's c =
    popcount(T) set bits hold it without, so |up| - |down| = c_b - (c -
    c_b) = 2 c_b - c.  The masses at a set's bits are summed as integer
    (numerator, denominator) pairs (`_ratio_sum`)."""
    n, lattice = len(worlds.order), worlds.lattice
    lacking = lattice.lacking
    denominator = 1 << max(n - 1, 0) if kind is ScoreKind.BANZHAF else 1
    if kind is ScoreKind.SHAPLEY:
        # The weight |S|! (n-|S|-1)! / n! as an integer over the common
        # denominator n!, so the sum adds integers and divides once.
        shares, levels = lattice.shares, lattice.levels
        denominator = math.factorial(n)
        # An empty swing set (a monotone table swings nothing down) weighs 0.
        weigh = lambda swings: swings and sum(
            share * (swings & level).bit_count() for share, level in zip(shares, levels)
        )
    elif kind in (ScoreKind.WEIGHTED_POWER, ScoreKind.GCES):
        pairs = list(map(Fraction.as_integer_ratio, worlds.mass_table(source)))
        # As above: a monotone table's empty down-swing set adds nothing.
        weigh = lambda swings: swings and _ratio_sum(
            compress(pairs, _unpack(swings, worlds.size))
        )

    def scorer(table: int) -> Callable[[str], Fraction]:
        if kind in (ScoreKind.BANZHAF, ScoreKind.POWER_TUPLE):
            total = table.bit_count()

            def count_score(tid: str) -> Fraction:
                bit = 1 << worlds.bit[tid]
                return Fraction(2 * (table >> bit & lacking(bit)).bit_count() - total, denominator)
            return count_score

        complement = ~table

        def packed_score(tid: str) -> Fraction:
            bit = 1 << worlds.bit[tid]
            without = lacking(bit)
            shifted = table >> bit
            up = shifted & complement & without
            down = table & ~shifted & without
            if kind is ScoreKind.GCES:  # weighed by p(S) + p(S + t)
                up, down = up | up << bit, down | down << bit
            return Fraction(weigh(up) - weigh(down), denominator)
        return packed_score
    return scorer


def _swing_scores(
    source: Union[PDBSpace, InstanceStore], q: Query, kind: ScoreKind,
    tids: Sequence[str], cap: int | None = None,
) -> list[Fraction]:
    """Scores of the given tuples for a subset-enumeration kind (GCES meaning
    its subset form), all from one kernel (`_swing_scorer`).  A Boolean
    query's table is read packed (`EndoWorlds.packed_table`: a lineage's
    integer as built, never unpacked and packed again).  An aggregate's
    games are scored one at a time, each into running totals."""
    instance = _instance_of(source)
    instance.require_endogenous(tids)
    worlds = EndoWorlds(instance, cap)
    if is_boolean(q):
        table = worlds.packed_table(q)
        score = _swing_scorer(worlds, kind, source)(table)
        return [score(tid) for tid in tids]
    games = worlds.aggregate_games(q)  # walked, and any refusal raised, here
    scorer = _swing_scorer(worlds, kind, source)
    totals = [Fraction(0)] * len(tids)
    for value, table in games:
        score = scorer(table)
        totals = [total + value * score(tid) for total, tid in zip(totals, tids)]
    return totals


def delta(
    instance: InstanceStore, q: Query, world: Iterable[str], tid: str
) -> Fraction:
    """Marginal contribution of an endogenous tuple on top of an endogenous
    subset (exogenous tuples always present); zero when the tuple is already
    in the subset."""
    instance.require_endogenous([tid])
    base = frozenset(world)
    outside = base - instance.endogenous
    if outside:
        raise InputError(f"subset contains non-endogenous tuples {sorted(outside)}")
    if tid in base:
        return Fraction(0)
    with_exo = base | instance.exogenous
    return Fraction(
        evaluate(q, instance, with_exo | {tid}) - evaluate(q, instance, with_exo)
    )


# ---------------------------------------------------------------------------
# Causal effect
# ---------------------------------------------------------------------------

def _causal_effect(
    pdb: PDBSpace, q: Query, targets: frozenset[str], cap: int | None = None,
    route: _Route | None = None,
) -> tuple[Fraction, str]:
    """A target set's causal effect, E[Q | do(T in)] - E[Q | do(T out)],
    and the backend that computed it.  The route (`_route`) is chosen here,
    or passed in by a caller scoring many target sets.  The lifted and
    closed-form routes read the route's marginals forced by the
    intervention (`Intervention.force`).  The world route sums the base
    worlds by their pushed images for a Boolean query, and the materialized
    intervened spaces for an aggregate."""
    if not targets:
        raise InputError("causal effect needs a nonempty target set")
    pdb.instance.require_endogenous(targets)
    if route is None:
        route = _route(pdb, q)
    if route.backend is not BRUTE:
        expectation = lambda iv: route.expectation(iv.force(route.marginals))
    elif is_boolean(q):
        expectation = lambda iv: intervened_query_value(pdb, q, iv, 1, cap)
    else:
        expectation = lambda iv: intervened_expectation(pdb, q, iv, cap)
    going_in = Intervention.do_in(targets)
    going_out = Intervention.do_out(targets)
    return Fraction(expectation(going_in) - expectation(going_out)), route.backend


def causal_effect(
    pdb: PDBSpace, q: Query, targets: Union[str, Iterable[str]],
    cap: int | None = None,
) -> Fraction:
    """Generalized causal effect of a set of endogenous tuples: the query's
    expectation with the targets forced in, minus with them forced out."""
    if isinstance(targets, str):
        targets = [targets]
    value, _ = _causal_effect(pdb, q, frozenset(targets), cap)
    return value


def ces_ui(instance: InstanceStore, q: Query, tid: str, cap: int | None = None) -> Fraction:
    """Causal effect on the uniform-1/2 independent space built from the
    instance; on Boolean queries it coincides with the Banzhaf value."""
    return causal_effect(make_uniform_tid(instance), q, tid, cap)


def gces_subset_form(
    pdb: PDBSpace, q: Query, tid: str, cap: int | None = None
) -> Fraction:
    """Single-tuple causal effect as a swing sum: over subsets not holding
    the tuple, the contribution weighted by the mass at the subset plus the
    mass at the subset with the tuple added."""
    return _swing_scores(pdb, q, ScoreKind.GCES, [tid], cap)[0]


@dataclass(frozen=True)
class OracleReport:
    """One causal effect computed along independent routes; exactness means
    the routes must agree to the last digit."""

    targets: tuple[str, ...]
    materialized: Fraction
    direct: Fraction
    subset_form: Fraction | None

    @property
    def agree(self) -> bool:
        forms = [self.materialized, self.direct]
        if self.subset_form is not None:
            forms.append(self.subset_form)
        return all(f == forms[0] for f in forms)

    @property
    def value(self) -> Fraction:
        return self.materialized


def gces_oracle(
    pdb: PDBSpace, q: Query, targets: Union[str, Iterable[str]],
    cap: int | None = None,
) -> OracleReport:
    """Compute one causal effect three ways: by world sums over the
    materialized intervened spaces, by one pass over the base worlds of
    Q(push_in W) - Q(push_out W), and (single Boolean targets) by the
    swing-sum form."""
    if isinstance(targets, str):
        targets = [targets]
    target_set = pdb.instance.require_endogenous(targets)
    going_in = Intervention.do_in(target_set)
    going_out = Intervention.do_out(target_set)
    value = lambda world: evaluate(q, pdb.instance, world)
    materialized = _world_sum(intervene(pdb, going_in), value, cap) - \
        _world_sum(intervene(pdb, going_out), value, cap)
    direct = _world_sum(
        pdb, lambda world: value(going_in.push(world)) - value(going_out.push(world)), cap
    )
    subset = None
    if is_boolean(q) and len(target_set) == 1:
        subset = gces_subset_form(pdb, q, next(iter(target_set)), cap)
    return OracleReport(tuple(sorted(target_set)), materialized, direct, subset)


# ---------------------------------------------------------------------------
# Shapley and Banzhaf
# ---------------------------------------------------------------------------

def shapley(
    instance: InstanceStore, q: Query, tid: str, cap: int | None = None
) -> Fraction:
    """Shapley value by subset enumeration with exact factorial weights."""
    return _swing_scores(instance, q, ScoreKind.SHAPLEY, [tid], cap)[0]


def banzhaf(
    instance: InstanceStore, q: Query, tid: str, cap: int | None = None
) -> Fraction:
    """Banzhaf value: the uniformly weighted swing sum."""
    return _swing_scores(instance, q, ScoreKind.BANZHAF, [tid], cap)[0]


# ---------------------------------------------------------------------------
# Power functions
# ---------------------------------------------------------------------------

def power_of_set(
    source: Union[PDBSpace, InstanceStore], q: Query, world: Iterable[str]
) -> Fraction:
    """Number of tuples whose addition to the given strict endogenous subset
    changes the query value (for Boolean queries; the swing total in
    general)."""
    instance = _instance_of(source)
    base = frozenset(world)
    if base == instance.endogenous:
        raise InputError("power of a set is defined for strict subsets only")
    total = Fraction(0)
    for tid in instance.endogenous_order:
        total += delta(instance, q, base, tid)
    return total


def power_of_tuple(
    source: Union[PDBSpace, InstanceStore], q: Query, tid: str,
    cap: int | None = None,
) -> Fraction:
    """Number of endogenous subsets the tuple swings."""
    return _swing_scores(source, q, ScoreKind.POWER_TUPLE, [tid], cap)[0]


def weighted_power(
    pdb: PDBSpace, q: Query, tid: str, cap: int | None = None
) -> Fraction:
    """Swing sum weighted by the distribution's mass at each subset."""
    return _swing_scores(pdb, q, ScoreKind.WEIGHTED_POWER, [tid], cap)[0]


def total_power(
    source: Union[PDBSpace, InstanceStore], q: Query, cap: int | None = None
) -> Fraction:
    """Double swing sum over all strict endogenous subsets and all tuples
    outside them; equals the sum of the tuples' powers."""
    tids = _instance_of(source).endogenous_order
    powers = _swing_scores(source, q, ScoreKind.POWER_TUPLE, tids, cap)
    return sum(powers, Fraction(0))


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScoreEntry:
    tid: str
    value: Fraction
    backend: str
    positive_ceui: bool | None = None


@dataclass(frozen=True)
class ScoreReport:
    kind: ScoreKind
    query: str
    n_endogenous: int
    entries: tuple[ScoreEntry, ...]
    ranking: tuple[str, ...]

    def values(self) -> dict[str, Fraction]:
        return {e.tid: e.value for e in self.entries}

    def to_json_dict(self) -> dict:
        scores = []
        for e in self.entries:
            num, den = e.value.as_integer_ratio()
            item = {
                "tid": e.tid,
                "value": f"{num}/{den}",
                "decimal": fraction_to_decimal(e.value),
                "backend": e.backend,
            }
            if e.positive_ceui is not None:
                item["positive-ceui"] = e.positive_ceui
            scores.append(item)
        return {
            "kind": self.kind.value,
            "query": self.query,
            "n_endogenous": self.n_endogenous,
            "scores": scores,
            "ranking": list(self.ranking),
        }

    def to_table(self, by_rank: bool = False) -> str:
        rank_of = {tid: str(i) for i, tid in enumerate(self.ranking, start=1)}
        rows = {}
        for e in self.entries:
            num, den = e.value.as_integer_ratio()
            rows[e.tid] = (
                rank_of[e.tid], e.tid, fraction_to_decimal(e.value), f"{num}/{den}", e.backend,
            )
        table = [("rank", "tid", "value", "exact", "backend")]
        table += (rows[tid] for tid in self.ranking) if by_rank else rows.values()
        widths = [max(map(len, column)) for column in zip(*table)]
        return "\n".join(
            "  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip()
            for row in table
        )


def _rank(values: dict[str, Fraction]) -> tuple[str, ...]:
    """The tuple ids by value descending, ties by tuple id: sorted by id,
    then stably by value in reverse, so no value is negated.  The values
    are compared as integer numerators over their common denominator, not
    as `Fraction`s, whose every comparison pays an ABC instance check."""
    ratios = [value.as_integer_ratio() for value in values.values()]
    common = math.lcm(*(den for _, den in ratios))
    scaled = {tid: num * (common // den) for tid, (num, den) in zip(values, ratios)}
    order = sorted(values)
    order.sort(key=scaled.__getitem__, reverse=True)
    return tuple(order)


def score_all(
    source: Union[PDBSpace, InstanceStore], q: Query, kind: ScoreKind,
    cap: int | None = None,
) -> ScoreReport:
    """Score every endogenous tuple and rank them (value descending, ties by
    tuple id)."""
    kind = ScoreKind(kind)
    instance = _instance_of(source)
    tids = instance.endogenous_order
    entries: list[ScoreEntry] = []
    if kind in (ScoreKind.GCES, ScoreKind.CES_TID, ScoreKind.CES_UI):
        if kind is ScoreKind.CES_UI:
            space = make_uniform_tid(instance)
        elif not isinstance(source, PDBSpace):
            raise InputError(f"{kind.value} needs a probability space")
        elif kind is ScoreKind.CES_TID and not source.is_tid:
            raise InputError("ces-tid needs a tuple-independent space")
        else:
            space = source
        # One route, with its validated marginals and lifted plan, serves
        # every tuple.
        route = _route(space, q) if tids else None
        for tid in tids:
            value, backend = _causal_effect(space, q, frozenset([tid]), cap, route)
            positive = value > 0 if kind is ScoreKind.CES_UI else None
            entries.append(ScoreEntry(tid, value, backend, positive))
    elif kind in (
        ScoreKind.SHAPLEY, ScoreKind.BANZHAF, ScoreKind.POWER_TUPLE,
        ScoreKind.WEIGHTED_POWER,
    ):
        if kind is ScoreKind.WEIGHTED_POWER and not isinstance(source, PDBSpace):
            raise InputError("weighted-power needs a probability space")
        for tid, value in zip(tids, _swing_scores(source, q, kind, tids, cap)):
            entries.append(ScoreEntry(tid, value, BRUTE))
    else:  # pragma: no cover - ScoreKind is exhaustive
        raise InputError(f"unknown score kind {kind!r}")
    report_values = {e.tid: e.value for e in entries}
    return ScoreReport(
        kind=kind,
        query=q.text,
        n_endogenous=len(tids),
        entries=tuple(entries),
        ranking=_rank(report_values),
    )
