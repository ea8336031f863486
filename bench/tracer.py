"""Outside-in tracer: wraps causalpdb's public functions from outside the
package and records spans and counters in memory.

`Tracer.install()` replaces each traced function at every import site: the
attribute is swapped in every loaded `causalpdb` module whose namespace
holds the original object (`evaluate` is bound in `queries`, `scores`,
`interventions`, `axioms` and the package itself), and traced methods are
swapped on their class.  `uninstall()` puts the originals back.  Function
references stored inside containers (such as `axioms.AXIOM_CHECKS`) are not
swapped; the CLI does not call through them.

A span is (id, name, parent id, request id, start, end, busy).  Busy time
is end minus start, except for the generator `enumerate_worlds`, whose
span lives from creation to exhaustion but is busy only inside `next`.
Counters per layer name:

- `<name>.calls`: spans opened;
- `<name>.s`: busy time of spans not nested in a span of the same name;
- `<name>.self_s`: busy time minus the busy time of child spans.

Plus `core.enumerate_worlds.worlds` (items yielded),
`scores.value_table.masks` (table entries built),
`scores.value_table.evaluations` (`evaluate` calls made directly by a value
table), `scores.score_all.tuples` (tuples scored) and
`queries.query_probability.{lifted,brute}.*`, split by whether the call
enumerated worlds.  Counter names ending in a count suffix depend only on
the inputs; see `counts()`.
"""

from __future__ import annotations

import contextlib
import sys
from collections import defaultdict
from time import perf_counter

COUNT_SUFFIXES = (".calls", ".worlds", ".masks", ".evaluations", ".tuples")

# (module, attribute, layer name) for plain functions.
FUNCTIONS = (
    ("core", "load_pdb_file", "core.load_pdb_file"),
    ("core", "validate", "core.validate"),
    ("queries", "load_query_file", "queries.load_query_file"),
    ("queries", "evaluate", "queries.evaluate"),
    ("queries", "lifted_rejections", "queries.lifted_rejections"),
    ("interventions", "intervene", "interventions.intervene"),
    ("interventions", "intervened_query_value", "interventions.intervened_query_value"),
    ("interventions", "intervened_expectation", "interventions.intervened_expectation"),
    ("axioms", "check_dum", "axioms.check"),
    ("axioms", "check_eff", "axioms.check"),
    ("axioms", "check_sym", "axioms.check"),
    ("axioms", "check_lin", "axioms.check"),
    ("axioms", "check_g_eff", "axioms.check"),
    ("axioms", "check_g_sym", "axioms.check"),
    ("cli", "_emit_json", "cli.render"),
)
# (module, class, method, layer name).
METHODS = (
    ("scores", "EndoWorlds", "value_table", "scores.value_table"),
    ("scores", "EndoWorlds", "mass_table", "scores.mass_table"),
    ("scores", "ScoreReport", "to_table", "cli.render"),
    ("scores", "ScoreReport", "to_json_dict", "cli.render"),
)


class Span:
    __slots__ = ("sid", "name", "parent", "request", "start", "end", "busy", "child", "enumerated")

    def __init__(self, sid, name, parent, request, start):
        self.sid = sid
        self.name = name
        self.parent = parent
        self.request = request
        self.start = start
        self.end = start
        self.busy = 0.0
        self.child = 0.0
        self.enumerated = False


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[Span] = []
        self._active: dict[str, int] = defaultdict(int)
        self._request = None
        self._patches: list[tuple[object, str, object]] = []

    # -- span bookkeeping ---------------------------------------------------

    def _open(self, name: str, count: bool = True) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, parent, self._request, perf_counter())
        self.spans.append(span)
        if count:
            self.counters[name + ".calls"] += 1
        if parent is not None and parent.name == "scores.value_table" and name == "queries.evaluate":
            self.counters["scores.value_table.evaluations"] += 1
        self._stack.append(span)
        self._active[name] += 1
        return span

    def _close(self, span: Span):
        span.end = perf_counter()
        span.busy = span.end - span.start
        self._stack.pop()
        self._active[span.name] -= 1
        self._account(span, span.busy)

    def _account(self, span: Span, busy: float):
        if not self._active[span.name]:
            self.counters[span.name + ".s"] += busy
        if span.parent is not None:
            span.parent.child += busy

    def _settle(self, span: Span):
        """Fold a finished span's self time into the counters."""
        self.counters[span.name + ".self_s"] += span.busy - span.child

    @contextlib.contextmanager
    def request(self, request_id):
        """One CLI request, as the root span `cli.main`."""
        self._request = request_id
        span = self._open("cli.main")
        try:
            yield span
        finally:
            self._close(span)
            self._settle(span)
            self._request = None

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, name: str, fn, on_result=None):
        tracer = self

        def traced(*args, **kwargs):
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
                tracer._settle(span)
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_probability(self, fn):
        tracer = self

        def traced(*args, **kwargs):
            span = tracer._open("queries.query_probability", count=False)
            try:
                return fn(*args, **kwargs)
            finally:
                # Label by backend: only the brute backend enumerates worlds.
                tracer._active[span.name] -= 1
                span.name += ".brute" if span.enumerated else ".lifted"
                tracer._active[span.name] += 1
                tracer.counters[span.name + ".calls"] += 1
                tracer._close(span)
                tracer._settle(span)

        traced.__wrapped__ = fn
        return traced

    def _wrap_generator(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else None
            if parent is not None:
                parent.enumerated = True
            span = Span(len(tracer.spans), name, parent, tracer._request, perf_counter())
            tracer.spans.append(span)
            tracer.counters[name + ".calls"] += 1
            inner = fn(*args, **kwargs)

            def stream():
                try:
                    while True:
                        tracer._stack.append(span)
                        start = perf_counter()
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            spent = perf_counter() - start
                            tracer._stack.pop()
                            span.busy += spent
                            tracer._account(span, spent)
                        tracer.counters[name + ".worlds"] += 1
                        yield item
                finally:
                    inner.close()
                    span.end = perf_counter()
                    tracer._settle(span)

            return stream()

        traced.__wrapped__ = fn
        return traced

    # -- installation -------------------------------------------------------

    def install(self):
        modules = {
            name: mod for name, mod in sys.modules.items()
            if mod is not None and (name == "causalpdb" or name.startswith("causalpdb."))
        }
        counters = self.counters

        def count(key, size):
            def hook(result):
                counters[key] += size(result)
            return hook

        wrappers = {}
        for mod, attr, name in FUNCTIONS:
            original = getattr(modules[f"causalpdb.{mod}"], attr)
            wrappers[id(original)] = (original, self._wrap(name, original))
        core = modules["causalpdb.core"]
        queries = modules["causalpdb.queries"]
        scores = modules["causalpdb.scores"]
        for original, wrapper in (
            (core.enumerate_worlds, self._wrap_generator("core.enumerate_worlds", core.enumerate_worlds)),
            (queries.query_probability, self._wrap_probability(queries.query_probability)),
            (scores.score_all, self._wrap("scores.score_all", scores.score_all,
                                          count("scores.score_all.tuples", lambda r: len(r.entries)))),
        ):
            wrappers[id(original)] = (original, wrapper)
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(mod, attr, hit[1])
        for mod, cls_name, attr, name in METHODS:
            cls = getattr(modules[f"causalpdb.{mod}"], cls_name)
            hook = count("scores.value_table.masks", len) if attr == "value_table" else None
            self._patch(cls, attr, self._wrap(name, vars(cls)[attr], hook))

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------------

    def counts(self) -> dict[str, int]:
        """The counters that depend only on the inputs, not on timing."""
        return {k: int(v) for k, v in sorted(self.counters.items()) if k.endswith(COUNT_SUFFIXES)}

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("id\tname\tparent\trequest\tstart\tend\tbusy\n")
            for s in self.spans:
                parent = "" if s.parent is None else s.parent.sid
                handle.write(f"{s.sid}\t{s.name}\t{parent}\t{s.request}\t{s.start:.9f}\t{s.end:.9f}\t{s.busy:.9f}\n")
