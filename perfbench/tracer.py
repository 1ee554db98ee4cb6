"""Spans and counts at the boundaries between the modules of ``cpi``.

``Tracer.install`` wraps the public calls into each layer by patching
module attributes at run time: every binding of a traced function in a
loaded ``cpi`` module is replaced, so calls from one module into another
are seen wherever they were imported.  A call made while the same
function is already the innermost open span (``render`` and its own
recursion, say) is folded into that span.

Each span is kept in memory as (name, start, end, parent) and written out
by ``write``.  A layer's self time is its span time minus the time of its
child spans.
"""

from __future__ import annotations

import gc
import gzip
import sys
import time
from array import array

from cpi import bisim, encoding, lts, nonforward, parser, syntax

# (module, attribute, span name); the order fixes the span name indices.
TRACED = (
    (parser, "parse", "parser.parse"),
    (parser, "render", "parser.render"),
    (syntax, "canonicalize", "syntax.canonicalize"),
    (syntax, "substitute", "syntax.substitute"),
    (syntax, "validate_cpi", "syntax.validate_cpi"),
    (bisim, "check", "bisim.check"),
    (nonforward, "check_nonforwarding", "nonforward.check_nonforwarding"),
    (encoding, "encode", "encoding.encode"),
    (encoding, "check_completeness", "encoding.check_completeness"),
)
SUCCESSORS = "lts.successors"
TAU_LEVELS = "lts.tau_levels"
NAMES = tuple(n for _, _, n in TRACED) + (SUCCESSORS, TAU_LEVELS)

# Taken before any patching, so the tracer's own use makes no spans.
_canonicalize = syntax.canonicalize
_render = parser.render


class Tracer:
    """Records spans while enabled; one tracer per process."""

    def __init__(self) -> None:
        self.enabled = False
        self.now = time.perf_counter
        # Span records, one entry per span in each array.
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        # The open spans: [index, name id, child time].
        self.stack: list[list] = []
        self.calls = [0] * len(NAMES)
        self.self_time = [0.0] * len(NAMES)
        self.transitions = 0
        self.tau_states = 0
        # A query, for the successors counts, is the life of one
        # lts.Engine: the program's own unit of caching.  Keys are the
        # rendered canonical state, the extra environment and the input
        # flag; text keys keep no state alive.
        self.asked: set = set()
        self.engine_keys: dict[int, set] = {}
        self.repeat_in_query = 0
        self.repeat_across = 0
        self.states_per_query = 0
        self.gc_collected = 0
        self.gc_pause = 0.0
        self._gc_start: float | None = None
        self._restore: list = []

    # -- spans --------------------------------------------------------------

    def enter(self, nid: int) -> None:
        idx = len(self.span_start)
        parent = self.stack[-1][0] if self.stack else -1
        self.span_name.append(nid)
        self.span_parent.append(parent)
        self.span_end.append(0.0)
        self.stack.append([idx, nid, 0.0])
        self.calls[nid] += 1
        self.span_start.append(self.now())

    def exit(self) -> None:
        end = self.now()
        idx, nid, child = self.stack.pop()
        self.span_end[idx] = end
        dur = end - self.span_start[idx]
        self.self_time[nid] += dur - child
        if self.stack:
            self.stack[-1][2] += dur

    def _wrap(self, fn, nid: int):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled or (tracer.stack and tracer.stack[-1][1] == nid):
                return fn(*args, **kwargs)
            tracer.enter(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.exit()

        traced.__wrapped__ = fn
        return traced

    def _wrap_levels(self, fn, nid: int):
        """``tau_levels`` is a generator: each step it takes is a span."""
        tracer = self

        def traced(*args, **kwargs):
            levels = fn(*args, **kwargs)
            while True:
                on = tracer.enabled
                if on:
                    tracer.enter(nid)
                try:
                    level = next(levels)
                except StopIteration:
                    return
                finally:
                    if on:
                        tracer.exit()
                if on:
                    tracer.tau_states += len(level)
                yield level

        traced.__wrapped__ = fn
        return traced

    def _wrap_successors(self, fn, nid: int):
        tracer = self
        fn_init = lts.Engine.__init__

        def successors(engine, p, environment=(), include_inputs=True):
            if not tracer.enabled:
                return fn(engine, p, environment, include_inputs)
            tracer.enter(nid)
            try:
                out = fn(engine, p, environment, include_inputs)
            finally:
                tracer.exit()
            key = (_render(_canonicalize(p)),
                   frozenset(n.ident for n in environment), include_inputs)
            tracer.note_successors(id(engine), key, len(out))
            return out

        def init(engine):
            # A new engine may reuse the id of one that has died.
            fn_init(engine)
            tracer.engine_keys[id(engine)] = set()

        successors.__wrapped__ = fn
        return successors, init

    def note_successors(self, engine: int, key: tuple, n: int) -> None:
        self.transitions += n
        keys = self.engine_keys.setdefault(engine, set())
        if key in keys:
            self.repeat_in_query += 1
            return
        keys.add(key)
        if key in self.asked:
            self.repeat_across += 1
        else:
            self.asked.add(key)
        self.states_per_query = max(self.states_per_query, len(keys))

    # -- queries and the collector -----------------------------------------

    def begin_query(self) -> None:
        self.engine_keys.clear()
        self.enabled = True

    def end_query(self) -> None:
        self.enabled = False

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = self.now() if self.enabled else None
        elif self._gc_start is not None:
            self.gc_pause += self.now() - self._gc_start
            self.gc_collected += info["collected"]
            self._gc_start = None

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if (name == "cpi" or name.startswith("cpi.")) and m is not None]
        for nid, (mod, attr, _) in enumerate(TRACED):
            fn = getattr(mod, attr)
            self._patch_everywhere(modules, fn, self._wrap(fn, nid))
        fn = lts.tau_levels
        self._patch_everywhere(modules, fn,
                               self._wrap_levels(fn, NAMES.index(TAU_LEVELS)))
        succ, init = self._wrap_successors(lts.Engine.successors,
                                           NAMES.index(SUCCESSORS))
        for attr, new in (("successors", succ), ("__init__", init)):
            self._restore.append((lts.Engine, attr, getattr(lts.Engine, attr)))
            setattr(lts.Engine, attr, new)
        gc.callbacks.append(self._on_gc)

    def _patch_everywhere(self, modules, fn, new) -> None:
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._restore.append((mod, attr, fn))
                    setattr(mod, attr, new)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._restore):
            setattr(owner, attr, old)
        self._restore.clear()
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        """The per-layer metrics, as name -> (value, unit)."""
        i = NAMES.index
        calls = self.calls[i(SUCCESSORS)]
        share = (lambda n: 100.0 * n / calls) if calls else (lambda n: 0.0)
        return {
            "syntax.canonicalize.calls": (self.calls[i("syntax.canonicalize")], "count"),
            "syntax.canonicalize.self_s": (self.self_time[i("syntax.canonicalize")], "s"),
            "lts.successors.calls": (calls, "count"),
            "lts.successors.self_s": (self.self_time[i(SUCCESSORS)], "s"),
            "lts.successors.transitions": (self.transitions, "count"),
            "lts.successors.repeat_in_query": (share(self.repeat_in_query), "%"),
            "lts.successors.repeat_across_queries": (share(self.repeat_across), "%"),
            "lts.tau_levels.self_s": (self.self_time[i(TAU_LEVELS)], "s"),
            "lts.tau_levels.states": (self.tau_states, "count"),
            "lts.states_per_query": (self.states_per_query, "count"),
            "bisim.check.calls": (self.calls[i("bisim.check")], "count"),
            "bisim.check.self_s": (self.self_time[i("bisim.check")], "s"),
            "nonforward.check_nonforwarding.self_s":
                (self.self_time[i("nonforward.check_nonforwarding")], "s"),
            "syntax.substitute.calls": (self.calls[i("syntax.substitute")], "count"),
            "syntax.substitute.self_s": (self.self_time[i("syntax.substitute")], "s"),
            "parser.parse.self_s": (self.self_time[i("parser.parse")], "s"),
            "syntax.validate_cpi.self_s": (self.self_time[i("syntax.validate_cpi")], "s"),
            "encoding.encode.self_s": (self.self_time[i("encoding.encode")], "s"),
            "parser.render.self_s": (self.self_time[i("parser.render")], "s"),
            "encoding.check_completeness.self_s":
                (self.self_time[i("encoding.check_completeness")], "s"),
            "gc.collected": (self.gc_collected, "count"),
            "gc.pause_s": (self.gc_pause, "s"),
        }

    def write(self, path) -> None:
        """Write every span as ``index parent name start end`` lines."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("index\tparent\tname\tstart\tend\n")
            for k in range(len(self.span_start)):
                out.write(f"{k}\t{self.span_parent[k]}\t"
                          f"{NAMES[self.span_name[k]]}\t"
                          f"{self.span_start[k]:.9f}\t{self.span_end[k]:.9f}\n")
