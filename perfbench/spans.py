"""Span tracing from outside the program.

`install` replaces `tea` functions at the names their callers look them
up by (module globals such as `tea.engine.longest_match`, and the
`MemoryPool` methods), so nothing under `src/` changes.  Each wrapper
opens a span on entry and closes it on exit.  A span's self time is its
duration minus the time its child spans cover.

A wrapper's own cost (its bookkeeping, and the call into it and the
return from it) is kept out of every span: a span's duration runs from
the end of `enter` to the start of `exit`, the parent is charged the
whole wrapper, and everything outside the span goes to `trace.wrapper`.
The call into a wrapper and the return from it fall outside what the
wrapper can time itself, and the end of `enter` and the start of `exit`
fall inside the span.  Both costs per call are measured once, on an
empty wrapped function, and moved from the spans to `trace.wrapper`.

Spans of the coarse layers (operation, CLI call, experiment run,
generation, report, search, oracle, encoding) are kept one by one with
their parent and written out at the end.  The hot leaves (binding, its
tie-break counts, observation, mutation, memory admission, regulation)
run up to millions of times per operation, so they are folded into
per-name totals of calls, time and self time instead.
"""

from __future__ import annotations

import statistics
from collections import Counter, defaultdict
from time import perf_counter

KEPT = frozenset({
    "bench.setup", "bench.op", "cli.main", "engine.run", "engine.generation",
    "memory.feedback", "report.detection", "report.series", "baseline.search",
    "matching.oracle", "encoding.encode",
})
WRAPPER = "trace.wrapper"


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1], kept spans only
        self.stack = []  # open frames: [name, entry, start, child time, kept index]
        self.kept = [-1]
        self.bind_keys = set()
        self.call_cost = self.inner_cost = 0.0
        self.take()
        self.call_cost, self.inner_cost = self._calibrate()

    def take(self) -> dict:
        """Return the totals gathered since the last take and start afresh."""
        agg = getattr(self, "agg", None)
        self.agg = {
            "calls": Counter(), "total": defaultdict(float), "self": defaultdict(float),
            "counts": Counter(), "peaks": Counter(),
        }
        return agg

    def _calibrate(self, n=20000, trials=7):
        """Median costs of an empty wrapped call, outside and inside its span.

        Outside: the call into the wrapper and the return from it.  Inside:
        the end of `enter` and the start of `exit`, less a direct call.
        """
        def noop(a, b):
            return None

        traced = _span(self, "trace.calibrate", noop)
        outer, inner = [], []
        for _ in range(trials):
            start = perf_counter()
            for _ in range(n):
                pass
            empty = perf_counter() - start
            start = perf_counter()
            for _ in range(n):
                noop(1, 2)
            direct = perf_counter() - start - empty
            self.enter("trace.loop", perf_counter())
            for _ in range(n):
                traced(1, 2)
            self.exit()
            outer.append((self.agg["self"]["trace.loop"] - empty) / n)
            inner.append((self.agg["total"]["trace.calibrate"] - direct) / n)
            self.take()
        return max(0.0, statistics.median(outer)), max(0.0, statistics.median(inner))

    def enter(self, name, entry):
        """Open a span; `entry` is the time the wrapper was entered."""
        index = -1
        if name in KEPT:
            index = len(self.spans)
            self.spans.append([name, None, None, self.kept[-1]])
            self.kept.append(index)
        frame = [name, entry, 0.0, 0.0, index]
        self.stack.append(frame)
        frame[2] = start = perf_counter()
        if index >= 0:
            self.spans[index][1] = start

    def exit(self, after=None, result=None, args=()):
        """Close the top span; `after(result, *args)` counts as wrapper cost."""
        end = perf_counter()
        name, entry, start, child, index = self.stack.pop()
        duration = end - start - self.inner_cost
        agg = self.agg
        agg["calls"][name] += 1
        agg["total"][name] += duration
        agg["self"][name] += duration - child
        if index >= 0:
            self.spans[index][2] = end
            self.kept.pop()
        if after is not None:
            after(result, *args)
        outer = perf_counter() - entry + self.call_cost
        agg["self"][WRAPPER] += outer - duration
        if self.stack:
            self.stack[-1][3] += outer

    def charge(self, entry):
        """Charge a wrapper that opened no span to `trace.wrapper`."""
        cost = perf_counter() - entry + self.call_cost
        self.agg["self"][WRAPPER] += cost
        if self.stack:
            self.stack[-1][3] += cost

    def count(self, name, n=1):
        self.agg["counts"][name] += n

    def peak(self, name, value):
        peaks = self.agg["peaks"]
        if value > peaks[name]:
            peaks[name] = value

    def end_op(self):
        """Fold the distinct bind keys seen in one operation into the totals."""
        self.count("matching.bind_distinct", len(self.bind_keys))
        self.bind_keys.clear()


def _span(tracer, name, fn, after=None):
    def traced(*args, **kwargs):
        tracer.enter(name, perf_counter())
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tracer.exit()
            raise
        tracer.exit(after, result, args)
        return result

    return traced


def install(tea, tracer) -> list:
    """Wrap every traced name; returns what `uninstall` needs to undo it."""
    t = tracer
    engine, matching, memory = tea.engine, tea.matching, tea.memory
    orig_count = matching.count_occurrences

    def bind(fn):
        def traced(tracker, antigen, bind_threshold=0.0):
            entry = perf_counter()
            t.bind_keys.add((tuple(tracker), getattr(antigen, "seq", antigen), bind_threshold))
            t.enter("matching.bind", entry)
            try:
                return fn(tracker, antigen, bind_threshold)
            finally:
                t.exit()
        return traced

    def tiebreak(pattern, antigen):
        # count_occurrences also serves the oracle; only calls made from
        # inside a bind are the tie-break
        entry = perf_counter()
        if not t.stack or t.stack[-1][0] != "matching.bind":
            t.charge(entry)
            return orig_count(pattern, antigen)
        t.enter("matching.tiebreak", entry)
        try:
            return orig_count(pattern, antigen)
        finally:
            t.exit()

    def regulate(fn, extra=None):
        def traced(pool, *args):
            entry = perf_counter()
            if extra is not None:
                extra(pool)
            t.enter("population.regulate", entry)
            try:
                return fn(pool, *args)
            finally:
                t.exit()
        return traced

    def count_reseed(pool):
        if not pool:
            t.count("population.reseeds")

    def consider_done(action, *_args):
        if action == "inserted":
            t.count("memory.inserts")
        elif action == "replaced":
            t.count("memory.replacements")

    targets = [
        (engine, "run_experiment", lambda f: _span(
            t, "engine.run", f, lambda stats, *_: t.count("population.trackers_created", stats.total_created))),
        (engine, "run_generation", lambda f: _span(t, "engine.generation", f)),
        (engine, "longest_match", bind),
        (engine, "count_occurrences", lambda f: _span(t, "engine.observe", f)),
        (engine, "enumerate_trends", lambda f: _span(t, "matching.oracle", f)),
        (engine, "mutate", lambda f: _span(t, "population.mutate", f)),
        (engine, "apoptose", lambda f: regulate(f, lambda pool: t.peak("population.peak_pool", len(pool)))),
        (engine, "cull_stale_clones", regulate),
        (engine, "homeostasis", lambda f: regulate(f, count_reseed)),
        (matching, "count_occurrences", lambda f: tiebreak),
        (matching, "enumerate_trends", lambda f: _span(t, "matching.oracle", f)),
        (tea.baseline, "longest_match", bind),
        (tea.baseline, "random_search", lambda f: _span(
            t, "baseline.search", f, lambda r, *_: t.count("baseline.trackers", r.population_size))),
        (tea.encoding, "encode", lambda f: _span(
            t, "encoding.encode", f, lambda a, *_: t.count("encoding.values", len(a)))),
        (memory.MemoryPool, "consider", lambda f: _span(t, "memory.consider", f, consider_done)),
        (memory.MemoryPool, "feedback_clones", lambda f: _span(t, "memory.feedback", f)),
    ]
    cli = getattr(tea, "cli", None)
    if cli is not None:
        targets += [
            (cli, "main", lambda f: _span(t, "cli.main", f)),
            (cli, "detection_table", lambda f: _span(t, "report.detection", f)),
            (cli, "render_detection_table", lambda f: _span(t, "report.detection", f)),
            (cli, "detection_table_rows", lambda f: _span(t, "report.detection", f)),
            (cli, "population_series", lambda f: _span(t, "report.series", f)),
        ]
    undo = []
    for owner, attr, wrap in targets:
        original = owner.__dict__[attr]
        setattr(owner, attr, wrap(original))
        undo.append((owner, attr, original))
    return undo


def uninstall(undo) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


def layer_metrics(agg: dict) -> dict:
    """The per-layer metrics, from the totals of one traced phase."""
    calls, self_s, counts, peaks = agg["calls"], agg["self"], agg["counts"], agg["peaks"]
    binds = calls["matching.bind"]
    return {
        "engine.generations": (calls["engine.generation"], "count"),
        "engine.generation_s": (self_s["engine.generation"], "s"),
        "engine.run_s": (self_s["engine.run"], "s"),
        "engine.observe_calls": (calls["engine.observe"], "count"),
        "engine.observe_s": (self_s["engine.observe"], "s"),
        "matching.bind_calls": (binds, "count"),
        "matching.bind_distinct": (counts["matching.bind_distinct"], "count"),
        "matching.bind_distinct_ratio": (
            counts["matching.bind_distinct"] / binds if binds else 0.0, "ratio"),
        "matching.bind_self_s": (self_s["matching.bind"], "s"),
        "matching.tiebreak_calls": (calls["matching.tiebreak"], "count"),
        "matching.tiebreak_s": (self_s["matching.tiebreak"], "s"),
        "matching.oracle_calls": (calls["matching.oracle"], "count"),
        "matching.oracle_s": (self_s["matching.oracle"], "s"),
        "population.mutate_calls": (calls["population.mutate"], "count"),
        "population.mutate_s": (self_s["population.mutate"], "s"),
        "population.regulate_s": (self_s["population.regulate"], "s"),
        "population.peak_pool": (peaks["population.peak_pool"], "count"),
        "population.trackers_created": (counts["population.trackers_created"], "count"),
        "population.reseeds": (counts["population.reseeds"], "count"),
        "memory.consider_calls": (calls["memory.consider"], "count"),
        "memory.consider_s": (self_s["memory.consider"], "s"),
        "memory.inserts": (counts["memory.inserts"], "count"),
        "memory.replacements": (counts["memory.replacements"], "count"),
        "memory.feedback_s": (self_s["memory.feedback"], "s"),
        "baseline.trackers": (counts["baseline.trackers"], "count"),
        "baseline.search_s": (self_s["baseline.search"], "s"),
        "report.detection_s": (self_s["report.detection"], "s"),
        "report.series_s": (self_s["report.series"], "s"),
        "cli.self_s": (self_s["cli.main"], "s"),
        "encoding.values": (counts["encoding.values"], "count"),
        "encoding.encode_s": (self_s["encoding.encode"], "s"),
        "trace.wrapper_s": (self_s[WRAPPER], "s"),
    }


def merge(a: dict, b: dict) -> dict:
    """Totals of two phases added together (peaks take the larger)."""
    out = {}
    for key in ("calls", "total", "self", "counts"):
        merged = Counter() if key in ("calls", "counts") else defaultdict(float)
        for src in (a, b):
            for name, value in src[key].items():
                merged[name] += value
        out[key] = merged
    out["peaks"] = Counter({n: max(a["peaks"][n], b["peaks"][n]) for n in set(a["peaks"]) | set(b["peaks"])})
    return out
