"""Outside-in tracing: spans around the program's public callables.

Nothing in ``src/`` knows about tracing.  :func:`install` replaces a
fixed list of public functions and methods with wrappers that record a
span (name, start, end, parent span, request id) per call, so the
per-layer split comes from the boundaries between layers, measured in
the process that runs them.  Spans stay in memory and are written out
when the traced pass ends.

High-frequency leaf calls (``CachedHarvester.battery_intake_w`` runs
once per timeline segment per wearer, tens of thousands of times a
run) are not stored one by one: the wrapper adds their duration to the
parent span's ``leaf_s`` and to per-request totals, which is all the
self-time arithmetic needs, since a leaf has no children and runs in
its parent's thread.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
from collections import Counter, defaultdict
from time import perf_counter

#: Span names whose calls are aggregated instead of stored (one name:
#: a span's ``leaf_s`` is the time of its calls to it).
LEAVES = frozenset({"harvest.intake"})


class Tracer:
    """Span store for one traced process.

    ``root`` is the span that spans without a parent in their own
    thread attach to: the benchmark's operation, or the request being
    handled while the serve runner's thread pool works for it.
    """

    def __init__(self) -> None:
        self.spans: list[dict] = []
        # Aggregates keyed by (name, request id).
        self.leaf_s: Counter = Counter()
        self.leaf_calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.root: int | None = None
        self.request: int | None = None
        #: Off, every wrapper calls straight through (for untraced
        #: replays inside a traced process).
        self.enabled = True
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._child_leaf: dict[int, float] = defaultdict(float)
        # The serve runner steps simulations on a thread pool, so leaf
        # totals and counts are updated from several threads.
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self) -> tuple[int, int | None, float]:
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else self.root
        stack.append(sid)
        return sid, parent, perf_counter()

    def end(self, name: str, token: tuple[int, int | None, float]) -> None:
        end = perf_counter()
        sid, parent, start = token
        self._stack().pop()
        self.spans.append({
            "id": sid, "name": name, "start": start, "end": end,
            "parent": parent, "request": self.request,
            "leaf_s": self._child_leaf.pop(sid, 0.0)})

    def leaf(self, name: str, seconds: float) -> None:
        stack = self._stack()
        parent = stack[-1] if stack else self.root
        with self._lock:
            if parent is not None:
                self._child_leaf[parent] += seconds
            self.leaf_s[name, self.request] += seconds
            self.leaf_calls[name, self.request] += 1

    def count(self, key: str, amount: int) -> None:
        with self._lock:
            self.counts[key, self.request] += amount

    def operation(self, name: str, request: int, fn, *args):
        """``fn(*args)`` inside a root span for request ``request``.

        Spans opened by other threads while it runs (the serve runner's
        thread pool) attach to it and carry its request id.
        """
        if not self.enabled:
            return fn(*args)
        self.request = request
        token = self.begin()
        self.root = token[0]
        try:
            return fn(*args)
        finally:
            self.end(name, token)
            self.root = self.request = None

    def wrap(self, name: str, fn, after=None):
        """``fn`` recording a span named ``name`` per call.

        ``after(tracer, args, result)`` runs after the span closes, to
        count bytes or other deterministic quantities.
        """
        tracer = self
        if name in LEAVES:
            @functools.wraps(fn)
            def traced_leaf(*args, **kwargs):
                if not tracer.enabled:
                    return fn(*args, **kwargs)
                start = perf_counter()
                result = fn(*args, **kwargs)
                tracer.leaf(name, perf_counter() - start)
                return result
            return traced_leaf

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            token = tracer.begin()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(name, token)
            if after is not None:
                after(tracer, args, result)
            return result
        return traced

    def dump(self, path: str) -> None:
        """Write the spans (one JSON object per line) and the totals."""
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")
            out.write(json.dumps({
                "leaves": [[name, request, seconds,
                            self.leaf_calls[name, request]]
                           for (name, request), seconds
                           in self.leaf_s.items()],
                "counts": [[key, request, amount] for (key, request), amount
                           in self.counts.items()]}) + "\n")


def _replace_everywhere(original, replacement) -> None:
    """Rebind every module-level name that refers to ``original``.

    Modules import some callables by name (``from repro.fleet.population
    import wearer_scenarios``), so patching the defining module alone
    would miss those call sites.
    """
    for module in list(sys.modules.values()):
        namespace = getattr(module, "__dict__", None)
        if not namespace or not getattr(module, "__name__", "").startswith(
                "repro"):
            continue
        for key, value in list(namespace.items()):
            if value is original:
                setattr(module, key, replacement)


def _patch_method(cls, attr: str, tracer: Tracer, name: str, after=None,
                  inner=None) -> None:
    raw = cls.__dict__[attr]
    if isinstance(raw, classmethod):
        fn = raw.__func__
        wrapped = tracer.wrap(name, inner(fn) if inner else fn, after)
        setattr(cls, attr, classmethod(wrapped))
    else:
        wrapped = tracer.wrap(name, inner(raw) if inner else raw, after)
        setattr(cls, attr, wrapped)


def install(tracer: Tracer) -> None:
    """Wrap the public boundary of every layer the benchmark splits."""
    import repro.fleet.population as population
    import repro.fleet.runner  # noqa: F401  (binds wearer_scenarios)
    import repro.fleet.vector as vector
    import repro.scenarios.spec as spec
    from repro.core.simulation import DaySimulation
    from repro.fleet.result import FleetResult
    from repro.harvest.dual import CachedHarvester
    from repro.pool import WorkerPool
    from repro.serve.handlers import ServeService
    from repro.serve.store import ResultStore

    def memo_hits(fn):
        @functools.wraps(fn)
        def counted(self, lighting, thermal):
            hits = self.stats.hits
            result = fn(self, lighting, thermal)
            tracer.count("harvest.memo_hits", self.stats.hits - hits)
            return result
        return counted

    def count_bytes(key):
        def after(tracer, args, result):
            tracer.count(key, len(result))
        return after

    def count_read(tracer, args, result):
        if result is not None:
            tracer.count("serve.store.bytes_read", len(result))

    def count_written(tracer, args, result):
        tracer.count("serve.store.bytes_written", len(args[2]))

    _patch_method(CachedHarvester, "battery_intake_w", tracer,
                  "harvest.intake", inner=memo_hits)
    _patch_method(DaySimulation, "run", tracer, "core.simulation.run")
    _patch_method(FleetResult, "from_outcomes", tracer, "fleet.result.reduce")
    _patch_method(WorkerPool, "warm", tracer, "pool.warm")
    _patch_method(WorkerPool, "run_chunked", tracer, "pool.run_chunked")
    _patch_method(ResultStore, "get", tracer, "serve.store.get",
                  after=count_read)
    _patch_method(ResultStore, "put", tracer, "serve.store.put",
                  after=count_written)
    # One client sends one request at a time, so the n-th call of
    # ServeService.handle is the client's n-th request.
    numbers = itertools.count()
    handle = ServeService.handle

    @functools.wraps(handle)
    def numbered(self, *args):
        return tracer.operation("serve.handlers.handle", next(numbers),
                                handle, self, *args)
    ServeService.handle = numbered
    for module, attr, name, after in (
            (vector, "simulate_specs_vector", "fleet.vector", None),
            (population, "wearer_scenarios", "fleet.samplers", None),
            (population, "wearer_scenario", "fleet.samplers", None),
            (spec, "canonical_json_bytes", "fleet.result.canonical",
             count_bytes("fleet.result.canonical_bytes"))):
        original = getattr(module, attr)
        _replace_everywhere(original, tracer.wrap(name, original, after))


def load_spans(path: str) -> tuple[list[dict], dict]:
    """The spans and totals written by :meth:`Tracer.dump`."""
    with open(path, encoding="utf-8") as source:
        lines = [json.loads(line) for line in source]
    return lines[:-1], lines[-1]


def _covered(intervals: list[tuple[float, float]], start: float,
             end: float) -> float:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def _shares(intervals: list[tuple[float, float]]) -> list[float]:
    """Wall time owned by each interval when overlapping ones share.

    Every stretch of time is split equally among the intervals active
    in it, so siblings on a thread pool split the wall they overlap on
    instead of each claiming all of it.
    """
    edges = sorted({t for interval in intervals for t in interval})
    owned = [0.0] * len(intervals)
    for lo, hi in zip(edges, edges[1:]):
        active = [i for i, (start, end) in enumerate(intervals)
                  if start <= lo and end >= hi]
        for i in active:
            owned[i] += (hi - lo) / len(active)
    return owned


def self_times(spans: list[dict]) -> dict[int, tuple[float, float]]:
    """Span id -> (self seconds, leaf seconds), overlap-shared.

    Self time is the span's duration minus the part its children cover
    and minus its leaf calls.  Where children overlap (the serve
    runner's thread pool), each child's whole subtree is scaled to the
    share of wall time it owns, so a parent's subtree adds up to its
    duration.
    """
    children: dict[int | None, list[dict]] = defaultdict(list)
    for span in spans:
        children[span["parent"]].append(span)
    ratio: dict[int, float] = {}
    for kids in children.values():
        intervals = [(kid["start"], kid["end"]) for kid in kids]
        for kid, owned in zip(kids, _shares(intervals)):
            duration = kid["end"] - kid["start"]
            ratio[kid["id"]] = owned / duration if duration > 0 else 1.0
    scale: dict[int, float] = {}
    result = {}
    for span in sorted(spans, key=lambda span: span["id"]):
        scale[span["id"]] = ratio[span["id"]] * scale.get(span["parent"],
                                                           1.0)
        own = (span["end"] - span["start"]
               - _covered([(k["start"], k["end"])
                           for k in children.get(span["id"], [])],
                          span["start"], span["end"])
               - span["leaf_s"])
        result[span["id"]] = (own * scale[span["id"]],
                              span["leaf_s"] * scale[span["id"]])
    return result


def layer_totals(spans: list[dict], totals: dict,
                 requests) -> tuple[dict[str, dict], Counter]:
    """Per layer: calls and self seconds; and the counts.

    Only spans, leaves and counts of the given request ids are summed,
    which leaves out set-up work such as warm-up requests.
    """
    requests = set(requests)
    own = self_times(spans)
    layers: dict[str, dict] = defaultdict(
        lambda: {"calls": 0, "self_s": 0.0})
    (leaf_name,) = LEAVES
    for span in spans:
        if span["request"] not in requests:
            continue
        self_s, leaf_s = own[span["id"]]
        layer = layers[span["name"]]
        layer["calls"] += 1
        layer["self_s"] += self_s
        if leaf_s:
            layers[leaf_name]["self_s"] += leaf_s
    for name, request, _, calls in totals["leaves"]:
        if request in requests:
            layers[name]["calls"] += calls
    counts: Counter = Counter()
    for key, request, amount in totals["counts"]:
        if request in requests:
            counts[key] += amount
    return dict(layers), counts
