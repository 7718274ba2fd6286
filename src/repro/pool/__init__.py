"""Persistent shared worker pools with chunked dispatch.

The process backend used to lose to serial: every ``run_batch`` /
``run_grid`` / ``FleetRunner.run`` / ``ChaosRunner.run`` call spawned
a fresh ``ProcessPoolExecutor`` (interpreter start + ``import repro``
per worker, per call) and shipped one full JSON spec per future, so
pool setup and payload shipping swamped the simulations
(``BENCH_sim_throughput.json`` recorded 2.47 scenarios/s against
174.75 serial).  :class:`WorkerPool` fixes the dispatch granularity:

* **Persistent** — the pool is created once (lazily, on first use)
  and reused by every process-backed call in the process: scenario
  sweeps, policy grids, fleet runs, chaos campaigns and the serve
  layer all share :func:`get_shared_pool`.  Workers warm the heavy
  ``repro`` imports in their initializer, so the spawn cost is paid
  once per process lifetime instead of once per call.
* **Chunked** — a batch is split into *strided* chunks (chunk ``c``
  of ``C`` owns items ``c, c+C, c+2C, ...``), one future per chunk
  instead of one per item, and results are reassembled in input
  order.  Striding keeps chunks balanced for any batch size, exactly
  like fleet sharding.
* **Broadcast** — the batch's shared context (the base scenario, the
  fleet spec, the campaign spec) ships once per chunk, not once per
  item; per-item payloads are deltas or bare indices.  A 500-wearer
  fleet run ships the ``FleetSpec`` a handful of times and two small
  integer lists per chunk — workers rematerialize their own wearers
  from ``random.Random(seed + index)``, which is deterministic, so
  the canonical-JSON contract across backends is untouched.

Worker death (OOM, signal) breaks a ``ProcessPoolExecutor``
permanently; the pool detects ``BrokenProcessPool``, discards the
broken executor so the *next* batch self-heals onto fresh workers,
and raises :class:`WorkerCrash` carrying the dead chunk's item
positions so callers can name the scenarios that were in flight.

One dispatcher, :func:`execute`, is the only way the runners reach
the pool.  It validates the backend (``"serial"`` or ``"process"``)
and worker count, runs trivial batches (the serial backend, one
worker, at most one item) through the *same* chunk handler in-process,
forwards the ``REPRO_WORKER_CRASH`` test hook into the chunk context
on the pool path only, turns a :class:`WorkerCrash` into the one
:class:`~repro.errors.SpecError` naming the dead chunk's items, and
reports which backend actually ran.  Scenario sweeps, fleet studies
and chaos campaigns only build a context and an item list.

Start methods: ``spawn`` (the default — identical registry-visibility
semantics on every platform) or the opt-in ``forkserver``
(``REPRO_POOL_START_METHOD=forkserver``), which forks workers from a
clean preloaded server process for cheaper respawns on POSIX.  Plain
``fork`` is deliberately not offered: forked workers would inherit the
parent's runtime registrations and silently break the process
backend's import-time-registry contract.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

from repro.errors import RegistryError, ReproError, SpecError
from repro.pool.worker import resolve_handler, run_chunk

__all__ = [
    "BACKENDS",
    "PoolStats",
    "WorkerCrash",
    "WorkerPool",
    "check_backend",
    "check_workers",
    "execute",
    "get_shared_pool",
    "name_span",
    "shared_pool_stats",
    "shutdown_shared_pool",
]

#: The execution backends :func:`execute` dispatches to: the calling
#: process, or the shared persistent worker pool.
BACKENDS = ("serial", "process")

#: Start methods the pool accepts.  ``fork`` is excluded on purpose:
#: forked workers see the parent's runtime registrations, which would
#: make process-backend behaviour platform-dependent.
START_METHODS = ("spawn", "forkserver")

#: Environment knobs (read at :class:`WorkerPool` construction).
WORKERS_ENV = "REPRO_POOL_WORKERS"
START_METHOD_ENV = "REPRO_POOL_START_METHOD"

#: Test hook: a pool worker dies (``os._exit``) when it reaches the
#: item named here.  :func:`execute` forwards it in the chunk context
#: (pool workers may predate the variable); inline runs never see it.
CRASH_ENV = "REPRO_WORKER_CRASH"


def check_backend(backend: str,
                  known: Sequence[str] = BACKENDS) -> str:
    """``backend`` if it is one of ``known``, else a SpecError."""
    if backend not in known:
        raise SpecError(
            f"unknown backend {backend!r}; known: {list(known)}")
    return backend


def check_workers(workers: int) -> int:
    """``workers`` if it is a positive integer, else a SpecError."""
    if isinstance(workers, bool) or not isinstance(workers, int):
        raise SpecError(f"worker count must be an integer, "
                        f"got {workers!r}")
    if workers < 1:
        raise SpecError(f"worker count must be at least 1, "
                        f"got {workers}")
    return workers


def default_workers() -> int:
    """The shared pool's default size: ``REPRO_POOL_WORKERS`` if set,
    else the machine's CPU count."""
    raw = os.environ.get(WORKERS_ENV, "").strip()
    if raw:
        try:
            workers = int(raw)
        except ValueError:
            raise SpecError(
                f"{WORKERS_ENV} must be an integer, got {raw!r}") from None
        if workers < 1:
            raise SpecError(
                f"{WORKERS_ENV} must be at least 1, got {workers}")
        return workers
    return os.cpu_count() or 1


@dataclass(frozen=True)
class PoolStats:
    """Counters describing a pool's lifetime (what ``/stats`` shows).

    Attributes:
        spawns: executors created — 1 for the whole process unless a
            worker crash forced a respawn.
        batches: chunked dispatches executed.
        chunks: chunk futures submitted across all batches.
        tasks: items carried by those chunks.
        crashes: ``BrokenProcessPool`` incidents survived.
    """

    workers: int
    start_method: str
    spawns: int = 0
    batches: int = 0
    chunks: int = 0
    tasks: int = 0
    crashes: int = 0

    def to_dict(self) -> dict[str, Any]:
        return {
            "workers": self.workers,
            "start_method": self.start_method,
            "spawns": self.spawns,
            "batches": self.batches,
            "chunks": self.chunks,
            "tasks": self.tasks,
            "crashes": self.crashes,
        }


class WorkerCrash(ReproError):
    """A worker died mid-chunk and broke the pool.

    Carries the positions (indices into the dispatched item list) of
    the chunk that was in flight, so the call site can name the
    scenarios/cases the dead worker was responsible for.  The pool has
    already discarded the broken executor; the next batch respawns.
    """

    def __init__(self, indices: Sequence[int], chunk_index: int,
                 chunk_count: int) -> None:
        self.indices = tuple(indices)
        self.chunk_index = chunk_index
        self.chunk_count = chunk_count
        super().__init__(
            f"worker died while running chunk {chunk_index + 1} of "
            f"{chunk_count} ({len(self.indices)} tasks)")


class WorkerPool:
    """A persistent spawned-worker pool with chunked dispatch.

    Args:
        workers: pool size; defaults to ``REPRO_POOL_WORKERS`` or the
            CPU count.
        start_method: ``"spawn"`` (default) or ``"forkserver"``
            (honours ``REPRO_POOL_START_METHOD`` when omitted); must
            be supported by the platform.

    The underlying executor is created lazily on first dispatch (or
    :meth:`warm`) and survives until :meth:`shutdown` — callers never
    pay the spawn cost more than once unless a worker crash forces a
    respawn.
    """

    def __init__(self, workers: int | None = None,
                 start_method: str | None = None) -> None:
        workers = check_workers(
            default_workers() if workers is None else workers)
        if start_method is None:
            start_method = os.environ.get(START_METHOD_ENV, "").strip() \
                or "spawn"
        if start_method not in START_METHODS:
            raise SpecError(
                f"unknown pool start method {start_method!r}; known: "
                f"{list(START_METHODS)} (fork is deliberately excluded "
                "— forked workers would leak runtime registrations)")
        if start_method not in multiprocessing.get_all_start_methods():
            raise SpecError(
                f"start method {start_method!r} is not supported on "
                f"this platform; available: "
                f"{multiprocessing.get_all_start_methods()}")
        self.workers = workers
        self.start_method = start_method
        self._lock = threading.Lock()
        self._executor: ProcessPoolExecutor | None = None
        self._spawns = 0
        self._batches = 0
        self._chunks = 0
        self._tasks = 0
        self._crashes = 0
        self._known_pids: set[int] = set()
        self._last_batch_pids: frozenset[int] = frozenset()

    # -- lifecycle ----------------------------------------------------

    def _ensure(self) -> ProcessPoolExecutor:
        """The live executor, created under the lock on first use."""
        with self._lock:
            if self._executor is None:
                from repro.pool.worker import warm_worker

                self._executor = ProcessPoolExecutor(
                    max_workers=self.workers,
                    mp_context=multiprocessing.get_context(
                        self.start_method),
                    initializer=warm_worker)
                self._spawns += 1
            return self._executor

    def _discard_broken(self, executor: ProcessPoolExecutor) -> None:
        """Drop a broken executor so the next batch respawns fresh."""
        with self._lock:
            if self._executor is executor:
                self._executor = None
                self._crashes += 1
        executor.shutdown(wait=False, cancel_futures=True)

    @property
    def started(self) -> bool:
        """True once workers exist (and have not crashed away)."""
        with self._lock:
            return self._executor is not None

    def warm(self) -> float:
        """Spawn the workers now; returns the wall seconds it took.

        Dispatches one trivial chunk per worker so every worker is
        forked/spawned and has finished its warm-up imports before the
        first real batch is timed.  Calling it on a warm pool is a
        cheap ping round.
        """
        started = time.perf_counter()
        self.run_chunked("ping", None, list(range(self.workers)),
                         chunks=self.workers)
        return time.perf_counter() - started

    def shutdown(self) -> None:
        """Tear the workers down (the next dispatch would respawn)."""
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=False, cancel_futures=True)

    # -- dispatch -----------------------------------------------------

    def run_chunked(self, kind: str, context: Any,
                    items: Iterable[Any], *,
                    chunks: int | None = None) -> list[Any]:
        """Run ``items`` through the ``kind`` chunk handler, chunked.

        Args:
            kind: a handler key from :mod:`repro.pool.worker`.
            context: the batch's shared payload, shipped once per
                chunk (the broadcast half of the protocol).
            items: per-item payloads (deltas, indices); must be
                picklable, conventionally JSON-ready.
            chunks: ceiling on the number of chunks; the effective
                count never exceeds the pool size or ``len(items)``
                (splitting finer than the workers would only multiply
                dispatch overhead).

        Returns:
            The handlers' per-item results, reassembled in input
            order.

        Raises:
            WorkerCrash: a worker died; carries the positions of the
                chunk that was in flight.  The pool self-heals on the
                next call.
        """
        items = list(items)
        if not items:
            return []
        count = max(1, min(len(items), self.workers,
                           self.workers if chunks is None else chunks))
        executor = self._ensure()
        payloads = [
            {"kind": kind, "context": context, "items": items[c::count]}
            for c in range(count)
        ]
        try:
            futures = self._submit(executor, payloads)
        except RuntimeError:
            # A concurrent crash shut this executor down between
            # _ensure() and submit(); retry once on a fresh one.
            executor = self._ensure()
            futures = self._submit(executor, payloads)
        results: list[Any] = [None] * len(items)
        batch_pids: set[int] = set()
        for c in range(count):
            chunk = None
            if c < len(futures):
                try:
                    chunk = futures[c].result()
                except BrokenProcessPool:
                    pass
            if chunk is None:
                # The chunk died with its worker, or the broken pool
                # refused it at submit.
                self._discard_broken(executor)
                raise WorkerCrash(indices=range(c, len(items), count),
                                  chunk_index=c, chunk_count=count)
            batch_pids.add(chunk["pid"])
            results[c::count] = chunk["results"]
        with self._lock:
            self._batches += 1
            self._chunks += count
            self._tasks += len(items)
            # Workers the executor spawned but that served no chunk yet
            # (a fast sibling took them all) are known workers too.
            self._known_pids |= batch_pids | set(
                getattr(executor, "_processes", None) or ())
            self._last_batch_pids = frozenset(batch_pids)
        return results

    @staticmethod
    def _submit(executor: ProcessPoolExecutor,
                payloads: Sequence[dict]) -> list:
        """Futures for the leading payloads the executor accepts.

        A worker that died after an earlier chunk was submitted breaks
        the pool, and ``submit`` then raises ``BrokenProcessPool`` — a
        ``RuntimeError`` subclass, so it must stop here rather than
        reach the shutdown-race retry, which would hand back the same
        broken executor.  The missing futures surface as a
        :class:`WorkerCrash` in :meth:`run_chunked`, after the earlier
        chunks have had the chance to name the dead one.
        """
        futures = []
        for payload in payloads:
            try:
                futures.append(executor.submit(run_chunk, payload))
            except BrokenProcessPool:
                break
        return futures

    # -- observability ------------------------------------------------

    @property
    def stats(self) -> PoolStats:
        """A consistent snapshot of the lifetime counters."""
        with self._lock:
            return PoolStats(
                workers=self.workers,
                start_method=self.start_method,
                spawns=self._spawns,
                batches=self._batches,
                chunks=self._chunks,
                tasks=self._tasks,
                crashes=self._crashes,
            )

    @property
    def known_pids(self) -> frozenset[int]:
        """Every worker PID this pool has spawned or seen serve."""
        with self._lock:
            return frozenset(self._known_pids)

    @property
    def last_batch_pids(self) -> frozenset[int]:
        """The worker PIDs that served the most recent batch."""
        with self._lock:
            return self._last_batch_pids


# -- the dispatcher ---------------------------------------------------


def name_span(noun: str, names: Sequence[str]) -> str:
    """``names`` under ``noun``, elided to first .. last beyond three.

    >>> name_span("wearers", ["'a'", "'b'", "'c'", "'d'"])
    "wearers 'a' .. 'd' (4 wearers)"
    """
    if len(names) <= 3:
        return f"{noun} {', '.join(names)}"
    return f"{noun} {names[0]} .. {names[-1]} ({len(names)} {noun})"


def execute(kind: str, context: dict[str, Any], items: Sequence[Any], *,
            backend: str, workers: int,
            describe: Callable[[Sequence[int]], str],
            ) -> tuple[list[Any], str]:
    """Run ``items`` through the ``kind`` chunk handler on a backend.

    Args:
        kind: a handler key from :mod:`repro.pool.worker`.
        context: the batch's broadcast payload.
        items: per-item payloads, in order.
        backend: ``"serial"`` or ``"process"``.
        workers: worker count; also the ceiling on the chunk count.
        describe: names the items at the given positions for error
            messages, e.g. ``"wearers 'a', 'b'"`` (see
            :func:`name_span`).

    Returns:
        ``(results, used)``: the handler's per-item results in input
        order, and the backend that actually ran — ``"serial"`` when
        the batch ran inline (serial backend, one worker, at most one
        item), so a result's provenance stays honest.

    Raises:
        SpecError: bad backend or worker count; a pool worker died
            (naming the dead chunk's items; the pool respawns on the
            next batch); or a worker could not resolve a component
            registered only at runtime in this process.
    """
    check_backend(backend)
    check_workers(workers)
    items = list(items)
    if backend == "serial" or workers == 1 or len(items) <= 1:
        results = resolve_handler(kind)(context, items) if items else []
        return results, "serial"
    crash = os.environ.get(CRASH_ENV)
    if crash:
        context = {**context, "crash": crash}
    try:
        results = get_shared_pool().run_chunked(
            kind, context, items, chunks=min(workers, len(items)))
    except WorkerCrash as exc:
        raise SpecError(
            f"process-backend worker died while running chunk "
            f"{exc.chunk_index + 1}/{exc.chunk_count} — "
            f"{describe(exc.indices)}. A worker killed mid-run (OOM, "
            "signal) breaks the pool this way, as does a launching "
            "script without the standard `if __name__ == '__main__':` "
            "guard (spawned workers re-import it, and stdin/REPL "
            "sessions cannot be re-imported at all); see the chained "
            "exception. The shared pool respawns on the next batch; "
            "the serial backend avoids both.") from exc
    except RegistryError as exc:
        raise SpecError(
            f"{describe(range(len(items)))} cannot run on the process "
            f"backend: {exc}. Worker processes import repro fresh, so "
            "only components registered at import time are visible; "
            "runtime @register_* registrations require the serial "
            "backend.") from None
    return results, "process"


# -- the process-wide shared pool -------------------------------------

_shared: WorkerPool | None = None
_shared_lock = threading.Lock()


def get_shared_pool() -> WorkerPool:
    """The process-wide pool every process-backed call path shares.

    Created lazily on first use with the environment defaults
    (``REPRO_POOL_WORKERS`` / ``REPRO_POOL_START_METHOD``) and torn
    down at interpreter exit.  ``ScenarioRunner``, ``FleetRunner``,
    ``ChaosRunner`` and the serve layer all dispatch through this one
    pool, so a long-lived service pays the worker spawn cost exactly
    once.
    """
    global _shared
    with _shared_lock:
        if _shared is None:
            _shared = WorkerPool()
        return _shared


def shutdown_shared_pool() -> None:
    """Tear down the shared pool (the next use recreates it)."""
    global _shared
    with _shared_lock:
        pool, _shared = _shared, None
    if pool is not None:
        pool.shutdown()


def shared_pool_stats() -> dict[str, Any] | None:
    """The shared pool's stats without forcing its creation (or
    ``None`` when no process-backed work has run yet)."""
    with _shared_lock:
        pool = _shared
    return None if pool is None else pool.stats.to_dict()


atexit.register(shutdown_shared_pool)
