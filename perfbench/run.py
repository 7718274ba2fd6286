"""End-to-end benchmark of the InfiniWolf fleet simulator and service.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fleet_jitter_vector --seed 1 \\
        --seconds 15 --trace 0

Workloads (see perfbench/README.md for why each exists):

* ``fleet_jitter_vector`` — ``FleetRunner(backend="vector").run`` on
  fresh-seed ``daily_jitter`` fleets: harvest pricing and numpy stepping.
* ``fleet_streaks_pool`` — ``FleetRunner(backend="process").compare`` of
  ``energy_aware`` vs ``ewma_forecast`` on ``cloudy_streaks`` fleets:
  scalar stepping behind the shared worker pool.
* ``serve_mixed`` — one client against ``repro serve`` in its own
  process; about 2/3 of requests repeat an earlier one (store reads).

Every pass runs in a fresh program process (``perfbench/host.py``).
Operation timings are scaled to a nominal core speed by a reference
loop run between operations (``perfbench/speed.py``); raw wall figures
are printed beside them.  ``--seconds`` sizes a fixed, seeded amount of
work (calibrated to take about that long at the nominal speed); it is
not a time window.  With
``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` the run makes an untraced and a traced pass, prints the
per-layer self-time table and carries the per-layer metrics.
"""

from __future__ import annotations

import argparse
import compileall
import gc
import hashlib
import http.client
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from host import REPLAY_BASE, vmhwm_kib
from inputs import (GATE_STUDIES, STREAKS_POLICIES, serve_sequence,
                    warmup_request)
from spans import layer_totals, load_spans
from speed import (REFERENCE_ITERATIONS, SpeedProbe, reference_s, scale,
                   scaled, slowest_cpu_s)

HERE = Path(__file__).resolve().parent
WORKLOADS = ("fleet_jitter_vector", "fleet_streaks_pool", "serve_mixed")

#: Program processes launched per untraced run to sample set-up time;
#: ``setup_s`` is their median, at the nominal core speed.
SETUP_SAMPLES = 5

#: Segments of the timed phase whose median rate is reported.
RATE_SEGMENTS = 5

#: Seconds between reference loops on ``serve_mixed``, whose requests
#: are too short for a loop before each.
SERVE_PROBE_EVERY_S = 0.1

#: Hard stop, under the 180 s a run may take.
DEADLINE_S = 170

#: Requests a server answers before the timed sequence: /health and
#: the warm-up request.
SETUP_REQUESTS = 2

END_TO_END_UNITS = {
    "setup_s": "s",
    "wearer_days_per_s": "1/s",
    "req_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MiB",
}

PER_LAYER_UNITS = {
    "harvest.intake_ms": "ms",
    "harvest.intake_calls": "count",
    "harvest.memo_hit_ratio": "ratio",
    "fleet.vector.self_ms": "ms",
    "core.simulation.run_ms": "ms",
    "core.simulation.runs": "count",
    "pool.spawn_s": "s",
    "pool.run_chunked_ms": "ms",
    "pool.overhead_ms": "ms",
    "pool.chunks": "count",
    "pool.payload_bytes": "bytes",
    "fleet.samplers.materialize_ms": "ms",
    "fleet.result.reduce_ms": "ms",
    "fleet.result.canonical_ms": "ms",
    "fleet.result.canonical_bytes": "bytes",
    "serve.store.get_ms": "ms",
    "serve.store.put_ms": "ms",
    "serve.store.bytes_read": "bytes",
    "serve.store.bytes_written": "bytes",
    "serve.handlers.handle_ms": "ms",
    "serve.app.transport_ms": "ms",
}

#: Span name -> per-layer metric carrying its self time.
SELF_TIME_METRICS = {
    "harvest.intake": "harvest.intake_ms",
    "fleet.vector": "fleet.vector.self_ms",
    "core.simulation.run": "core.simulation.run_ms",
    "pool.run_chunked": "pool.run_chunked_ms",
    "fleet.samplers": "fleet.samplers.materialize_ms",
    "fleet.result.reduce": "fleet.result.reduce_ms",
    "fleet.result.canonical": "fleet.result.canonical_ms",
    "serve.store.get": "serve.store.get_ms",
    "serve.store.put": "serve.store.put_ms",
    "serve.handlers.handle": "serve.handlers.handle_ms",
}


class BenchError(Exception):
    """A run that cannot produce a result."""


class Run:
    """Shared state of one benchmark run: paths and child processes."""

    def __init__(self, root: Path, args) -> None:
        self.root = root
        self.args = args
        self.work = root / ".perfbench" / f"run-{os.getpid()}"
        self.work.mkdir(parents=True, exist_ok=True)
        self.children: list[subprocess.Popen] = []
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"),
                        PYTHONHASHSEED="0")
        # The pool workload's set-up spawns a worker per CPU, so its
        # set-ups are scaled by the slowest CPU.
        self.loop = (slowest_cpu_s if args.workload == "fleet_streaks_pool"
                     else reference_s)

    def launch(self, *argv: str) -> subprocess.Popen:
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "host.py"), *argv],
            cwd=self.root, env=self.env, stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True,
            # Own process group, so a failed run can stop the pool
            # workers together with their host.
            start_new_session=True)
        self.children.append(proc)
        return proc

    def finish(self, proc: subprocess.Popen, timeout_s: float = 60) -> None:
        try:
            code = proc.wait(timeout=timeout_s)
        except subprocess.TimeoutExpired:
            raise BenchError("program process did not exit") from None
        self.children.remove(proc)
        if code != 0:
            raise BenchError(f"program process exited with code {code}")

    def stop_all(self) -> None:
        for proc in self.children:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
        self.children.clear()


# -- measurements ------------------------------------------------------

def tail(latencies: list[float]) -> tuple[float, str]:
    """The highest percentile with at least 10 samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], f"max of n={n} (fewer than 11 samples)"
    rank = n - 10
    return ordered[rank - 1], f"p{100 * rank / n:.1f} of n={n}"


# -- fleet workloads ---------------------------------------------------

def fleet_host_args(run: Run, trace: int, tag: str) -> list[str]:
    a = run.args
    return ["fleet", "--workload", a.workload, "--seed", str(a.seed),
            "--seconds", str(a.seconds), "--trace", str(trace),
            "--out", str(run.work / f"{tag}.json"),
            "--spans", str(run.work / f"{tag}.spans.jsonl")]


def setup_timer(loop):
    """Start timing a set-up; the returned ``stop()`` gives
    ``(wall seconds, seconds at the nominal core speed)``."""
    before = loop()
    started = time.perf_counter()

    def stop() -> tuple[float, float]:
        wall = time.perf_counter() - started
        return wall, scale(wall, before, loop())
    return stop


def fleet_setup(run: Run, argv: list[str]):
    stop = setup_timer(run.loop)
    proc = run.launch(*argv)
    if proc.stdout.readline().strip() != "ready":
        raise BenchError("program process failed during set-up")
    return proc, stop()


def fleet_pass(run: Run, trace: int, tag: str) -> dict:
    argv = fleet_host_args(run, trace, tag)
    proc, setup_s = fleet_setup(run, argv)
    proc.stdin.write("go\n")
    proc.stdin.flush()
    if proc.stdout.readline().strip() != "done":
        raise BenchError("program process failed during the timed phase")
    run.finish(proc)
    with open(run.work / f"{tag}.json", encoding="utf-8") as source:
        result = json.load(source)
    result["setup_s"] = setup_s
    result["rss_kib"]["run.py"] = vmhwm_kib(os.getpid())
    return result


def fleet_setup_only(run: Run) -> float:
    proc, setup_s = fleet_setup(run, fleet_host_args(run, 0, "setup"))
    proc.stdin.write("quit\n")
    proc.stdin.flush()
    run.finish(proc)
    return setup_s


def fleet_failures(result: dict, gated: bool = True) -> set:
    """Failed study indices; the gate must have run on a gated pass."""
    if gated and len(result["gate"]) != GATE_STUDIES:
        raise BenchError("correctness gate did not run")
    failed = {f["op"] for f in result["failures"]}
    failed |= {g["op"] for g in result["gate"] if not g["match"]}
    return failed


# -- serve workload ----------------------------------------------------

def request(port: int, method: str, path: str, data: bytes | None = None):
    """One request on its own connection: (status, cache, body)."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    try:
        headers = {"Content-Type": "application/json"} if data else {}
        connection.request(method, path, body=data, headers=headers)
        response = connection.getresponse()
        return (response.status, response.getheader("X-Repro-Cache", ""),
                response.read())
    finally:
        connection.close()


def serve_setup(run: Run, tag: str, trace: int):
    """Launch a server, wait for /health and one warm-up request."""
    store = run.work / f"{tag}-store"
    stop = setup_timer(run.loop)
    proc = run.launch("serve", "--store", str(store), "--trace", str(trace),
                      "--spans", str(run.work / f"{tag}.spans.jsonl"))
    match = re.search(r"http://[^:]+:(\d+)", proc.stdout.readline())
    if match is None:
        raise BenchError("server did not report its port")
    port = int(match.group(1))
    # The server prints its port once it listens, so /health answers.
    warm_path, warm_body = warmup_request()
    for method, path, data in (
            ("GET", "/health", None),
            ("POST", warm_path, json.dumps(warm_body).encode())):
        status, _, _ = request(port, method, path, data)
        if status != 200:
            raise BenchError(f"set-up request {path} returned {status}")
    return proc, port, stop()


def serve_stop(run: Run, proc: subprocess.Popen) -> None:
    proc.send_signal(signal.SIGINT)
    run.finish(proc)


def serve_pass(run: Run, trace: int, tag: str) -> dict:
    sequence = [(path, json.dumps(body).encode(), first, days)
                for path, body, first, days
                in serve_sequence(run.args.seed, run.args.seconds)]
    proc, port, setup_s = serve_setup(run, tag, trace)
    latencies, responses = [], []
    probe = SpeedProbe(SERVE_PROBE_EVERY_S)
    # The client's own collector pauses would land in the latencies.
    gc.disable()
    for path, data, _, _ in sequence:
        probe.before_op()
        sent = time.perf_counter()
        try:
            responses.append(request(port, "POST", path, data))
        except OSError as exc:
            responses.append((None, "", str(exc).encode()))
        latencies.append(time.perf_counter() - sent)
    probe.finish()
    gc.enable()
    rss = {"server": vmhwm_kib(proc.pid), "run.py": vmhwm_kib(os.getpid())}
    serve_stop(run, proc)

    # Correctness gate, after timing: every response a 200 with the
    # expected cache state, every hit byte-identical to its first miss.
    failures = set()
    for position, ((_, _, first, _), (status, cache, body)) in enumerate(
            zip(sequence, responses)):
        expected = "miss" if first == position else "hit"
        if (status != 200 or cache != expected
                or body != responses[first][2]):
            failures.add(position)
    return {
        "latencies_s": latencies, "reference": probe.record(),
        "setup_s": setup_s,
        "rss_kib": rss,
        "hit": [first != position for position, (_, _, first, _)
                in enumerate(sequence)],
        "op_days": [days if first == position else 0
                    for position, (_, _, first, days) in enumerate(sequence)],
        "digests": [hashlib.sha256(body).hexdigest()
                    for _, _, body in responses],
        "failed": sorted(failures),
        "spans": str(run.work / f"{tag}.spans.jsonl"),
    }


def serve_setup_only(run: Run, tag: str) -> float:
    proc, _, setup_s = serve_setup(run, tag, 0)
    serve_stop(run, proc)
    return setup_s


# -- metrics -----------------------------------------------------------

def segment_rate(work: list[float], latencies: list[float]) -> float:
    """Work per wall second: the median over consecutive segments.

    The timed phase is cut into :data:`RATE_SEGMENTS` runs of
    consecutive operations; one caller waits for each operation, so a
    segment's wall time is the sum of its latencies.  The median keeps
    a stall of the shared host inside one segment out of the figure.
    """
    n = len(latencies)
    cuts = [round(i * n / RATE_SEGMENTS) for i in range(RATE_SEGMENTS + 1)]
    return statistics.median(
        sum(work[lo:hi]) / sum(latencies[lo:hi])
        for lo, hi in zip(cuts, cuts[1:]) if hi > lo)


def end_to_end(result: dict,
               setup_samples: list[tuple[float, float]]) -> dict:
    """End-to-end metrics; operation timings at the nominal core speed."""
    raw = result["latencies_s"]
    latencies = scaled(raw, result["reference"])
    tail_s, tail_label = tail(latencies)
    values = {
        "setup_s": statistics.median(s for _, s in setup_samples),
        "wearer_days_per_s": segment_rate(result["op_days"], latencies),
        "req_per_s": segment_rate([1.0] * len(latencies), latencies),
        "latency_p50_ms": 1e3 * statistics.median(latencies),
        "latency_tail_ms": 1e3 * tail_s,
        "peak_rss_mb": sum(result["rss_kib"].values()) / 1024,
    }
    print(f"samples: {len(latencies)} timed operations, "
          f"{len(setup_samples)} set-ups; latency_tail_ms is {tail_label}")
    loops = result["reference"]["samples"]
    print(f"raw wall: setup_s "
          f"{statistics.median(w for w, _ in setup_samples):.4f}, "
          f"latency_p50_ms {1e3 * statistics.median(raw):.3f}, "
          f"wearer_days_per_s {segment_rate(result['op_days'], raw):.4g}; "
          f"reference loop {len(loops)} times, median "
          f"{1e3 * statistics.median(loops):.2f} ms "
          f"({1e3 * min(loops):.2f}-{1e3 * max(loops):.2f})")
    if "hit" in result:
        for label, want in (("hit", True), ("miss", False)):
            picked = [lat for lat, hit in zip(latencies, result["hit"])
                      if hit is want]
            print(f"{label}_p50_ms: {1e3 * statistics.median(picked):.3f} "
                  f"(n={len(picked)})")
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END_UNITS.items()}


def per_layer(workload: str, untraced: dict, traced: dict,
              spans_path: str) -> dict:
    """Per-layer metrics of the traced pass; prints its self-time table.

    Times are totals over the timed operations (set-up work such as the
    warm-up request is left out).  On ``fleet_streaks_pool`` the layers
    inside the pool workers come from the in-process replay of the
    timed chunks.
    """
    spans, totals = load_spans(spans_path)
    values = dict.fromkeys(PER_LAYER_UNITS, 0)
    latencies = traced["latencies_s"]
    transport: dict[int, float] = {}
    if workload == "serve_mixed":
        # Request ids number ServeService.handle calls; the two set-up
        # requests come first.
        ops = range(SETUP_REQUESTS, SETUP_REQUESTS + len(latencies))
        handle = {s["request"]: s["end"] - s["start"] for s in spans
                  if s["name"] == "serve.handlers.handle"}
        transport = {request: latency - handle[request]
                     for request, latency in zip(ops, latencies)}
        replays: list[int] = []
    else:
        ops = range(len(latencies))
        batches = traced["batches"]
        replays = [REPLAY_BASE + n for n in range(len(batches))]
        sampled = [b["pooled_s"] - max(b["chunk_s"]) for b in batches
                   if b["chunk_s"]]
        if sampled:
            values["pool.overhead_ms"] = (
                1e3 * statistics.mean(sampled) * len(batches))
        values["pool.chunks"] = sum(b["chunks"] for b in batches)
        values["pool.payload_bytes"] = sum(b["payload_bytes"]
                                           for b in batches)
        values["pool.spawn_s"] = sum(s["end"] - s["start"] for s in spans
                                     if s["name"] == "pool.warm")
    layers, counts = layer_totals(spans, totals, [*ops, *replays])
    for name, metric in SELF_TIME_METRICS.items():
        values[metric] = 1e3 * layers.get(name, {}).get("self_s", 0.0)
    calls = {name: layers.get(name, {}).get("calls", 0)
             for name in ("harvest.intake", "core.simulation.run")}
    values["harvest.intake_calls"] = calls["harvest.intake"]
    values["core.simulation.runs"] = calls["core.simulation.run"]
    if calls["harvest.intake"]:
        values["harvest.memo_hit_ratio"] = (
            counts["harvest.memo_hits"] / calls["harvest.intake"])
    for key in ("fleet.result.canonical_bytes", "serve.store.bytes_read",
                "serve.store.bytes_written"):
        values[key] = counts[key]
    values["serve.app.transport_ms"] = 1e3 * sum(transport.values())
    busy = {name: sum(scaled(result["latencies_s"], result["reference"]))
            for name, result in (("traced", traced), ("untraced", untraced))}
    overhead_pct = 100 * (busy["traced"] / busy["untraced"] - 1)

    print(f"\n{workload}: per-layer self time of the traced pass; tracing "
          f"overhead {overhead_pct:+.1f} % (summed operation time at the "
          f"nominal core speed: traced {busy['traced']:.3f} s vs untraced "
          f"{busy['untraced']:.3f} s)")
    if workload == "serve_mixed":
        for label, want in (("hits", True), ("misses", False)):
            picked = [request for request, hit in zip(ops, traced["hit"])
                      if hit is want]
            print_section(
                f"serve {label}", spans, totals, picked,
                [("serve.app.transport",
                  sum(transport[r] for r in picked), len(picked))],
                sum(lat for lat, hit in zip(latencies, traced["hit"])
                    if hit is want))
    else:
        print_section("timed operations", spans, totals, ops,
                                     [], sum(latencies))
        if replays:
            timed = sum(1 for b in traced["batches"] if b["chunk_s"])
            print(f"  pool.overhead_ms {values['pool.overhead_ms']:.1f}: "
                  "pooled wall minus the slowest chunk of the same batch "
                  "run in-process, untraced and back to back; mean of "
                  f"{timed} of {len(traced['batches'])} batches, times "
                  "the batches")
            print_section("inside pool chunks (traced in-process replay, "
                          "serial)", spans, totals, replays, [], None)
    print()
    return {name: {"value": values[name], "unit": unit}
            for name, unit in PER_LAYER_UNITS.items()}


def print_section(title, spans, totals, requests, extra_rows,
                  op_s) -> None:
    """Print one self-time table.

    With ``op_s`` (the callers' summed latency) the unattributed row is
    that latency minus every layer's self time; it goes negative when
    spans of a thread pool overlap.  Without it, shares are of the
    section's own total.
    """
    layers, _ = layer_totals(spans, totals, requests)
    rows = [(name, layer["self_s"], layer["calls"])
            for name, layer in layers.items() if name != "bench.op"]
    rows += extra_rows
    attributed = sum(row[1] for row in rows)
    if op_s is not None:
        # Rounded to the nanosecond: on serve it is zero by construction.
        rows.append(("(unattributed)", round(op_s - attributed, 9) + 0.0,
                     0))
    base = attributed if op_s is None else op_s
    print(f"  {title}: {len(requests)} operations, "
          f"{1e3 * base:.1f} ms")
    print(f"    {'layer':32s} {'self ms':>11s} {'share':>7s} {'calls':>8s}")
    for name, self_s, calls in sorted(rows, key=lambda row: -row[1]):
        print(f"    {name:32s} {1e3 * self_s:11.1f} "
              f"{100 * self_s / base:6.1f}% {calls:8d}")


# -- entry point -------------------------------------------------------

def measure(run: Run) -> dict:
    args = run.args
    serve = args.workload == "serve_mixed"
    if not args.trace:
        setups = []
        for sample in range(SETUP_SAMPLES - 1):
            setups.append(serve_setup_only(run, f"setup{sample}") if serve
                          else fleet_setup_only(run))
        if serve:
            result = serve_pass(run, 0, "pass")
            setups.append(result["setup_s"])
            failed = set(result["failed"])
        else:
            result = fleet_pass(run, 0, "pass")
            setups.append(result["setup_s"])
            failed = fleet_failures(result)
        metrics = end_to_end(result, setups)
        attempted = len(result["latencies_s"])
    else:
        # Failures are tagged with their pass: attempted counts both.
        if serve:
            untraced = serve_pass(run, 0, "untraced")
            traced = serve_pass(run, 1, "traced")
            failed = ({("untraced", op) for op in untraced["failed"]}
                      | {("traced", op) for op in traced["failed"]})
            spans_path = traced["spans"]
        else:
            untraced = fleet_pass(run, 0, "untraced")
            traced = fleet_pass(run, 1, "traced")
            failed = ({("untraced", op) for op in fleet_failures(untraced)}
                      | {("traced", op) for op
                         in fleet_failures(traced, gated=False)})
            # A comparison dispatches one pool batch per policy.
            failed |= {("traced", n // len(STREAKS_POLICIES))
                       for n, b in enumerate(traced["batches"])
                       if not b["match"]}
            spans_path = str(run.work / "traced.spans.jsonl")
        # Tracing must not change a single output byte.
        failed |= {("traced", op) for op, (a, b) in enumerate(
            zip(untraced["digests"], traced["digests"])) if a != b}
        kept = run.root / ".perfbench" / f"spans-{args.workload}.jsonl"
        shutil.copyfile(spans_path, kept)
        print(f"spans: {kept.relative_to(run.root)}")
        metrics = per_layer(args.workload, untraced, traced, spans_path)
        attempted = (len(untraced["latencies_s"])
                     + len(traced["latencies_s"]))
    return {"correct": not failed, "attempted": attempted,
            "failed": len(failed), "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("error: run from the repository root (src/repro not found)",
              file=sys.stderr)
        return 2

    def expire(signum, frame):
        raise BenchError(f"run exceeded {DEADLINE_S} s"
                         if signum == signal.SIGALRM else "terminated")
    signal.signal(signal.SIGALRM, expire)
    signal.signal(signal.SIGTERM, expire)
    signal.alarm(DEADLINE_S)

    # Byte-compile the package once, so every launch imports from a warm
    # bytecode cache whether or not the environment lets Python write one
    # (PYTHONDONTWRITEBYTECODE): setup_s then never includes compiling.
    compileall.compile_dir(root / "src", quiet=2)
    run = Run(root, args)
    try:
        before = reference_s(10 * REFERENCE_ITERATIONS)
        report = measure(run)
        after = reference_s(10 * REFERENCE_ITERATIONS)
    except (BenchError, OSError) as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
        run.stop_all()
        shutil.rmtree(run.work, ignore_errors=True)
    print(f"host speed reference (fixed pure-Python loop): "
          f"before {before:.4f} s, after {after:.4f} s")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
