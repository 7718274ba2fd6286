"""The program process of one benchmark pass.

``run.py`` launches this script once per set-up sample and once per
measured pass, always as a fresh process, so every pass pays (and
``setup_s`` measures) the imports, the pool spawn and a warm-up
operation.  Two modes:

``fleet``  sets up, prints ``ready`` and waits for ``go`` (or ``quit``)
           on stdin; then runs the workload's fixed timed studies, each
           after a host-speed reference loop (:mod:`speed`; on every CPU
           for the pool workload),
           reads the peak RSS of itself and its pool workers, re-runs
           the gated studies on the scalar ``serial`` backend and writes
           a JSON result to ``--out``.

``serve``  calls :func:`repro.serve.serve_forever` on an ephemeral
           port with the default backend and ``workers=nproc``; ``run.py``
           is the client and stops it with SIGINT.

With ``--trace 1`` the layer wrappers of :mod:`spans` are installed
before anything runs and the spans are written to ``--spans`` when
the pass ends.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pickle
import signal
import sys
import time

from inputs import STREAKS_POLICIES, fleet_inputs
from spans import Tracer, install
from speed import SpeedProbe, reference_s, slowest_cpu_s

WORKERS = os.cpu_count() or 1

#: Every n-th timed pool batch is also timed untraced as a pair (pooled
#: again, then in-process) for ``pool.overhead_ms``.
OVERHEAD_SAMPLE_EVERY = 4

#: Request ids of replayed pool chunks start here, above any op index.
REPLAY_BASE = 1_000_000


def vmhwm_kib(pid: int) -> int:
    """Peak resident set of ``pid`` in KiB (0 once it is gone)."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def wait_gone(pids, timeout_s: float = 30.0) -> None:
    """Block until every pid has exited (or is a zombie of ours)."""
    deadline = time.monotonic() + timeout_s
    for pid in pids:
        while time.monotonic() < deadline:
            try:
                with open(f"/proc/{pid}/stat", encoding="ascii") as stat:
                    if stat.read().rsplit(")", 1)[1].split()[0] == "Z":
                        break
            except OSError:
                break
            time.sleep(0.02)


def _fleet(args) -> int:
    from repro.errors import ReproError
    from repro.fleet.runner import FleetRunner
    from repro.fleet.spec import FleetSpec
    from repro.pool import get_shared_pool, shutdown_shared_pool
    from repro.fleet.population import run_wearer_chunk
    import repro.scenarios.spec as spec

    tracer = None
    if args.trace:
        tracer = Tracer()
        install(tracer)
    pooled = args.workload == "fleet_streaks_pool"
    warmup, fleets, gated = fleet_inputs(args.workload, args.seed,
                                         args.seconds)
    warmup = FleetSpec.from_dict(warmup)
    fleets = [FleetSpec.from_dict(fleet) for fleet in fleets]
    policies = [spec.PolicySpec.from_dict(p) for p in STREAKS_POLICIES]

    def study(runner, fleet):
        # Looked up per call, so the traced pass sees the wrapped encoder.
        if pooled:
            return spec.canonical_json_bytes(
                runner.compare(fleet, policies).to_dict())
        return spec.canonical_json_bytes(runner.run(fleet).to_dict())

    runner = FleetRunner(workers=WORKERS,
                         backend="process" if pooled else "vector")
    pool = get_shared_pool() if pooled else None
    if pool is not None:
        pool.warm()
    study(runner, warmup)

    batches: list[dict] = []
    dispatch = None
    if tracer is not None and pool is not None:
        # Keep each timed batch's arguments for the in-process replay.
        dispatch = type(pool).run_chunked

        def recorded(self, kind, context, items, *, chunks=None):
            results = dispatch(self, kind, context, items, chunks=chunks)
            batches.append({"kind": kind, "context": context,
                            "items": list(items), "chunks": chunks,
                            "results": results})
            return results
        type(pool).run_chunked = recorded

    print("ready", flush=True)
    if sys.stdin.readline().strip() != "go":
        shutdown_shared_pool()
        wait_gone(pool.known_pids if pool is not None else ())
        return 0

    latencies, digests, failures, outputs = [], [], [], {}
    probe = SpeedProbe(loop=slowest_cpu_s if pooled else reference_s)
    for index, fleet in enumerate(fleets):
        probe.before_op()
        op_started = time.perf_counter()
        try:
            if tracer is None:
                body = study(runner, fleet)
            else:
                body = tracer.operation("bench.op", index, study, runner,
                                        fleet)
        except ReproError as exc:
            body = None
            failures.append({"op": index, "error": str(exc)})
        latencies.append(time.perf_counter() - op_started)
        digests.append(None if body is None
                       else hashlib.sha256(body).hexdigest())
        if index in gated:
            outputs[index] = body
    probe.finish()

    pids = sorted(pool.known_pids) if pool is not None else []
    rss = {str(pid): vmhwm_kib(pid) for pid in [os.getpid(), *pids]}

    result = {"latencies_s": latencies, "reference": probe.record(),
              "digests": digests, "failures": failures,
              "op_days": [f.n_wearers * f.horizon_days
                          * (len(policies) if pooled else 1)
                          for f in fleets],
              "rss_kib": rss, "worker_pids": pids, "gate": []}

    if not args.trace:
        # Correctness gate, after timing: the scalar serial oracle must
        # reproduce the timed canonical bytes exactly.
        serial = FleetRunner(workers=1, backend="serial")
        for index in gated:
            try:
                same = study(serial, fleets[index]) == outputs[index]
            except ReproError as exc:
                same = False
                failures.append({"op": index, "error": str(exc)})
            result["gate"].append({"op": index, "match": same})
    else:
        tracer.enabled = False
        result["batches"] = _replay(batches, pool, dispatch,
                                    run_wearer_chunk, tracer)
        tracer.dump(args.spans)

    with open(args.out, "w", encoding="utf-8") as out:
        json.dump(result, out)
    shutdown_shared_pool()
    wait_gone(pids)
    print("done", flush=True)
    return 0


def _replay(batches, pool, dispatch, run_chunk, tracer) -> list[dict]:
    """Re-run every timed pool batch's chunks in this process.

    Every chunk runs traced, to split the chunk compute across the
    layers running inside the workers.  Every
    :data:`OVERHEAD_SAMPLE_EVERY`-th batch is also timed as a pair, back
    to back and untraced: dispatched through the pool once more, then
    its chunks run in-process, so ``pool.overhead_ms`` compares the
    pooled wall with the slowest chunk's compute in the same host
    phase.  Replayed results must equal the pooled ones.
    """
    report = []
    for number, batch in enumerate(batches):
        items = batch["items"]
        count = max(1, min(len(items), pool.workers,
                           batch["chunks"] or pool.workers))
        paired = number % OVERHEAD_SAMPLE_EVERY == 0
        pooled_s = None
        if paired:
            started = time.perf_counter()
            dispatch(pool, batch["kind"], batch["context"], items,
                     chunks=batch["chunks"])
            pooled_s = time.perf_counter() - started
        chunk_s, payload_bytes, same = [], 0, True
        for c in range(count):
            chunk = items[c::count]
            payload = {"kind": batch["kind"], "context": batch["context"],
                       "items": chunk}
            pooled = batch["results"][c::count]
            payload_bytes += len(pickle.dumps(payload))
            payload_bytes += len(pickle.dumps(pooled))
            if paired:
                started = time.perf_counter()
                run_chunk(batch["context"], chunk)
                chunk_s.append(time.perf_counter() - started)
            tracer.enabled = True
            replayed = tracer.operation("pool.replay_chunk",
                                        REPLAY_BASE + number, run_chunk,
                                        batch["context"], chunk)
            tracer.enabled = False
            same = same and replayed == pooled
        report.append({"chunks": count,
                       "pooled_s": pooled_s, "chunk_s": chunk_s,
                       "payload_bytes": payload_bytes, "match": same})
    return report


def _serve(args) -> int:
    from repro.serve.app import serve_forever

    # run.py stops the server with SIGINT; a shell that launched the run
    # in the background may have left SIGINT ignored for its children.
    signal.signal(signal.SIGINT, signal.default_int_handler)

    tracer = None
    if args.trace:
        tracer = Tracer()
        install(tracer)
    serve_forever(args.store, port=0, workers=WORKERS)
    if tracer is not None:
        tracer.dump(args.spans)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("mode", choices=("fleet", "serve"))
    parser.add_argument("--workload", default="serve_mixed")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=os.devnull)
    parser.add_argument("--spans", default=os.devnull)
    parser.add_argument("--store", default="")
    args = parser.parse_args(argv)
    return _fleet(args) if args.mode == "fleet" else _serve(args)


if __name__ == "__main__":
    sys.exit(main())
