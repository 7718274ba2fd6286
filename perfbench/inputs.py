"""Seeded inputs for the benchmark workloads (stdlib only).

Every input is a pure function of the run's ``--seed``, so a seed
replays the same fleets and the same request sequence.  The *shape*
of the work (fleet size, request-type counts, scenario lengths) is
fixed per workload and independent of the seed; only the random
draws inside that shape vary, which keeps the cost of one run the
same across seeds.
"""

from __future__ import annotations

import random

#: Work per measured second, calibrated on a 2-CPU x86 host so that
#: ``--seconds S`` makes one run measure about ``S`` seconds of
#: operation time at the nominal core speed (:mod:`speed`).  The work
#: is fixed once the seed and ``--seconds`` are fixed: a faster program
#: finishes the same work sooner instead of doing more of it.
STUDIES_PER_SECOND = {
    "fleet_jitter_vector": 3.15,
    "fleet_streaks_pool": 4.6,
}
REQUESTS_PER_SECOND = 105

#: Fleet shapes: (wearers, days).  The pool workload's fleets are
#: smaller so that a run holds enough studies for a latency tail.
FLEET_SHAPE = {
    "fleet_jitter_vector": (16, 7),
    "fleet_streaks_pool": (8, 7),
}
BASE_SCENARIO = "sunny_office_worker"

#: The policies ``fleet_streaks_pool`` compares: instantaneous versus
#: forecast, the question the ``cloudy_streaks`` sampler exists for.
STREAKS_POLICIES = ({"name": "energy_aware", "params": {}},
                    {"name": "ewma_forecast", "params": {}})

#: Studies re-run on the scalar ``serial`` backend after timing stops.
GATE_STUDIES = 2

#: One wearer day for inline ``/simulate`` requests:
#: (hours, lux, ambient_c, skin_c, wind_ms, label).
DAY_TEMPLATE = (
    (7.0, 0.0, 20.0, 32.0, 0.0, "darkness"),
    (0.5, 30000.0, 15.0, 30.0, 5.0, "outdoor commute"),
    (9.5, 700.0, 23.0, 31.7, 0.0, "indoor office"),
    (0.5, 30000.0, 15.0, 30.0, 5.0, "outdoor commute"),
    (6.5, 0.0, 20.0, 32.0, 0.0, "darkness"),
)


def study_count(workload: str, seconds: float) -> int:
    """Timed fleet studies in one run of ``workload``."""
    return max(GATE_STUDIES + 1, round(seconds * STUDIES_PER_SECOND[workload]))


def _fleet(name: str, seed: int, sampler: str, wearers: int,
           days: int) -> dict:
    return {"name": name, "base_scenario": BASE_SCENARIO,
            "n_wearers": wearers, "horizon_days": days,
            "seed": seed, "sampler": {"name": sampler, "params": {}}}


def fleet_inputs(workload: str, seed: int, seconds: float
                 ) -> tuple[dict, list[dict], list[int]]:
    """``(warm-up fleet, timed fleets, gated study indices)``.

    Every timed fleet has its own master seed, so the vector workload's
    condition pairs are all distinct and the harvest memo cannot carry
    pricing from one study to the next.  The warm-up fleet's seed is
    outside the timed range.
    """
    sampler = ("daily_jitter" if workload == "fleet_jitter_vector"
               else "cloudy_streaks")
    rng = random.Random(f"{workload}:{seed}")
    count = study_count(workload, seconds)
    seeds = rng.sample(range(1, 2**30), count)
    shape = FLEET_SHAPE[workload]
    fleets = [_fleet(f"study_{i:03d}", s, sampler, *shape)
              for i, s in enumerate(seeds)]
    warmup = _fleet("warmup", 2**30 + seed % 2**20, sampler, *shape)
    gated = [0] + sorted(rng.sample(range(1, count), GATE_STUDIES - 1))
    return warmup, fleets, gated


def _inline_scenario(name: str, days: int, rng: random.Random) -> dict:
    segments = []
    for _ in range(days):
        for hours, lux, ambient, skin, wind, label in DAY_TEMPLATE:
            segments.append({
                "duration_s": hours * 3600.0 * rng.lognormvariate(0.0, 0.1),
                "lux": lux * rng.lognormvariate(0.0, 0.35),
                "ambient_c": ambient + rng.gauss(0.0, 2.0),
                "skin_c": skin + rng.gauss(0.0, 0.3),
                "wind_ms": wind * rng.lognormvariate(0.0, 0.5),
                "label": label,
            })
    return {"name": name, "timeline": {"segments": segments},
            "step_s": 300.0, "duration_s": days * 86400.0}


def warmup_request() -> tuple[str, dict]:
    """The set-up request: its digest is never in a timed sequence."""
    return "/simulate", {"scenario": _inline_scenario(
        "warmup", 1, random.Random("serve-warmup"))}


def serve_sequence(seed: int, seconds: float
                   ) -> list[tuple[str, dict, int, int]]:
    """The ``serve_mixed`` request sequence.

    Returns ``(path, body, first, wearer_days)`` per request, where
    ``first`` is the position of the request's first occurrence (equal
    to its own position for a new request, a cache miss).  The sequence
    is built from blocks of three: one new request and two repeats of
    earlier ones, shuffled within the block after the first.  New
    requests rotate through a fixed cycle of shapes — ``/simulate`` of
    1 day, of 2 days, a 4-wearer x 2-day jittered ``/fleet/run``, then
    ``/simulate`` of 3 days — so every seed has the same mix.
    """
    rng = random.Random(f"serve_mixed:{seed}")
    blocks = max(2, round(seconds * REQUESTS_PER_SECOND / 3))
    shapes = (("sim", 1), ("sim", 2), ("fleet", 2), ("sim", 3))
    sequence: list[tuple[str, dict, int, int]] = []
    new_positions: list[int] = []
    for block in range(blocks):
        kinds = ["new", "repeat", "repeat"]
        if block:
            rng.shuffle(kinds)
        for kind in kinds:
            position = len(sequence)
            if kind == "repeat":
                first = rng.choice(new_positions)
                path, body, _, days = sequence[first]
                sequence.append((path, body, first, days))
                continue
            shape, days = shapes[len(new_positions) % len(shapes)]
            name = f"req_{position:04d}"
            if shape == "sim":
                body = {"scenario": _inline_scenario(name, days, rng)}
                sequence.append(("/simulate", body, position, days))
            else:
                spec = _fleet(name, rng.randrange(1, 2**30), "daily_jitter",
                              4, days)
                sequence.append(("/fleet/run", {"spec": spec}, position,
                                 4 * days))
            new_positions.append(position)
    return sequence
