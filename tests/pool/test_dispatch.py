"""repro.pool.execute: the one dispatcher behind every runner.

Scenario sweeps, fleet studies and chaos campaigns all reach the pool
through :func:`repro.pool.execute`, so inline routing, the crash hook
and the worker-death message are pinned here once, for every kind.
"""

import pytest

from repro.chaos import ChaosRunner, ChaosSpec
from repro.errors import SpecError
from repro.fleet import FleetRunner, FleetSpec
from repro.pool import execute, name_span
from repro.scenarios import ScenarioRunner, get_scenario
from repro.scenarios.spec import PolicySpec

FLEET = FleetSpec(name="crashy", base_scenario="night_shift", n_wearers=2,
                  horizon_days=1, seed=3)
CAMPAIGN = ChaosSpec(name="crashy", n_cases=2, horizon_days=1, seed=1)
POLICY = (PolicySpec("static_duty_cycle"),)


def _run(kind, backend, workers):
    """One small batch of ``kind``; its first item is the crash target."""
    if kind == "scenarios":
        specs = [get_scenario("dead_battery_cold_start"),
                 get_scenario("night_shift")]
        return ScenarioRunner(workers=workers, backend=backend).run_batch(
            specs)
    if kind == "fleet":
        return FleetRunner(workers=workers, backend=backend).run(FLEET)
    return ChaosRunner(workers=workers, backend=backend).run(
        CAMPAIGN, policies=POLICY)


#: kind -> (REPRO_WORKER_CRASH target, what the error must name).
CRASHES = {
    "scenarios": ("dead_battery_cold_start",
                  "scenarios 'dead_battery_cold_start'"),
    "fleet": ("crashy::wearer_0000",
              "fleet 'crashy' wearers 'crashy::wearer_0000'"),
    "chaos": ("crashy::case_0000",
              "campaign 'crashy' runs 'crashy::case_0000' x "
              "static_duty_cycle"),
}


@pytest.mark.parametrize("kind", sorted(CRASHES))
def test_dead_worker_names_the_chunk_items(kind, monkeypatch):
    """A worker killed mid-chunk surfaces as one SpecError naming the
    dead chunk's items, whatever kind of batch it was running."""
    target, named = CRASHES[kind]
    monkeypatch.setenv("REPRO_WORKER_CRASH", target)
    with pytest.raises(SpecError) as excinfo:
        _run(kind, "process", 2)
    message = str(excinfo.value)
    assert "worker died while running chunk 1/2" in message
    assert named in message


@pytest.mark.parametrize("kind", sorted(CRASHES))
@pytest.mark.parametrize("backend, workers",
                         [("serial", 2), ("process", 1)])
def test_crash_hook_never_reaches_inline_runs(kind, backend, workers,
                                              monkeypatch):
    """The crash hook travels only in pool chunk contexts; an inline
    run with the variable set must complete instead of killing the
    calling process."""
    monkeypatch.setenv("REPRO_WORKER_CRASH", CRASHES[kind][0])
    result = _run(kind, backend, workers)
    assert result.backend == "serial"


class TestExecute:
    @staticmethod
    def describe(indices):
        return name_span("items", [str(i) for i in indices])

    def test_serial_runs_the_handler_inline(self):
        assert execute("ping", None, [1, 2, 3], backend="serial",
                       workers=4, describe=self.describe) \
            == ([None, None, None], "serial")

    def test_trivial_process_batches_run_inline(self):
        for items, workers in (([1], 4), ([1, 2], 1), ([], 4)):
            results, used = execute("ping", None, items, backend="process",
                                    workers=workers, describe=self.describe)
            assert used == "serial"
            assert results == [None] * len(items)

    def test_process_batch_uses_the_pool(self):
        results, used = execute("ping", None, [1, 2], backend="process",
                                workers=2, describe=self.describe)
        assert (results, used) == ([None, None], "process")

    def test_validation(self):
        with pytest.raises(SpecError, match="unknown backend 'thread'"):
            execute("ping", None, [], backend="thread", workers=1,
                    describe=self.describe)
        with pytest.raises(SpecError, match="at least 1"):
            execute("ping", None, [], backend="serial", workers=0,
                    describe=self.describe)
        with pytest.raises(SpecError, match="integer"):
            execute("ping", None, [], backend="serial", workers=2.0,
                    describe=self.describe)

    def test_name_span_elides_long_spans(self):
        assert name_span("runs", ["a", "b", "c"]) == "runs a, b, c"
        assert name_span("runs", ["a", "b", "c", "d"]) \
            == "runs a .. d (4 runs)"
