"""Self-tests of the benchmark harness.

Run from the root of the repository::

    python -m pytest perfbench/tests -q

They check that every output check rejects a wrong fingerprint, digest
or verdict, and that the exact counts a later change may cite repeat
across two runs of one seed.  The counts are taken on reduced inputs of
the same workload code, so the tests take seconds, not minutes.
"""

from __future__ import annotations

import gc
import json
import os
import shutil
import signal
import subprocess
import sys
import time

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))
sys.path.insert(0, BENCH)

import checks  # noqa: E402
import host  # noqa: E402
import run as entry  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

GOOD_DIGEST = "a" * 64
BAD_DIGEST = "b" * 64


@pytest.fixture(autouse=True)
def isolated_env(monkeypatch):
    for name in entry.ISOLATED_ENV:
        monkeypatch.delenv(name, raising=False)


# -- output checks ------------------------------------------------------------


@pytest.mark.parametrize("app, prefix", sorted(checks.EXPECTED_FINGERPRINTS.items()))
def test_analysis_check_accepts_expected_fingerprint(app, prefix):
    assert checks.analysis_problems(app, True, prefix + "0" * 52) == []


@pytest.mark.parametrize(
    "app, preserving, fingerprint",
    [
        ("tournament", True, "0" * 64),
        ("tournament", True, checks.EXPECTED_FINGERPRINTS["ticket"] + "0" * 52),
        ("tournament", False, checks.EXPECTED_FINGERPRINTS["tournament"] + "0" * 52),
        ("unknown", True, checks.EXPECTED_FINGERPRINTS["tournament"] + "0" * 52),
    ],
)
def test_analysis_check_rejects_wrong_result(app, preserving, fingerprint):
    assert checks.analysis_problems(app, preserving, fingerprint)


def test_convergence_check_rejects_diverged_digests():
    assert checks.convergence_problems("x", {"a": GOOD_DIGEST, "b": GOOD_DIGEST}) == []
    assert checks.convergence_problems("x", {"a": GOOD_DIGEST, "b": BAD_DIGEST})
    assert checks.convergence_problems("x", {})


@pytest.mark.parametrize(
    "config, oracles, converged, ok",
    [
        ("IPA", [], True, True),
        ("Causal", ["invariant", "invariant", "session"], True, True),
        ("IPA", ["invariant"], True, False),
        ("IPA", ["session"], True, False),
        ("Causal", [], True, False),
        ("Causal", ["convergence", "session", "compensation-debt"], True, False),
        ("IPA", [], False, False),
    ],
)
def test_trial_check_verdicts(config, oracles, converged, ok):
    found = checks.trial_problems("t", config, oracles, converged)
    assert (found == []) is ok


@pytest.mark.parametrize(
    "recovered, missing, corrupt, quarantined, ok",
    [
        (GOOD_DIGEST, 0, 0, 0, True),
        (BAD_DIGEST, 0, 0, 0, False),
        (GOOD_DIGEST, 1, 0, 0, False),
        (GOOD_DIGEST, 0, 1, 0, False),
        (GOOD_DIGEST, 0, 0, 1, False),
    ],
)
def test_recovery_check_verdicts(recovered, missing, corrupt, quarantined, ok):
    found = checks.recovery_problems(GOOD_DIGEST, recovered, missing, corrupt, quarantined)
    assert (found == []) is ok


def test_durable_pass_fails_every_commit_on_wrong_source_digest(tmp_path):
    durable = workloads.Durable()
    stream, digest = durable.setup(seed=3, workdir=str(tmp_path))
    good = workloads.measure(durable, (stream, digest), str(tmp_path), passes=1)[0]
    assert good.problems == [] and good.failed == 0
    bad = workloads.measure(durable, (stream, BAD_DIGEST), str(tmp_path), passes=1)[0]
    assert bad.problems and bad.failed == bad.attempted == len(stream)


# -- exact counts repeat ----------------------------------------------------------


def _small_analyze():
    analyze = workloads.Analyze()
    analyze.factories = analyze.factories[1:2] + analyze.factories[3:]  # ticket, tpcw
    return analyze


def _small_simulate():
    simulate = workloads.Simulate()
    simulate.clients = 8
    simulate.duration_ms = 1_000.0
    return simulate


@pytest.mark.parametrize(
    "make, metric",
    [
        (_small_analyze, "solver.dpll.solves"),
        (_small_simulate, "sim.runner.ops_issued"),
        (_small_simulate, "sim.network.messages"),
        (workloads.Durable, "net.commitlog.bytes_per_record"),
    ],
)
def test_counts_repeat_across_runs_of_one_seed(tmp_path, make, metric):
    values = []
    for attempt in range(2):
        workdir = tmp_path / str(attempt)
        workdir.mkdir()
        result = workloads.run(make(), 5, 0.001, True, str(workdir))
        assert result["correct"], result["problems"]
        values.append(result["metrics"][metric]["value"])
    assert values[0] == values[1]
    assert values[0] > 0


def test_traced_run_reports_every_per_layer_metric(tmp_path):
    result = workloads.run(_small_simulate(), 5, 0.001, True, str(tmp_path))
    assert [name for name in result["metrics"]] == [
        name for name, _unit in workloads.layers.PER_LAYER
    ]
    assert result["metrics"]["layers.coverage"]["value"] >= 0.9


# -- the benchmark definition --------------------------------------------------


def test_benchmark_json_names_every_workload_and_metric():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as handle:
        definition = json.load(handle)
    assert [w["name"] for w in definition["workloads"]] == list(workloads.WORKLOADS)
    assert list(workloads.WORKLOADS) == list(entry.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"]) for m in definition["per_layer"]] == list(
        workloads.layers.PER_LAYER
    )


def test_run_without_program_sources_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "analyze", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_speed_samples_run_with_the_collector_off(monkeypatch):
    collector_on = []
    kernel = host._kernel

    def watched_kernel():
        collector_on.append(gc.isenabled())
        return kernel()

    monkeypatch.setattr(host, "_kernel", watched_kernel)
    sampler = host.SpeedSampler()
    sampler.start()
    time.sleep(0.2)
    sampler.stop()
    assert len(collector_on) > 2 and not any(collector_on)
    assert gc.isenabled()


def test_trace_function_fails_on_an_unbound_function():
    def stray():
        pass

    with pytest.raises(LookupError):
        Tracer().trace_function(stray, "stray")


def test_speed_sampler_samples_inside_a_block_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    sampler = host.SpeedSampler()
    sampler.start()
    time.sleep(0.2)
    _stopped, speed, stolen = sampler.stop()
    assert speed > 0 and stolen > 0
    assert signal.getsignal(signal.SIGALRM) is before
