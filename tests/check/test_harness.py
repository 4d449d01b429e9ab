"""Trial harness and explorer behaviour (repro.check.harness/explorer).

The core acceptance property lives here: within the default smoke
budget the explorer finds at least one invariant violation per
application under plain Causal, and none under the IPA repairs or
Strong consistency.
"""

from __future__ import annotations

import pytest

from repro.check import (
    ADAPTERS,
    build_trial,
    explore,
    load_repro,
    run_trial,
    write_repro,
)
from repro.check.harness import TrialSpec
from repro.errors import CheckError

APPS = sorted(ADAPTERS)
SMOKE_SEED = 11
SMOKE_TRIALS = 5


@pytest.mark.parametrize("app", APPS)
def test_causal_finds_an_invariant_violation(app: str) -> None:
    result = explore(app, "Causal", trials=SMOKE_TRIALS, seed=SMOKE_SEED)
    assert result.violating >= 1, result.summary()
    invariant_findings = [
        v
        for trial in result.failures
        for v in trial.violations
        if v.oracle == "invariant"
    ]
    assert invariant_findings, "violations found but none from invariants"


@pytest.mark.parametrize("app", APPS)
@pytest.mark.parametrize("config", ["IPA", "Strong"])
def test_repaired_configs_are_clean(app: str, config: str) -> None:
    result = explore(app, config, trials=SMOKE_TRIALS, seed=SMOKE_SEED)
    assert result.violating == 0, [
        v.describe() for t in result.failures for v in t.violations
    ]


@pytest.mark.parametrize("seed", [20, 28, 48])
def test_ipa_tournament_begin_concurrent_with_finish_is_clean(
    seed: int,
) -> None:
    """A ``begin_tourn`` concurrent with ``finish_tourn`` once erased the
    finish (``finished`` was rem-wins), leaving matches of a tournament
    neither active nor finished; these partition+crash trials hit it."""
    spec = build_trial(
        "tournament", "IPA", seed, 3, n_ops=300,
        params={"n_players": 150, "n_tournaments": 40},
    )
    result = run_trial(spec)
    assert not result.violations, [v.describe() for v in result.violations]


def test_trials_converge_and_complete_ops() -> None:
    for index in range(SMOKE_TRIALS):
        spec = build_trial("tournament", "Causal", SMOKE_SEED, index)
        result = run_trial(spec)
        assert result.converged_ms is not None
        assert result.issued == len(spec.ops)
        completed = sum(result.completions.values())
        assert completed + result.refused == result.issued


def test_spec_round_trips_through_dict() -> None:
    spec = build_trial("ticket", "Causal", SMOKE_SEED, 3)
    assert TrialSpec.from_dict(spec.to_dict()) == spec


def test_spec_schema_is_checked() -> None:
    spec = build_trial("ticket", "Causal", SMOKE_SEED, 0)
    payload = spec.to_dict()
    payload["schema"] = 99
    with pytest.raises(CheckError):
        TrialSpec.from_dict(payload)


def test_unknown_app_and_config_are_rejected() -> None:
    with pytest.raises(CheckError):
        build_trial("nonesuch", "Causal", 1, 0)
    with pytest.raises(CheckError):
        explore("tournament", "Eventual", trials=1)
    with pytest.raises(CheckError):
        run_trial(
            TrialSpec(app="tournament", config="Causal", seed=1,
                      regions=("us-east",))
        )


def test_repro_file_replays_to_the_same_verdict(tmp_path) -> None:
    spec = build_trial("tournament", "Causal", SMOKE_SEED, 0)
    result = run_trial(spec)
    assert result.violations
    path = tmp_path / "repro.json"
    write_repro(str(path), spec, result, meta={"note": "test"})
    loaded_spec, expected = load_repro(str(path))
    assert loaded_spec == spec
    replayed = run_trial(loaded_spec)
    assert replayed.verdict_keys == expected
    assert replayed.fingerprint == result.fingerprint


def test_load_repro_rejects_non_repro_json(tmp_path) -> None:
    path = tmp_path / "not-a-repro.json"
    path.write_text("{}")
    with pytest.raises(CheckError):
        load_repro(str(path))
