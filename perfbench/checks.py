"""Output checks of the benchmark workloads.

Each function returns the list of problems it found (empty when the
output is right), so a workload can report every wrong output of a pass
at once.  They hold for every seed: the analysis is deterministic, and
the other checks compare the program against itself or against the
invariant-safety claim of the paper.
"""

from __future__ import annotations

#: ``IpaResult.fingerprint()`` prefixes of the four applications.  The
#: fingerprint covers the repaired spec, every applied repair and
#: flagged conflict, the round count and the logical query count.
EXPECTED_FINGERPRINTS = {
    "tournament": "8965fd1d6c7b",
    "ticket": "1b40cc9e1879",
    "twitter": "783b3b37cd55",
    "tpcw": "d383140a8672",
}

#: ``Violation.oracle`` of the invariant oracle's findings.
INVARIANT_ORACLE = "invariant"


def analysis_problems(app: str, preserving: bool, fingerprint: str) -> list[str]:
    """The analysis of ``app`` must be repaired and reproduce its fingerprint."""
    problems = []
    if not preserving:
        problems.append(f"analyze {app}: result is not invariant-preserving")
    expected = EXPECTED_FINGERPRINTS.get(app)
    if expected is None or not fingerprint.startswith(expected):
        problems.append(
            f"analyze {app}: fingerprint {fingerprint[:12]} != {expected}"
        )
    return problems


def convergence_problems(label: str, digests: dict[str, str]) -> list[str]:
    """Every region of a quiesced cluster holds the same state digest."""
    if len(digests) >= 1 and len(set(digests.values())) == 1:
        return []
    return [f"{label}: regions did not converge ({len(set(digests.values()))} digests)"]


def trial_problems(
    label: str, config: str, oracles: list[str], converged: bool
) -> list[str]:
    """A repaired (IPA) trial never violates; an unmodified (Causal) one does.

    ``oracles`` names the oracle of each violation the trial reported.
    An IPA trial must have none, from any oracle.  The Causal trials run
    the conflicting operations of the original application concurrently,
    so each must show at least one violation of the invariant oracle; a
    Causal trial without one means the oracle stopped seeing conflicts,
    whatever the other oracles reported.
    """
    problems = []
    if not converged:
        problems.append(f"{label}: did not converge")
    if config == "IPA" and oracles:
        problems.append(f"{label}: IPA trial has {len(oracles)} violation(s)")
    elif config == "Causal" and INVARIANT_ORACLE not in oracles:
        problems.append(f"{label}: Causal trial has no invariant violation")
    return problems


def recovery_problems(
    source_digest: str,
    recovered_digest: str,
    missing: int,
    corrupt: int,
    quarantined: int,
) -> list[str]:
    """A recovered replica equals its source, from clean files."""
    problems = []
    if recovered_digest != source_digest:
        problems.append(
            f"recovery: digest {recovered_digest[:12]} != source {source_digest[:12]}"
        )
    if missing:
        problems.append(f"recovery: {missing} commit(s) missing")
    if corrupt or quarantined:
        problems.append(
            f"recovery: scrub found {corrupt} corrupt, {quarantined} quarantined key(s)"
        )
    return problems
