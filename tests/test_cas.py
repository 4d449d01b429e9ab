"""The content-addressed disk tier both caches share (repro.cas).

The cache-specific rejection tests live beside each cache
(tests/analysis/test_parallel_cache.py, tests/compile/test_equivalence.py);
these cover what the shared entry format decides for both.
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis.cache import SolverCache
from repro.apps.tournament import tournament_spec
from repro.compile.cache import SpecCache, spec_cache_key

NOT_UTF8 = b"\xff\xfe not utf-8"


def _entry(directory: Path, key: str) -> Path:
    return directory / key[:2] / f"{key}.json"


def test_solver_cache_rejects_undecodable_bytes(tmp_path):
    key = "ab" * 32
    SolverCache(tmp_path).put(key, True)
    _entry(tmp_path, key).write_bytes(NOT_UTF8)

    fresh = SolverCache(tmp_path)
    assert fresh.get(key) is None
    assert fresh.stats.rejected == 1
    assert not _entry(tmp_path, key).exists()


def test_spec_cache_rebuilds_over_undecodable_bytes(tmp_path):
    spec = tournament_spec(capacity=2)
    built = SpecCache(tmp_path).get_or_build(spec)
    path = _entry(tmp_path, spec_cache_key(spec))
    path.write_bytes(NOT_UTF8)

    rebuilt = SpecCache(tmp_path).get_or_build(spec)
    assert rebuilt is not None
    assert [i.source for i in rebuilt.invariants] == [
        i.source for i in built.invariants
    ]
    assert path.read_bytes() != NOT_UTF8  # replaced by the rebuild
