"""The benchmark's workloads and the loop that measures them.

Every workload is a ``setup`` that builds its inputs from the seed and a
``run_pass`` that runs one fixed unit of work, times only the program's
calls (inside a :class:`Stopwatch`) and checks the outputs.  A run
repeats passes for the requested seconds and reports the median pass
rate, so one slow pass does not move the result.

Engine, shard count and spec compilation are passed to the program
explicitly; the environment variables that would otherwise choose them
are ignored (``run.py`` removes them before the program is imported).
"""

from __future__ import annotations

import dataclasses
import gc
import os
import resource
import shutil
import statistics
import struct
import tempfile
import time
from collections import Counter

from repro.analysis import ipa
from repro.apps import tournament_spec, ticket_spec, twitter_spec, tpcw_spec
from repro.apps.common import Variant
from repro.apps.tournament import tournament_registry
from repro.bench.configs import CONFIGS, build_tournament
from repro.check import explorer, harness
from repro.check.apps import ADAPTERS
from repro.compile.cache import SpecCache, default_cache, set_compilation
from repro.net import wire
from repro.net.commitlog import ShardedCommitLog
from repro.sim import runner
from repro.store import scrub
from repro.store.cluster import replica_state_digest
from repro.store.replica import Replica

import checks
import host
import layers
from spans import Tracer

clock = time.perf_counter

_CONFIG = {config.name: config for config in CONFIGS}

#: Storage every simulated cluster uses: the library default, pinned.
SIM_ENGINE, SIM_SHARDS = "memory", 1


class Stopwatch:
    """Sums the time of the ``with`` blocks it times.

    ``wall_s`` is wall time; ``ref_s`` is the same time on the reference
    host (see :mod:`host`).  With a tracer it also sums the tracer's
    figures (span self times, calls, counts) gathered inside the blocks,
    so per-layer metrics cover exactly the measured work and not set-up
    or output checks.
    """

    def __init__(self, tracer: Tracer | None = None) -> None:
        self.tracer = tracer
        self.wall_s = 0.0
        self.ref_s = 0.0
        self.traced: Counter = Counter()
        self._sampler = host.SpeedSampler(inside=tracer is None)

    def __enter__(self) -> "Stopwatch":
        if self.tracer is not None:
            self._before = self.tracer.figures()
        self._sampler.start()
        self._started = clock()
        return self

    def __exit__(self, *exc) -> None:
        stopped, speed, stolen = self._sampler.stop()
        elapsed = stopped - self._started - stolen
        if self.tracer is not None:
            before = self._before
            for name, value in self.tracer.figures().items():
                self.traced[name] += value - before.get(name, 0)
        self.wall_s += elapsed
        self.ref_s += elapsed * speed


@dataclasses.dataclass
class Pass:
    """One unit of work: completed operations and what went wrong."""

    ops: int
    attempted: int
    failed: int
    problems: list[str]
    counts: Counter
    wall_s: float = 0.0
    ref_s: float = 0.0
    traced: Counter = dataclasses.field(default_factory=Counter)


# -- analyze ------------------------------------------------------------------


class Analyze:
    """The IPA analysis of the four applications, library defaults.

    Each ``run_ipa`` call gets a fresh in-memory solver cache and no disk
    tier, as a programmer running the analysis once would.  The seed is
    not used: the analysis has no random input.
    """

    name = "analyze"
    factories = (tournament_spec, ticket_spec, twitter_spec, tpcw_spec)

    def setup(self, seed: int, workdir: str):
        return [factory() for factory in self.factories]

    def run_pass(self, specs, watch: Stopwatch, workdir: str) -> Pass:
        counts: Counter = Counter()
        problems: list[str] = []
        failed = 0
        for spec in specs:
            with watch:
                result = ipa.run_ipa(spec)
            found = checks.analysis_problems(
                spec.name, result.is_invariant_preserving, result.fingerprint()
            )
            failed += bool(found)
            problems += found
            stats = result.stats
            counts["solver.propagations"] += stats.solver.propagations
            counts["analysis.cache.hits"] += stats.cache_hits
            counts["analysis.cache.misses"] += stats.cache_misses
            counts["analysis.scan_queries"] += stats.scan_queries
            counts["analysis.repair_queries"] += stats.repair_queries
            counts["analysis.conflicts.found"] += len(result.applied) + len(
                result.flagged
            )
        return Pass(len(specs), len(specs), failed, problems, counts)


# -- simulate -----------------------------------------------------------------


class Simulate:
    """Closed-loop tournament simulation, Causal then IPA (Figures 4/5).

    3 regions x 128 clients per region, the section 5.2.2 mix (65%
    reads), 100 ms think time, no faults, ``jitter=0``, ``batch_ms=25``;
    1 s warm-up plus 8 s measured, simulated time.
    """

    name = "simulate"
    variants = ("Causal", "IPA")
    clients = 128
    duration_ms = 8_000.0
    warmup_ms = 1_000.0
    think_ms = 100.0

    def build(self, variant: str, seed: int, **options):
        return build_tournament(
            _CONFIG[variant],
            seed=seed,
            n_regions=3,
            jitter=0.0,
            batch_ms=25.0,
            engine=SIM_ENGINE,
            shards=SIM_SHARDS,
            **options,
        )

    def drive(self, sim, workload, cluster):
        return runner.run_closed_loop(
            sim,
            workload.issue,
            {region: self.clients for region in cluster.regions},
            duration_ms=self.duration_ms,
            warmup_ms=self.warmup_ms,
            think_ms=self.think_ms,
        )

    def _build_all(self, seed: int):
        return [self.build(variant, seed) for variant in self.variants]

    def setup(self, seed: int, workdir: str):
        return {"seed": seed, "built": self._build_all(seed)}

    def run_pass(self, state, watch: Stopwatch, workdir: str) -> Pass:
        built = state.pop("built", None) or self._build_all(state["seed"])
        counts: Counter = Counter()
        problems: list[str] = []
        ops = timeouts = 0
        for variant, (sim, app, workload) in zip(self.variants, built):
            cluster = app.cluster
            with watch:
                result = self.drive(sim, workload, cluster)
                converged = cluster.run_until_converged()
            if converged is None:
                problems.append(f"simulate {variant}: did not converge")
            problems += checks.convergence_problems(
                f"simulate {variant}", cluster.state_digest()
            )
            ops += result.metrics.total_operations()
            timeouts += result.metrics.counter("client.timeouts")
            _add_cluster_counts(counts, cluster.fault_stats())
        attempted = ops + timeouts
        return Pass(ops, attempted, attempted if problems else timeouts, problems, counts)


def _add_cluster_counts(counts: Counter, stats: dict) -> None:
    for key in (
        "net.messages_sent",
        "store.replication.records",
        "store.replication.messages",
        "store.antientropy.records_pushed",
    ):
        counts[key] += stats.get(key) or 0


# -- check --------------------------------------------------------------------


class Check:
    """Checker trials over the tournament app, Causal and IPA.

    One batch is trial indices 0-4 of the explorer's sweep for the seed
    (clean, lossy, partition, partition plus crash, heavy loss), each
    run under both configurations: 300 operations over 150 players x 40
    tournaments, where the compiled invariant oracle is a large share.
    """

    name = "check"
    app = "tournament"
    configs = ("Causal", "IPA")
    indices = range(5)
    n_ops = 300
    params = {"n_players": 150, "n_tournaments": 40}

    def setup(self, seed: int, workdir: str):
        specs = [
            dataclasses.replace(
                explorer.build_trial(
                    self.app, config, seed, index, n_ops=self.n_ops, params=self.params
                ),
                engine=SIM_ENGINE,
                shards=SIM_SHARDS,
            )
            for index in self.indices
            for config in self.configs
        ]
        adapter = ADAPTERS[self.app]
        spec = adapter.spec({**adapter.defaults(), **self.params})
        # A fresh cache compiles the spec (a miss) on every set-up; the
        # shared one is what the trials' oracles read.
        SpecCache().get_or_build(spec)
        default_cache().get_or_build(spec)
        return specs

    def run_pass(self, specs, watch: Stopwatch, workdir: str) -> Pass:
        counts: Counter = Counter()
        problems: list[str] = []
        failed = 0
        for spec in specs:
            with watch:
                result = harness.run_trial(spec)
            found = checks.trial_problems(
                f"check seed={spec.seed} {spec.config}",
                spec.config,
                [violation.oracle for violation in result.violations],
                result.converged_ms is not None,
            )
            failed += bool(found)
            problems += found
            _add_cluster_counts(counts, result.fault_stats)
        return Pass(len(specs), len(specs), failed, problems, counts)


# -- durable and recover ------------------------------------------------------

#: The live replica's durable configuration: 2 keyspace shards (the
#: commit-log replay threads stay within 2 cores), file engine, commit
#: log flushed per append without fsync (the server default).
SINK, SHARDS = "sink", 2

#: Commits between object-engine syncs.  A server syncs its engine on
#: its ``--scrub-ms`` timer; 150 ms is the one cadence the repository
#: runs (the CI chaos soak).  The recorded deployment commits 247-269
#: records per simulated second (seeds 1-5, median 260), so a 150 ms
#: timer fires about every 39 commits.
SYNC_EVERY = 39
_PREFIX = struct.Struct(">I")


def record_stream(seed: int):
    """One converged Causal replica's commit stream and state digest.

    The run is the Causal half of ``simulate`` (:class:`Simulate`'s
    regions, clients, think time, warm-up and duration) with the
    causal-stability service off, so no log compaction runs and the
    first region's log holds every commit of the run in a causal order.
    """
    simulate = Simulate()
    sim, app, workload = simulate.build("Causal", seed, stability_interval_ms=None)
    cluster = app.cluster
    simulate.drive(sim, workload, cluster)
    cluster.run_until_converged()
    source = cluster.replica(cluster.regions[0])
    return list(source.log), replica_state_digest(source)


def _sink_replica(data_dir: str) -> Replica:
    return Replica(
        SINK,
        tournament_registry(Variant.CAUSAL),
        engine="file",
        shards=SHARDS,
        data_dir=os.path.join(data_dir, "store"),
    )


def write_stream(stream, data_dir: str, watch: Stopwatch) -> tuple[str, Counter]:
    """Feed ``stream`` through a live replica's durable path.

    Per record: a peer ``records`` frame is encoded and decoded, the
    record is appended to the sharded commit log and applied; the
    object engine syncs every ``SYNC_EVERY`` commits and at the end, as
    a stopping server does.
    Returns the live replica's digest and the bytes each layer wrote.
    """
    log = ShardedCommitLog(data_dir, SINK, shards=SHARDS)
    log.open()
    replica = _sink_replica(data_dir)
    wire_bytes = bad_frames = 0
    try:
        with watch:
            for index, record in enumerate(stream, 1):
                frame = wire.dump_frame(
                    {"type": "records", "source": record.origin, "records": (record,)}
                )
                wire_bytes += len(frame)
                if _PREFIX.unpack_from(frame)[0] != len(frame) - _PREFIX.size:
                    bad_frames += 1
                for received in wire.load_frame(frame[_PREFIX.size :])["records"]:
                    log.append(received)
                    replica.apply_remote(received)
                if index % SYNC_EVERY == 0:
                    replica.storage.sync()
            replica.storage.sync()
        digest = replica_state_digest(replica)
    finally:
        log.close()
        replica.storage.close()
    counts = Counter(
        {
            "net.wire.bytes": wire_bytes,
            "net.wire.bad_frames": bad_frames,
            "net.commitlog.bytes": sum(os.path.getsize(p) for p in log.paths),
            "store.engine.bytes": _tree_bytes(os.path.join(data_dir, "store")),
        }
    )
    return digest, counts


def recover(data_dir: str, watch: Stopwatch) -> tuple[Replica, scrub.ScrubReport, int]:
    """Rebuild the replica from its flushed files, as a restarted server does.

    The caller closes the returned replica's storage.
    """
    with watch:
        records = ShardedCommitLog(data_dir, SINK, shards=SHARDS).replay(salvage=True)
        replica = _sink_replica(data_dir)
        if records:
            replica.adopt_log(records)
        report = scrub.scrub_replica(replica)
    return replica, report, len(records)


def _tree_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(root, name))
        for root, _dirs, names in os.walk(path)
        for name in names
    )


def _recovery_problems(stream, source_digest: str, replica, report) -> tuple[int, list[str]]:
    missing = sum(
        1 for record in stream if record.dot.counter > replica.vv.get(record.origin)
    )
    return missing, checks.recovery_problems(
        source_digest,
        replica_state_digest(replica),
        missing,
        len(report.corrupt),
        len(report.quarantined),
    )


class Durable:
    """The live replica's write path, then a restart from its files.

    Set-up records the commit stream.  A pass writes it through a fresh
    replica (timed: ``ops`` are commits) and then recovers a second
    replica from the flushed files, which must equal the source.
    """

    name = "durable"

    def setup(self, seed: int, workdir: str):
        return record_stream(seed)

    def run_pass(self, state, watch: Stopwatch, workdir: str) -> Pass:
        stream, source_digest = state
        live_digest, counts = write_stream(stream, workdir, watch)
        problems = []
        if live_digest != source_digest:
            problems.append(f"durable: live digest {live_digest[:12]} != source")
        if counts["net.wire.bad_frames"]:
            problems.append(f"durable: {counts['net.wire.bad_frames']} bad frame length(s)")
        replica, report, _ = recover(workdir, Stopwatch())
        try:
            missing, found = _recovery_problems(stream, source_digest, replica, report)
        finally:
            replica.storage.close()
        problems += found
        counts["durable.records"] += len(stream)
        counts["durable.passes"] += 1
        n = len(stream)
        return Pass(n, n, n if problems else missing, problems, counts)


class Recover:
    """Restart of the live replica from flushed files, alone.

    Set-up records ``durable``'s commit stream and writes it through the
    durable path once; every pass rebuilds a fresh replica from those
    files (``ops`` are records recovered) and checks it against the
    source.
    """

    name = "recover"

    def setup(self, seed: int, workdir: str):
        stream, source_digest = record_stream(seed)
        write_stream(stream, workdir, Stopwatch())
        return workdir, stream, source_digest

    def run_pass(self, state, watch: Stopwatch, workdir: str) -> Pass:
        files, stream, source_digest = state
        replica, report, recovered = recover(files, watch)
        try:
            missing, problems = _recovery_problems(stream, source_digest, replica, report)
        finally:
            replica.storage.close()
        n = len(stream)
        return Pass(recovered, n, n if problems else missing, problems, Counter())


WORKLOADS = {w.name: w for w in (Analyze(), Simulate(), Check(), Durable(), Recover())}

#: Set-ups per run: at least ``SETUP_REPS`` and for at least
#: ``SETUP_MIN_S`` seconds, at most ``SETUP_MAX_REPS``; ``setup_s`` is
#: their median, so millisecond set-ups are timed as often as slow ones.
SETUP_REPS, SETUP_MIN_S, SETUP_MAX_REPS = 5, 1.0, 100


# -- the measuring loop -------------------------------------------------------


def _fresh_dir(parent: str) -> str:
    return tempfile.mkdtemp(dir=parent)


def timed_setup(workload, seed: int, workdir: str, repeat: bool = True):
    """Median set-up time on the reference host, and the last set-up's state.

    Without ``repeat`` the workload is set up once.
    """
    times, walls, state = [], [], None
    while True:
        path = _fresh_dir(workdir)
        watch = Stopwatch()
        with watch:
            state = workload.setup(seed, path)
        times.append(watch.ref_s)
        walls.append(watch.wall_s)
        if not repeat or len(times) >= SETUP_MAX_REPS:
            break
        if len(times) >= SETUP_REPS and sum(walls) >= SETUP_MIN_S:
            break
    return statistics.median(times), state


def measure(workload, state, workdir: str, seconds: float = 0.0, passes: int = 0,
            tracer: Tracer | None = None) -> list[Pass]:
    """Run passes for ``seconds`` (at least one), or exactly ``passes``."""
    done: list[Pass] = []
    started = clock()
    while True:
        path = _fresh_dir(workdir)
        watch = Stopwatch(tracer)
        # Every pass starts from a collected heap, so a collection left
        # over from earlier work does not land in its timing.
        gc.collect()
        try:
            result = workload.run_pass(state, watch, path)
        finally:
            shutil.rmtree(path, ignore_errors=True)
        result.wall_s, result.ref_s = watch.wall_s, watch.ref_s
        result.traced = watch.traced
        done.append(result)
        if passes:
            if len(done) >= passes:
                return done
        else:
            elapsed = clock() - started
            if elapsed + elapsed / len(done) > seconds:
                return done


def _summary(passes: list[Pass]) -> dict:
    problems = [problem for p in passes for problem in p.problems]
    attempted = sum(p.attempted for p in passes)
    failed = attempted if problems else sum(p.failed for p in passes)
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
    }


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run(workload, seed: int, seconds: float, trace: bool, workdir: str) -> dict:
    """One benchmark run of ``workload``: the result object to print."""
    set_compilation(True)
    if not trace:
        setup_s, state = timed_setup(workload, seed, workdir)
        passes = measure(workload, state, workdir, seconds=seconds)
        result = _summary(passes)
        result["metrics"] = {
            "ops_per_s": _metric(
                statistics.median(p.ops / p.ref_s for p in passes), "1/s"
            ),
            "setup_s": _metric(setup_s, "s"),
            "peak_rss_mb": _metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
            ),
        }
        return result

    # Traced run: half the time untraced, then as many passes traced, on
    # a set-up made after the wrappers are in (hot paths bind methods at
    # construction), so the two halves do the same work.
    _, state = timed_setup(workload, seed, workdir, repeat=False)
    base = measure(workload, state, workdir, seconds=seconds / 2)
    tracer = Tracer()
    layers.install(tracer)
    try:
        _, state = timed_setup(workload, seed, workdir, repeat=False)
        setup = tracer.figures()
        tracer.clear_durations()
        traced = measure(workload, state, workdir, passes=len(base), tracer=tracer)
    finally:
        tracer.uninstall()
    counts: Counter = Counter()
    figures: Counter = Counter()
    for p in traced:
        counts.update(p.counts)
        figures.update(p.traced)
    overhead_pct = 100.0 * (
        statistics.median(p.ref_s for p in traced)
        / statistics.median(p.ref_s for p in base)
        - 1.0
    )
    result = _summary(base + traced)
    result["metrics"] = layers.layer_metrics(
        tracer,
        figures,
        setup,
        counts,
        wall_s=sum(p.wall_s for p in traced),
        ref_s=sum(p.ref_s for p in traced),
        overhead_pct=overhead_pct,
    )
    return result
