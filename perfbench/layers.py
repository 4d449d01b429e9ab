"""Where the traced run cuts the program into layers, and what it reports.

:func:`install` wraps the public entry points of each layer (a few
private event handlers where a layer has no public one, named below) in
spans of the :class:`~spans.Tracer`.  :func:`layer_metrics` turns the
closed spans, plus the program's own exact counters that the workloads
read from public outputs (``IpaResult.stats``, ``Cluster.fault_stats()``,
``TrialResult``), into the per-layer metrics of ``BENCHMARK.json``.

A layer's ``*_s`` metric is its self time in seconds: its spans minus
the child spans they contain.  The calls a workload times (``run_ipa``,
``run_closed_loop``, ``run_until_converged``, ``run_trial``) are not
spans: the glue they run between layers is claimed by no layer, so
``layers.coverage`` (layer self time over measured wall time) falls
when that glue grows, or when work they call directly stops passing
through a layer's wrapper.  Work of a nested layer that stops passing
through its wrapper moves instead to the self time of the layer that
calls it (work in simulator event callbacks to ``sim.events.loop``),
which coverage does not show.  A wrapper that finds nothing to bind
fails the run at :func:`install`.
"""

from __future__ import annotations

import weakref

from spans import Tracer, percentile

#: ``(metric name, unit)`` of every per-layer metric, in report order.
PER_LAYER = (
    # analysis (analyze workload)
    ("logic.grounding.ground_s", "s"),
    ("analysis.encoding.constraints_s", "s"),
    ("solver.cnf.assert_s", "s"),
    ("solver.cnf.assert_calls", "count"),
    ("solver.theory.encode_s", "s"),
    ("solver.dpll.solve_s", "s"),
    ("solver.dpll.solves", "count"),
    ("solver.dpll.propagations", "count"),
    ("solver.smt.query_s", "s"),
    ("solver.smt.queries", "count"),
    ("solver.smt.query_p99_ms", "ms"),
    ("analysis.cache.key_s", "s"),
    ("analysis.cache.hit_ratio", "ratio"),
    ("analysis.conflicts.scan_s", "s"),
    ("analysis.conflicts.conflict_yield", "ratio"),
    ("analysis.repair.repair_s", "s"),
    ("analysis.repair.queries_per_repair", "ratio"),
    # simulation (simulate, check)
    ("sim.events.loop_s", "s"),
    ("sim.events.events", "count"),
    ("sim.runner.issue_s", "s"),
    ("sim.runner.ops_issued", "count"),
    ("store.cluster.submit_s", "s"),
    ("store.cluster.deliver_s", "s"),
    ("store.server.queue_s", "s"),
    ("store.transaction.commit_s", "s"),
    ("store.replica.apply_s", "s"),
    ("store.replica.applies", "count"),
    ("crdts.effect_s", "s"),
    ("crdts.effects", "count"),
    ("store.replication.receive_s", "s"),
    ("store.replication.coalescing_ratio", "ratio"),
    ("sim.network.send_s", "s"),
    ("sim.network.messages", "count"),
    # checker (check)
    ("check.oracles.invariant_s", "s"),
    ("check.oracles.convergence_s", "s"),
    ("store.replica.sync_answer_s", "s"),
    ("store.antientropy.exchange_s", "s"),
    ("store.antientropy.useful_ratio", "ratio"),
    ("sim.faults.on_send_s", "s"),
    ("compile.cache.build_s", "s"),
    # live durability (durable, recover)
    ("net.wire.encode_s", "s"),
    ("net.wire.decode_s", "s"),
    ("net.wire.bytes_per_record", "bytes"),
    ("net.commitlog.append_s", "s"),
    ("net.commitlog.append_p99_us", "us"),
    ("net.commitlog.bytes_per_record", "bytes"),
    ("store.engine.sync_s", "s"),
    ("store.engine.bytes_written", "bytes"),
    ("store.replica.open_s", "s"),
    ("net.commitlog.replay_s", "s"),
    ("store.replica.adopt_s", "s"),
    ("store.scrub.scrub_s", "s"),
    # the trace itself
    ("layers.coverage", "ratio"),
    ("trace_overhead_pct", "%"),
    ("host.speed", "ratio"),
)

#: Spans whose individual durations are kept for a percentile.
_KEEP_DURATIONS = ("solver.smt.query", "net.commitlog.append")

_AE_EXCHANGE = "store.antientropy.exchange"

#: Spans reported from the traced set-up rather than the measured
#: passes: their work belongs to ``setup_s``.
SETUP_SPANS = ("compile.cache.build",)


def install(tracer: Tracer) -> None:
    """Wrap every layer's entry points; undone by ``tracer.uninstall()``.

    Must run before the workload builds its clusters and replicas: some
    hot paths bind methods once at construction time.
    """
    from repro.analysis import cache, conflicts, encoding, repair
    from repro.bench.configs import TournamentWorkload
    from repro.check import oracles
    from repro.compile.cache import SpecCache
    from repro.crdts.base import CRDT
    from repro.logic import grounding
    from repro.net import commitlog, wire
    from repro.sim.events import Simulator
    from repro.sim.faults import FaultInjector
    from repro.sim.network import Network
    from repro.solver import cnf, dpll, smt, theory
    from repro.store import antientropy, cluster, replica, replication, scrub
    from repro.store import server, transaction
    from repro.store.engine import ShardedStore

    def method(cls, attrs, name):
        for attr in attrs:
            tracer.trace_method(
                cls, attr, name, keep_durations=name in _KEEP_DURATIONS
            )

    # analysis
    tracer.trace_function(grounding.ground, "logic.grounding.ground")
    tracer.trace_function(
        encoding.single_state_constraints, "analysis.encoding.constraints"
    )
    tracer.trace_function(
        encoding.merged_state_constraints, "analysis.encoding.constraints"
    )
    method(cnf.CnfBuilder, ("assert_formula", "tseitin"), "solver.cnf.assert")
    method(theory.TheoryEncoder, ("encode",), "solver.theory.encode")
    method(dpll.SatSolver, ("solve",), "solver.dpll.solve")
    method(
        smt.BoundedModelFinder,
        ("check_ground", "check_ground_sat"),
        "solver.smt.query",
    )
    method(smt.IncrementalSession, ("check_under",), "solver.smt.query")
    method(cache.SolverCache, ("key",), "analysis.cache.key")
    method(
        conflicts.ConflictChecker, ("is_conflicting",), "analysis.conflicts.scan"
    )
    tracer.trace_function(repair.repair_conflict, "analysis.repair.repair")

    # simulation and store
    method(TournamentWorkload, ("issue",), "sim.runner.issue")
    method(Simulator, ("run",), "sim.events.loop")
    tracer.patch(Simulator, "at", tracer.counter("sim.events.scheduled", Simulator.at))
    tracer.patch(
        Simulator,
        "schedule",
        tracer.counter("sim.events.scheduled", Simulator.schedule),
    )
    method(cluster.Cluster, ("submit",), "store.cluster.submit")
    method(cluster.Cluster, ("deliver", "deliver_batch"), "store.cluster.deliver")
    # ProcessingQueue has no public completion hook: ``_finish`` is the
    # event that frees a worker and dispatches the next queued request.
    method(server.ProcessingQueue, ("submit", "_finish"), "store.server.queue")
    method(transaction.Transaction, ("commit",), "store.transaction.commit")
    method(
        replica.Replica,
        ("commit", "apply_remote", "apply_ready"),
        "store.replica.apply",
    )
    method(replica.Replica, ("sync_answer",), "store.replica.sync_answer")
    method(replica.Replica, ("adopt_log",), "store.replica.adopt")
    method(replica.Replica, ("__init__",), "store.replica.open")
    method(
        replication.CausalReceiver,
        ("receive", "receive_batch"),
        "store.replication.receive",
    )
    _install_crdt_effects(tracer, CRDT)
    _install_network(tracer, Network, cluster.Cluster, replication.ReplicationBatch)
    method(FaultInjector, ("on_send",), "sim.faults.on_send")
    # The anti-entropy engine's public surface is start/stop; its work
    # happens in the request/response handlers it schedules.
    method(
        antientropy.AntiEntropyEngine,
        ("_on_request", "_on_response"),
        _AE_EXCHANGE,
    )

    # checker
    method(oracles.InvariantOracle, ("check",), "check.oracles.invariant")
    method(oracles.ConvergenceOracle, ("check",), "check.oracles.convergence")
    method(SpecCache, ("get_or_build",), "compile.cache.build")

    # live durability
    tracer.trace_function(wire.dump_frame, "net.wire.encode")
    tracer.trace_function(wire.load_frame, "net.wire.decode")
    method(commitlog.ShardedCommitLog, ("append",), "net.commitlog.append")
    method(commitlog.ShardedCommitLog, ("replay",), "net.commitlog.replay")
    method(ShardedStore, ("sync",), "store.engine.sync")
    tracer.trace_function(scrub.scrub_replica, "store.scrub.scrub")


def _install_crdt_effects(tracer: Tracer, base) -> None:
    """Trace every CRDT effect handler.

    Replicas dispatch effects through each class's ``_effect_table``
    (payload type -> handler), skipping ``CRDT.effect``; both routes
    are wrapped under one span name.
    """
    tracer.trace_method(base, "effect", "crdts.effect")
    pending = list(base.__subclasses__())
    seen = set()
    while pending:
        cls = pending.pop()
        if cls in seen:
            continue
        seen.add(cls)
        pending.extend(cls.__subclasses__())
        table = cls.__dict__.get("_effect_table")
        if table:
            tracer.patch(
                cls,
                "_effect_table",
                {
                    payload: tracer.span("crdts.effect", handler)
                    for payload, handler in table.items()
                },
            )


def _install_network(tracer: Tracer, network_cls, cluster_cls, batch_cls) -> None:
    """Trace ``Network.send`` and count anti-entropy push usefulness.

    A replication batch sent while an anti-entropy handler runs is a
    reverse push.  Its delivery is wrapped to count the pushed records
    that the target applied on arrival.
    """
    clusters: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
    original_init = cluster_cls.__dict__["__init__"]

    def cluster_init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        clusters[id(self.network)] = self

    tracer.patch(cluster_cls, "__init__", cluster_init)
    send = tracer.span("sim.network.send", network_cls.__dict__["send"])
    exchange = tracer.slot(_AE_EXCHANGE)

    def traced_send(self, source, target, payload, deliver):
        owner = clusters.get(id(self))
        if exchange.depth and owner is not None and isinstance(payload, batch_cls):
            deliver = _counting_push(tracer, owner, target, deliver)
        return send(self, source, target, payload, deliver)

    tracer.patch(network_cls, "send", traced_send)


def _counting_push(tracer: Tracer, owner, target: str, deliver):
    def delivered(batch) -> None:
        before = dict(owner.replica(target).vv.entries)
        deliver(batch)
        seen = owner.replica(target).vv.entries
        tracer.add(
            "store.antientropy.push_applied",
            sum(
                1
                for record in batch.records
                if before.get(record.origin, 0)
                < record.dot.counter
                <= seen.get(record.origin, 0)
            ),
        )

    return delivered


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    tracer: Tracer,
    figures: dict[str, float],
    setup: dict[str, float],
    counts: dict[str, float],
    wall_s: float,
    ref_s: float,
    overhead_pct: float,
) -> dict[str, dict]:
    """Every :data:`PER_LAYER` metric as ``{name: {value, unit}}``.

    ``figures`` are the tracer's figures (see :meth:`Tracer.figures`)
    gathered inside the measured blocks of the traced passes, whose wall
    time is ``wall_s``; ``setup`` are its figures after the traced
    set-up, read for :data:`SETUP_SPANS`; ``counts`` are the program's
    own counters summed over the traced passes.  ``ref_s`` is
    ``wall_s`` scaled to the reference host, so ``host.speed`` tells how
    fast the host ran during the traced passes.
    """

    def self_s(span: str) -> float:
        if span in SETUP_SPANS:
            return setup.get(span + ".self_s", 0.0)
        return figures.get(span + ".self_s", 0.0)

    def calls(span: str) -> int:
        return figures.get(span + ".calls", 0)

    def durations(span: str) -> list[float]:
        return tracer.slot(span).durations or []

    attributed_s = sum(
        value for name, value in figures.items() if name.endswith(".self_s")
    )
    values: dict[str, float] = {}
    for name, unit in PER_LAYER:
        if unit == "s" and name.endswith("_s"):
            values[name] = self_s(name[:-2])
    values.update(
        {
            "solver.cnf.assert_calls": calls("solver.cnf.assert"),
            "solver.dpll.solves": calls("solver.dpll.solve"),
            "solver.dpll.propagations": counts.get("solver.propagations", 0),
            "solver.smt.queries": calls("solver.smt.query"),
            "solver.smt.query_p99_ms": 1e3
            * percentile(durations("solver.smt.query"), 0.99),
            "analysis.cache.hit_ratio": _ratio(
                counts.get("analysis.cache.hits", 0),
                counts.get("analysis.cache.hits", 0)
                + counts.get("analysis.cache.misses", 0),
            ),
            "analysis.conflicts.conflict_yield": _ratio(
                counts.get("analysis.conflicts.found", 0),
                counts.get("analysis.scan_queries", 0),
            ),
            "analysis.repair.queries_per_repair": _ratio(
                counts.get("analysis.repair_queries", 0),
                calls("analysis.repair.repair"),
            ),
            "sim.events.events": figures.get("sim.events.scheduled", 0),
            "sim.runner.ops_issued": calls("sim.runner.issue"),
            "store.replica.applies": calls("store.replica.apply"),
            "crdts.effects": calls("crdts.effect"),
            "store.replication.coalescing_ratio": _ratio(
                counts.get("store.replication.records", 0),
                counts.get("store.replication.messages", 0),
            ),
            "sim.network.messages": counts.get("net.messages_sent", 0),
            "store.antientropy.useful_ratio": _ratio(
                figures.get("store.antientropy.push_applied", 0),
                counts.get("store.antientropy.records_pushed", 0),
            ),
            "net.wire.bytes_per_record": _ratio(
                counts.get("net.wire.bytes", 0), counts.get("durable.records", 0)
            ),
            "net.commitlog.append_p99_us": 1e6
            * percentile(durations("net.commitlog.append"), 0.99),
            "net.commitlog.bytes_per_record": _ratio(
                counts.get("net.commitlog.bytes", 0),
                counts.get("durable.records", 0),
            ),
            "store.engine.bytes_written": _ratio(
                counts.get("store.engine.bytes", 0), counts.get("durable.passes", 0)
            ),
            "layers.coverage": _ratio(attributed_s, wall_s),
            "trace_overhead_pct": overhead_pct,
            "host.speed": _ratio(ref_s, wall_s),
        }
    )
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
