"""Simulator-core harness: the rack spec, scalar vs batched runs, equivalence.

This module is the user-facing surface of the batched fast path
(:mod:`repro.net.fastpath`):

* :class:`RackSpec` describes one rack and its workload; it maps itself
  onto :class:`~repro.sim.cluster.ClusterConfig` and
  :class:`~repro.client.workload.WorkloadSpec`, and the perf harness
  (:mod:`repro.tools.perf`) describes every scenario's rack with it;
* :func:`build_rack` assembles the rack the same way under both paths
  (same seeds, same preload, same controller);
* :func:`run_scalar` / :func:`run_batched` execute it with the per-packet
  event loop (the executable specification) or the lanes engine;
* :func:`counters_snapshot` / :func:`diff_snapshots` capture and compare
  every gated counter — the equivalence contract is *exact equality*,
  enforced by ``tests/test_prop_simcore.py`` and the ``simcore`` perf/CI
  scenario;
* ``observed=True`` runs either path inside a sim-clocked ``obs`` session
  and adds the session's metrics and span aggregates to the snapshot
  (:func:`obs_snapshot`), so the lanes' batch emission is held to the
  same exact-equality contract.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
from typing import Dict, List, Optional, Tuple

from repro import obs
from repro.client.workload import Workload, WorkloadSpec
from repro.errors import ConfigurationError
from repro.net.fastpath import FastPathEngine
from repro.net.trace import DeliveryTrace
from repro.reliability.retry import RetryPolicy
from repro.sim.cluster import Cluster, ClusterConfig


@dataclasses.dataclass(frozen=True)
class RackSpec:
    """One rack and its workload, shared by both simulator paths and by
    every perf scenario."""

    num_servers: int = 8
    num_keys: int = 5_000
    cache_items: int = 64
    #: lookup-table entries; the switch gets as many value slots.
    lookup_entries: int = 1_024
    skew: float = 0.99
    write_ratio: float = 0.0
    rate: float = 1e6
    duration: float = 0.1
    warm: bool = True
    #: heavy-hitter report threshold; a high value models the settled
    #: regime where the warm cache already holds the hot set.
    hot_threshold: int = 8
    #: statistics epoch: the controller's report and reset interval.
    stats_interval: float = 1.0
    #: controller cache-update round interval.
    controller_update_interval: float = 0.01
    #: per-link loss probability (applied to every cable in the rack).
    link_loss: float = 0.0
    seed: int = 0
    #: concurrent open-loop clients; each beyond the first draws from a
    #: forked (reseeded) query stream over the same popularity map.
    num_clients: int = 1
    #: per-client rates overriding ``rate`` (length must be num_clients).
    client_rates: Optional[Tuple[float, ...]] = None
    #: give every client the default retry policy (seeded from ``seed``);
    #: the perf cluster runner also makes its client's writes idempotent.
    retries: bool = False
    #: cache geometry for the switch ("paper", "setassoc", "orbit").
    #: All three layouts run natively under the lanes engine through
    #: their vectorized batch probes (``CacheLayout.classify_reads``);
    #: the differential harness holds each one byte-identical to the
    #: scalar loop, including Orbit's per-hit recirculation delays.
    layout: str = "paper"
    #: bytes per stored value (threaded into the workload).  Values wider
    #: than one Orbit segment serve in multiple recirculation passes;
    #: values wider than a layout's ``max_value_size`` are uncacheable.
    value_size: int = 128
    #: value stages for the switch (fewer stages -> narrower Orbit
    #: segments -> multi-pass serves that still fit the wire format).
    num_value_stages: int = 8

    def __post_init__(self):
        if self.num_clients < 1:
            raise ConfigurationError("need at least one client")
        if (self.client_rates is not None
                and len(self.client_rates) != self.num_clients):
            raise ConfigurationError(
                "client_rates must have one rate per client")

    @property
    def value_slots(self) -> int:
        return self.lookup_entries

    @property
    def rates(self) -> Tuple[float, ...]:
        return self.client_rates or (self.rate,) * self.num_clients

    @property
    def packets(self) -> int:
        return int(sum(self.rates) * self.duration)

    def cluster_config(self) -> ClusterConfig:
        """The rack's :class:`~repro.sim.cluster.ClusterConfig`."""
        return ClusterConfig(
            num_servers=self.num_servers,
            cache_items=self.cache_items,
            lookup_entries=self.lookup_entries,
            value_slots=self.value_slots,
            hot_threshold=self.hot_threshold,
            controller_update_interval=self.controller_update_interval,
            stats_interval=self.stats_interval,
            link_loss=self.link_loss,
            seed=self.seed,
            layout=self.layout,
            num_value_stages=self.num_value_stages,
            client_retry_policy=(RetryPolicy(seed=self.seed)
                                 if self.retries else None),
        )

    def workload_spec(self) -> WorkloadSpec:
        """The rack's :class:`~repro.client.workload.WorkloadSpec`."""
        return WorkloadSpec(
            num_keys=self.num_keys, read_skew=self.skew,
            write_ratio=self.write_ratio, value_size=self.value_size,
            seed=self.seed)


#: the name the benchmark and the simulator-core tests build racks with.
SimCoreConfig = RackSpec


def build_rack(config: RackSpec):
    """Assemble the scenario rack; returns ``(cluster, client, workload)``.

    Both paths call this with the same config, so every seed-derived
    decision (partitioning, sampler, workload stream) is shared; only the
    driving loop differs.
    """
    cluster = Cluster(config.cluster_config())
    workload = Workload(config.workload_spec())
    cluster.load_workload_data(workload)
    if config.warm:
        cluster.warm_cache(workload, config.cache_items)
    rates = config.rates
    client = cluster.add_workload_client(workload, rate=rates[0])
    for i in range(1, config.num_clients):
        # Forked stream: same popularity map (hot set agreement), own RNG
        # streams — the 7919 stride keeps sibling seeds well separated.
        cluster.add_workload_client(workload.fork(7919 * i), rate=rates[i])
    cluster.start_controller()
    return cluster, client, workload


def run_scalar(config: RackSpec, observed: bool = False) -> Dict:
    """Reference run: the per-packet event loop, verbatim.

    *observed* runs it inside a sim-clocked ``obs`` session and adds
    :func:`obs_snapshot` to the result.
    """
    cluster, client, workload = build_rack(config)
    trace = DeliveryTrace().attach(cluster.sim)
    with observed_session(cluster, observed) as o:
        cluster.sim.run_until(cluster.sim.now + config.duration)
    snap = counters_snapshot(cluster, client, trace)
    if o is not None:
        snap.update(obs_snapshot(o))
    return snap


def run_batched(config: RackSpec, observed: bool = False) -> Dict:
    """Lanes-engine run of the same scenario (*observed* as in
    :func:`run_scalar`)."""
    cluster, client, workload = build_rack(config)
    trace = DeliveryTrace()
    runner = SimCoreRunner(cluster, client, workload, trace=trace)
    with observed_session(cluster, observed) as o:
        runner.run(config.duration)
    snap = counters_snapshot(cluster, client, trace, engine=runner.engine)
    if o is not None:
        snap.update(obs_snapshot(o))
    return snap


def observed_session(cluster: Cluster, observed: bool):
    """Context for a run on *cluster*: a session clocked by its simulator
    when *observed*, else a null context that yields None."""
    if not observed:
        return contextlib.nullcontext()
    return obs.session(clock=obs.sim_clock(cluster.sim))


def obs_snapshot(o: obs.Observability) -> Dict:
    """A session's output as flat ``obs.*`` snapshot fields.

    Each registry metric becomes ``obs.<name>`` (counters and gauges) or
    ``obs.<name>.<field>`` (histogram count, sum, min, max and bucket
    counts); each span name's primary-clock aggregates become
    ``obs.tracer.<name>.<field>``.  ``obs.registry_sha256`` hashes the
    JSON-lines export, so equal snapshots mean byte-identical exports.
    ``fastpath.*`` metrics are engine telemetry and left out, like the
    ``fastpath.*`` snapshot fields.
    """
    snap: Dict = {}
    for name, metric in o.registry.collect().items():
        if name.startswith("fastpath."):
            continue
        if metric["type"] != "histogram":
            snap[f"obs.{name}"] = metric["value"]
            continue
        for field in ("count", "sum", "min", "max", "counts"):
            snap[f"obs.{name}.{field}"] = metric[field]
    for name, agg in o.tracer.summary().items():
        for field in ("count", "errors", "total", "exclusive"):
            snap[f"obs.tracer.{name}.{field}"] = agg[field]
    export = "\n".join(
        line for line in obs.registry_to_jsonl(o.registry).splitlines()
        if '"name": "fastpath.' not in line)
    snap["obs.registry_sha256"] = hashlib.sha256(export.encode()).hexdigest()
    return snap


# -- counter capture -----------------------------------------------------------


def counters_snapshot(cluster: Cluster, client, trace: DeliveryTrace,
                      engine: Optional[FastPathEngine] = None) -> Dict:
    """Every gated counter of one finished run, as a flat dict.

    Not included, deliberately: ``events.processed`` (the whole point of
    the fast path is fewer events), packet ids (scalar replies allocate
    ``Packet`` objects, lanes don't — nothing gated reads them), and
    ``_outstanding`` (the scalar loop keeps an entry per never-answered
    dropped read, the lanes don't create one per bulk read; everything
    observable about in-flight traffic is covered by sent/received).
    """
    sim = cluster.sim
    switch = cluster.switch
    dp = switch.dataplane
    stats = dp.stats
    snap: Dict = {
        "sim.delivered": sim.delivered,
        "sim.lost": sim.lost,
        "sim.node_drops": sim.node_drops,
        "client.sent": client.sent,
        "client.received": client.received,
        "client.cache_hits": client.cache_hits,
        "client.retransmissions": client.retransmissions,
        "client.timeouts": client.timeouts,
        "client.stale_drops": client.stale_drops,
        "client.interval_sent": client._interval_sent,
        "client.interval_received": client._interval_received,
        "client.latencies": list(client.latencies),
        "switch.processed": switch.processed,
        "switch.forwarded": switch.forwarded,
        "dataplane.cache_hits": dp.cache_hits,
        "dataplane.cache_misses": dp.cache_misses,
        "dataplane.writes_seen": dp.writes_seen,
        "dataplane.invalidations": dp.invalidations,
        "dataplane.updates_received": dp.updates_received,
        "dataplane.contents_version": dp.contents_version,
        "dataplane.cache_size": dp.cache_size(),
        "stats.reports": stats.reports,
        "stats.resets": stats.resets,
        "sampler.observed": stats.sampler.observed,
        "sampler.sampled": stats.sampler.sampled,
        "digests.hits": stats.digests.hits,
        "digests.misses": stats.digests.misses,
        "trace.digest": trace.digest(),
        # Per-key hit counters of the cached set (key -> register value).
        "cache.key_counters": sorted(
            (key.hex(), dp.counter_of(key)) for key in switch.cached_keys()),
    }
    # Layout-level registers and counters (for the paper geometry: the
    # lookup-table hit/miss split and the per-pipe status/value registers,
    # under the same key names as before the geometry seam), plus the
    # layout's own SRAM self-audit so a mis-accounted geometry diverges
    # from the truthful reference in a named field.
    snap.update(dp.layout.snapshot_fields())
    snap["layout.sram_audit"] = dp.layout.sram_audit()
    ctl = cluster.controller
    if ctl is not None:
        snap.update({
            "controller.rounds": ctl.rounds,
            "controller.reports_received": ctl.reports_received,
            "controller.insertions": ctl.insertions,
            "controller.evictions": ctl.evictions,
            "controller.rejections": ctl.rejections,
        })
    for sid in sorted(cluster.servers):
        srv = cluster.servers[sid]
        snap[f"server{sid}.received"] = srv.received
        snap[f"server{sid}.processed"] = srv.processed
        snap[f"server{sid}.drops"] = srv.drops
        snap[f"server{sid}.queued"] = srv._queued
        snap[f"server{sid}.busy_until"] = srv._busy_until
        snap[f"server{sid}.store.gets"] = srv.store.gets
        snap[f"server{sid}.store.puts"] = srv.store.puts
        snap[f"server{sid}.store.core_ops"] = list(srv.store.core_ops)
        snap[f"server{sid}.store.probes"] = srv.store.total_probes
        snap[f"server{sid}.store.lookups"] = srv.store.total_lookups
    # Additional workload clients (client-0 keys keep their unprefixed
    # names so single-client goldens stay comparable across versions).
    extra = [c for c in cluster.clients
             if isinstance(c, type(client)) and c is not client]
    for i, cl in enumerate(extra, start=1):
        snap[f"client{i}.sent"] = cl.sent
        snap[f"client{i}.received"] = cl.received
        snap[f"client{i}.cache_hits"] = cl.cache_hits
        snap[f"client{i}.retransmissions"] = cl.retransmissions
        snap[f"client{i}.timeouts"] = cl.timeouts
        snap[f"client{i}.stale_drops"] = cl.stale_drops
        snap[f"client{i}.interval_sent"] = cl._interval_sent
        snap[f"client{i}.interval_received"] = cl._interval_received
        snap[f"client{i}.latencies"] = list(cl.latencies)
    for node_id in sorted(cluster.servers) + [c.node_id
                                              for c in [client] + extra]:
        link = cluster.link_to(node_id)
        snap[f"link{node_id}.transmitted"] = link.transmitted
        snap[f"link{node_id}.dropped"] = link.dropped
        snap[f"link{node_id}.duplicated"] = link.duplicated
        snap[f"link{node_id}.reordered"] = link.reordered
    if engine is not None:
        # Engine-side telemetry (batched runs only, excluded from the
        # scalar/batched diff): lane coverage and attributed fallbacks,
        # surfaced in perf reports so a silent full-scalarization
        # regression fails the bench gate instead of just slowing it.
        snap["fastpath.coverage"] = engine.coverage()
        snap["fastpath.fallbacks"] = dict(engine.fallback_reasons)
    return snap


def diff_snapshots(a: Dict, b: Dict) -> List[str]:
    """Human-readable list of unequal fields (empty = byte-identical)."""
    out = []
    for key in sorted(set(a) | set(b)):
        # Engine metadata, batched-only: lane-coverage telemetry is about
        # *how* a run executed, not what it computed, so it never
        # participates in equivalence.
        if key.startswith("fastpath."):
            continue
        va, vb = a.get(key), b.get(key)
        if key.endswith(".latencies"):
            la, lb = va or [], vb or []
            if len(la) != len(lb):
                out.append(f"{key}: length {len(la)} != {len(lb)}")
            else:
                bad = [i for i, (x, y) in enumerate(zip(la, lb)) if x != y]
                if bad:
                    out.append(f"{key}: {len(bad)} samples differ "
                               f"(first at {bad[0]})")
            continue
        if va != vb:
            out.append(f"{key}: {va!r} != {vb!r}")
    return out


class SimCoreRunner:
    """Drives a rack built by :func:`build_rack` through the lanes engine.

    :func:`run_batched` and the benchmark in ``perfbench/`` call it; both
    read ``engine`` afterwards for coverage and in-flight counts.
    *workload* is the rack's workload, as :func:`build_rack` returns it.
    """

    def __init__(self, cluster: Cluster, client, workload: Workload,
                 trace: Optional[DeliveryTrace] = None):
        self.cluster = cluster
        self.engine = FastPathEngine(cluster, client, trace=trace)

    def run(self, duration: float) -> None:
        """Advance the rack *duration* simulated seconds."""
        self.engine.run_until(self.cluster.sim.now + duration)
