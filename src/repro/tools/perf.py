"""Perf harness: named scenarios, benchmark snapshots, regression gate.

``netcache-repro perf --scenario zipf99 --out BENCH_zipf99.json`` runs one
named discrete-event scenario with the observability layer enabled and
writes a snapshot: throughput, hit ratio, per-component latency quantiles,
and per-component wall-time shares.  ``--compare PRIOR.json`` re-runs the
scenario and fails (exit 1) when a guarded metric regressed past the
threshold — the gate later perf PRs run against their predecessor's
snapshot.

Everything under the snapshot's ``results`` key is a pure function of
(scenario, seed): sim-time latencies, event counts, and span counts replay
byte-identically (tested in ``tests/test_perf_cli.py``).  Wall-clock
readings — elapsed time, events/second, per-component time shares — live
under the ``wall`` key, which comparisons and determinism checks ignore.

Scenarios come in five kinds, one :data:`KINDS` row each (runner,
renderer, guarded metrics).  ``kind="cluster"`` runs the discrete-event
rack.  ``kind="microbench"`` (the ``hotpath`` scenario) drives the data
plane's statistics hot path directly — batched ``observe_reads`` over a
Zipf key stream — and races it against the retained scalar reference
implementation (:mod:`repro.sketch.reference`) on the same stream,
requiring bit-identical reports.  ``kind="simcore"`` (the ``simcore``
scenarios) runs one whole rack scenario under *both* simulator paths —
the batched lanes engine (:mod:`repro.net.fastpath`) and the scalar event
loop — and requires every gated counter, per-key register, and the
delivery-trace digest to match byte-for-byte.  ``kind="tournament"``
sweeps the cache-geometry grid (:mod:`repro.tools.tournament`).
``kind="georace"`` (the ``geometry10m`` scenario) repeats the dual-path
race once per non-paper cache geometry at full scale, additionally gating
the engine's fast-path coverage and its attributed fallback counters so a
geometry that silently falls back to the scalar loop fails the compare.
Every scenario describes its rack with one
:class:`~repro.sim.simcore.RackSpec`.  Deterministic counters of every
kind but ``cluster`` are gated with exact equality; measured speedups
land in the ``wall`` section (see docs/PERFORMANCE.md).
"""

from __future__ import annotations

import dataclasses
import json
import platform
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro import obs
from repro.client.workload import Workload
from repro.errors import ConfigurationError
from repro.sim.cluster import Cluster
from repro.sim.simcore import RackSpec

#: bump when the snapshot layout changes incompatibly.
SNAPSHOT_SCHEMA = 1

#: default allowed relative change before --compare fails.
DEFAULT_THRESHOLD = 0.10


@dataclasses.dataclass(frozen=True)
class PerfScenario:
    """One named, fully-determined perf workload."""

    name: str
    description: str
    #: the rack and its workload; its ``seed`` is replaced by the run's.
    rack: RackSpec
    #: a :data:`KINDS` key.  For microbenches ``rack.duration`` scales
    #: the packet budget instead of simulated seconds.
    kind: str = "cluster"
    #: microbench/tournament knobs (ignored by the other kinds; for the
    #: tournament ``packets`` is the query budget per grid cell).
    packets: int = 0
    batch_size: int = 0
    reset_every: int = 0


def _cluster_rack(**overrides) -> RackSpec:
    """A cluster-sized rack: 40k QPS for 1 s, 0.5 s statistics epochs."""
    return RackSpec(**{"rate": 40_000.0, "duration": 1.0,
                       "stats_interval": 0.5, **overrides})


SCENARIOS: Dict[str, PerfScenario] = {
    s.name: s for s in (
        PerfScenario(
            "zipf99", "paper workload: Zipf 0.99 reads, warm 64-item cache",
            rack=_cluster_rack()),
        PerfScenario(
            "uniform", "uniform reads (cache can't help much)",
            rack=_cluster_rack(skew=0.0, duration=0.5)),
        PerfScenario(
            "writeheavy", "Zipf 0.99 with 30% writes (coherence path hot)",
            rack=_cluster_rack(write_ratio=0.3, duration=0.5)),
        PerfScenario(
            "smoke", "tiny CI scenario: seconds, not minutes",
            rack=_cluster_rack(num_servers=4, num_keys=500, cache_items=16,
                               lookup_entries=256, rate=10_000.0,
                               duration=0.2)),
        PerfScenario(
            "lossy10", "10% per-link loss, client retries on (goodput "
            "must stay within 10% of lossless)",
            rack=_cluster_rack(link_loss=0.10, retries=True,
                               write_ratio=0.1, duration=0.5)),
        PerfScenario(
            "hotpath", "statistics hot-path microbenchmark: batched "
            "observe_reads raced against the scalar reference",
            kind="microbench", packets=120_000, batch_size=4_000,
            reset_every=32_000,
            rack=_cluster_rack(num_keys=20_000, cache_items=1_000,
                               lookup_entries=4_096)),
        PerfScenario(
            "simcore", "10M-packet zipf99 rack under the batched lanes "
            "engine, raced against the scalar event loop (byte-identical "
            "counters required)",
            kind="simcore", rack=RackSpec(duration=10.0)),
        PerfScenario(
            "simcore_mixed", "10M-packet mixed rack: two open-loop "
            "clients (600k + 400k QPS), 5% writes through the real write "
            "pipeline, retry policy armed — the widened fast-path "
            "contract raced end to end against the scalar loop",
            kind="simcore",
            rack=RackSpec(write_ratio=0.05, num_clients=2,
                          client_rates=(600_000.0, 400_000.0), retries=True,
                          duration=10.0)),
        PerfScenario(
            "tournament", "cache-geometry tournament: {paper, setassoc, "
            "orbit} x zipf skew x value size x write ratio on identical "
            "seeded streams (exact-replay grid, gated by "
            "BENCH_geometry.json)",
            kind="tournament", packets=20_000,
            rack=_cluster_rack(num_keys=2_000, cache_items=64,
                               lookup_entries=256)),
        PerfScenario(
            "geometry10m", "geometry race: setassoc and orbit each run a "
            "10M-packet rack natively under the lanes engine, raced "
            "against the scalar event loop (byte-identical counters and "
            "full fast-path coverage required; CI asserts >=3x wall "
            "speedup per layout)",
            kind="georace", rack=RackSpec(duration=10.0)),
    )
}

#: the georace cells: each non-paper geometry raced dual-path at the
#: scenario's full packet budget.  Orbit runs 96-byte values on 2-stage
#: (32-byte) segments — three segments per value, so every cache hit
#: takes two recirculation passes and the per-record reply-delay lane is
#: exercised at scale while staying inside the wire format's 128-byte
#: value cap.
GEORACE_CELLS: Tuple[Dict[str, object], ...] = (
    {"layout": "setassoc", "value_size": 128, "num_value_stages": 8},
    {"layout": "orbit", "value_size": 96, "num_value_stages": 2},
)


def run_scenario(name: str, seed: int = 0,
                 duration: Optional[float] = None,
                 metrics_out: Optional[str] = None) -> Dict:
    """Run one scenario and return its snapshot dict."""
    scenario = SCENARIOS.get(name)
    if scenario is None:
        raise ConfigurationError(
            f"unknown perf scenario {name!r}; choose from "
            f"{', '.join(sorted(SCENARIOS))}")
    kind = KINDS[scenario.kind]
    if metrics_out and not kind.metrics_out:
        accepting = [k for k, v in KINDS.items() if v.metrics_out]
        raise ConfigurationError(
            f"--metrics-out applies only to {' and '.join(accepting)} "
            f"scenarios, not {scenario.kind}")
    rack = dataclasses.replace(scenario.rack, seed=seed)
    if duration is not None:
        rack = dataclasses.replace(rack, duration=duration)
    return kind.run(dataclasses.replace(scenario, rack=rack), metrics_out)


def _snapshot(scenario: PerfScenario, results: Dict, wall: Dict) -> Dict:
    """The snapshot envelope every kind shares around its own sections."""
    return {
        "schema": SNAPSHOT_SCHEMA,
        "scenario": scenario.name,
        "seed": scenario.rack.seed,
        "config": dataclasses.asdict(scenario),
        "results": results,
        "wall": {
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            **wall,
            "python": platform.python_version(),
        },
    }


def _run_cluster(scenario: PerfScenario,
                 metrics_out: Optional[str]) -> Dict:
    """The discrete-event rack with the observability layer on."""
    spec = scenario.rack
    workload = Workload(spec.workload_spec())
    cluster = Cluster(spec.cluster_config())
    cluster.load_workload_data(workload)

    wall_start = time.perf_counter()
    with obs.session(clock=obs.sim_clock(cluster.sim)) as o:
        if spec.warm:
            cluster.warm_cache(workload, spec.cache_items)
        client = cluster.add_workload_client(
            workload, rate=spec.rate, versioned_writes=spec.retries)
        cluster.start_controller()
        cluster.run(spec.duration)
        client.stop()
        snapshot = _build_snapshot(scenario, cluster, client, o,
                                   elapsed=time.perf_counter() - wall_start)
        if metrics_out:
            with open(metrics_out, "w") as fh:
                fh.write(obs.registry_to_jsonl(o.registry))
                fh.write(obs.tracer_to_jsonl(o.tracer))
    return snapshot


#: component histograms embedded in the snapshot's latency section.
LATENCY_COMPONENTS = (
    "client.request",
    "shim.cache_update.rtt",
    "span.dataplane.process",
    "span.controller.update_cache",
    "span.shim.handle_write",
)


def _build_snapshot(scenario: PerfScenario, cluster: Cluster, client,
                    o: "obs.Observability", elapsed: float) -> Dict:
    dataplane = cluster.switch.dataplane
    controller = cluster.controller
    sim = cluster.sim
    received = client.received
    latency = obs.latency_summary(
        o.registry, [n for n in LATENCY_COMPONENTS if n in o.registry])
    return _snapshot(scenario, {
        "queries_sent": client.sent,
        "queries_received": received,
        "delivery_ratio": received / client.sent if client.sent else 0.0,
        "throughput_qps": received / scenario.rack.duration,
        "cache_hit_ratio": (client.cache_hits / received
                            if received else 0.0),
        "switch": {
            "cache_hits": dataplane.cache_hits,
            "cache_misses": dataplane.cache_misses,
            "hit_ratio": dataplane.hit_ratio(),
            "invalidations": dataplane.invalidations,
            "updates_received": dataplane.updates_received,
            "cache_size": dataplane.cache_size(),
        },
        "controller": {
            "rounds": controller.rounds,
            "reports_received": controller.reports_received,
            "insertions": controller.insertions,
            "evictions": controller.evictions,
            "rejections": controller.rejections,
        },
        "net": {
            "delivered": o.net_delivered.value,
            "dropped": o.net_dropped.value,
        },
        "reliability": {
            "client_retries": client.retransmissions,
            "client_timeouts": client.timeouts,
            "dedup_hits": sum(s.shim.dedup.hits
                              for s in cluster.servers.values()),
            "degraded_entries": sum(s.shim.degraded_entries
                                    for s in cluster.servers.values()),
        },
        "latency": latency,
        # Span counts only: sim-clocked spans open and close inside one
        # event, so their sim-time totals are zero by construction.
        "components": {name: {"count": agg["count"],
                              "errors": agg["errors"]}
                       for name, agg in o.tracer.summary().items()},
    }, {
        "elapsed_seconds": elapsed,
        "events_per_second": sim.delivered / elapsed if elapsed > 0 else 0.0,
        "time_shares": o.tracer.wall_shares(),
        "totals": o.tracer.wall_totals(),
    })


# -- the statistics hot-path microbenchmark ----------------------------------------


def _run_microbench(scenario: PerfScenario,
                    metrics_out: Optional[str]) -> Dict:
    """Drive the real data plane's statistics path, twice.

    The measured pass streams a Zipf read workload through batched
    ``observe_reads`` with warm digests (one untimed priming pass fills
    the intern table, then statistics are reset — the steady state a
    switch reaches within its first statistics interval).  The reference
    pass replays the *same* stream through a scalar
    :class:`~repro.sketch.reference.ScalarQueryStatistics` data plane that
    hashes every key from scratch, and every observable output — hot
    reports in order, hit/miss counts, per-key counters — must match
    bit-for-bit, which lands in ``results.reference_matches``.
    """
    from repro.core.dataplane import NetCacheDataplane
    from repro.core.stats import QueryStatistics
    from repro.net.routing import RoutingTable
    from repro.sketch.reference import ScalarQueryStatistics

    rack = scenario.rack
    total = max(scenario.batch_size,
                int(round(scenario.packets * rack.duration)))
    workload = Workload(rack.workload_spec())
    stream = [key for _op, key in workload.queries(total)]
    cached = workload.hottest_keys(rack.cache_items)

    def build(stats) -> NetCacheDataplane:
        dp = NetCacheDataplane(RoutingTable(default_port=0),
                               entries=rack.lookup_entries,
                               value_slots=rack.value_slots,
                               stats=stats)
        ports = dp.num_pipes * dp.ports_per_pipe
        for i, key in enumerate(cached):
            dp.install(key, workload.value_for(key), i % ports)
        return dp

    def run_stream(dp: NetCacheDataplane, batched: bool) -> List[bytes]:
        """Feed the stream with resets at fixed packet offsets; batch
        boundaries are split at reset points so both drivers clear their
        statistics at identical stream positions."""
        hot: List[bytes] = []
        reset_every = scenario.reset_every
        pos = 0
        while pos < total:
            end = min(pos + scenario.batch_size, total)
            if reset_every:
                end = min(end, (pos // reset_every + 1) * reset_every)
            chunk = stream[pos:end]
            if batched:
                hot.extend(dp.observe_reads(chunk))
            else:
                observe = dp.observe_read
                for key in chunk:
                    reported = observe(key)
                    if reported is not None:
                        hot.append(reported)
            pos = end
            if reset_every and pos % reset_every == 0:
                dp.reset_statistics()
        return hot

    # Sample rate 1.0: every packet exercises the counter/sketch/Bloom
    # path (the sampler's high-pass role belongs to cluster scenarios),
    # and neither engine consumes RNG state, so the priming pass cannot
    # perturb the measured pass's decisions.
    fast = build(QueryStatistics(entries=rack.lookup_entries,
                                 hot_threshold=rack.hot_threshold,
                                 sample_rate=1.0, seed=rack.seed))
    run_stream(fast, batched=True)  # priming pass: fill the digest table
    fast.reset_statistics()
    hits0, misses0 = fast.cache_hits, fast.cache_misses
    reports0, resets0 = fast.stats.reports, fast.stats.resets
    fast.stats.sampler.reset_stats()

    wall_start = time.perf_counter()
    hot_fast = run_stream(fast, batched=True)
    elapsed = time.perf_counter() - wall_start

    ref = build(ScalarQueryStatistics(entries=rack.lookup_entries,
                                      hot_threshold=rack.hot_threshold,
                                      sample_rate=1.0, seed=rack.seed))
    ref_start = time.perf_counter()
    hot_ref = run_stream(ref, batched=False)
    ref_elapsed = time.perf_counter() - ref_start

    cache_hits = fast.cache_hits - hits0
    cache_misses = fast.cache_misses - misses0
    matches = (hot_fast == hot_ref
               and cache_hits == ref.cache_hits
               and cache_misses == ref.cache_misses
               and fast.stats.reports - reports0 == ref.stats.reports
               and all(fast.counter_of(k) == ref.counter_of(k)
                       for k in cached))
    sampler = fast.stats.sampler
    speedup = ref_elapsed / elapsed if elapsed > 0 else 0.0
    pps = total / elapsed if elapsed > 0 else 0.0
    ref_pps = total / ref_elapsed if ref_elapsed > 0 else 0.0
    return _snapshot(scenario, {
        "packets": total,
        "cache_hits": cache_hits,
        "cache_misses": cache_misses,
        "hit_ratio": (cache_hits / total) if total else 0.0,
        "hot_reports": len(hot_fast),
        "resets": fast.stats.resets - resets0,
        "sampler_observed": sampler.observed,
        "sampler_sampled": sampler.sampled,
        "digest": fast.stats.digests.stats(),
        "reference_matches": matches,
    }, {
        "elapsed_seconds": elapsed,
        "packets_per_second": pps,
        "reference_elapsed_seconds": ref_elapsed,
        "reference_packets_per_second": ref_pps,
        "speedup_vs_scalar": speedup,
        "notes": (f"warm vectorized hot path ran {speedup:.1f}x the "
                  f"scalar hash-per-access reference on this host "
                  f"({pps:,.0f} vs {ref_pps:,.0f} packets/s over "
                  f"{total} packets)"),
    })


# -- the dual-path simulator-core benchmark ----------------------------------------


def _race(rack: RackSpec) -> Tuple[Dict, Dict, Dict]:
    """Race the batched lanes engine against the scalar event loop.

    Both paths run the same rack from identical seeds; the scalar loop is
    the executable specification, and
    :func:`~repro.sim.simcore.diff_snapshots` must come back empty — every
    counter, per-key register, per-server/per-link total, latency sample,
    and the delivery-trace digest byte-identical.  Returns ``(results,
    wall, scalar)``: the gated results, the measured timings, and the
    scalar run's counter snapshot.
    """
    from repro.sim.simcore import diff_snapshots, run_batched, run_scalar

    wall_start = time.perf_counter()
    batched = run_batched(rack)
    elapsed = time.perf_counter() - wall_start
    ref_start = time.perf_counter()
    scalar = run_scalar(rack)
    ref_elapsed = time.perf_counter() - ref_start
    diffs = diff_snapshots(scalar, batched)
    total = rack.packets

    def clients_total(field: str) -> int:
        """Sum a per-client counter over client, client1, client2, ..."""
        total = 0
        for k, v in scalar.items():
            if not (k.startswith("client") and k.endswith("." + field)):
                continue
            tag = k[len("client"):-len(field) - 1]
            if tag == "" or tag.isdigit():
                total += v
        return total

    received = clients_total("received")
    results = {
        "packets": total,
        "queries_sent": clients_total("sent"),
        "queries_received": received,
        "cache_hits": clients_total("cache_hits"),
        "cache_hit_ratio": (clients_total("cache_hits") / received
                            if received else 0.0),
        "writes_seen": scalar.get("dataplane.writes_seen", 0),
        "retransmissions": clients_total("retransmissions"),
        "deliveries": scalar["sim.delivered"],
        "lost": scalar["sim.lost"],
        "trace_digest": scalar["trace.digest"],
        "divergences": len(diffs),
        "divergent_fields": diffs[:20],
        "paths_match": not diffs,
        # Engine-side telemetry: the fraction of packets that ran under
        # lanes and why the rest scalarized.  A run that silently
        # scalarizes shows up here (and the georace gate holds these
        # exactly for the non-paper geometries).
        "fastpath_coverage": batched.get("fastpath.coverage", 0.0),
        "fallback_reasons": batched.get("fastpath.fallbacks", {}),
    }
    wall = {
        "elapsed_seconds": elapsed,
        "packets_per_second": total / elapsed if elapsed > 0 else 0.0,
        "reference_elapsed_seconds": ref_elapsed,
        "reference_packets_per_second": (total / ref_elapsed
                                         if ref_elapsed > 0 else 0.0),
        "speedup_vs_scalar": ref_elapsed / elapsed if elapsed > 0 else 0.0,
    }
    return results, wall, scalar


def _run_simcore(scenario: PerfScenario,
                 metrics_out: Optional[str]) -> Dict:
    """One dual-path race (:func:`_race`): the equivalence verdict is a
    gated result, the measured speedup lands in ``wall``."""
    results, wall, _ = _race(scenario.rack)
    wall["notes"] = (
        f"batched lanes engine ran {wall['speedup_vs_scalar']:.1f}x the "
        f"scalar event loop on this host "
        f"({wall['packets_per_second']:,.0f} vs "
        f"{wall['reference_packets_per_second']:,.0f} packets/s over "
        f"{results['packets']:,} packets), byte-identical counters "
        f"{'confirmed' if results['paths_match'] else 'VIOLATED'}")
    return _snapshot(scenario, results, wall)


# -- the geometry race: non-paper layouts dual-path at full scale -------------------


def _run_georace(scenario: PerfScenario,
                 metrics_out: Optional[str]) -> Dict:
    """Race each :data:`GEORACE_CELLS` geometry dual-path at full scale.

    The tournament sweeps the grid at smoke scale; this scenario takes
    the headline non-paper cells to the full packet budget, running each
    one natively under the lanes engine against the scalar event loop.
    Per layout, the gate holds the replay counters, the empty diff, the
    exact fast-path coverage, and a zero ``layout`` fallback count — so a
    change that silently scalarizes a geometry (coverage collapses, the
    ``layout`` reason reappears) fails ``--compare`` even though the
    counters still match.  Wall speedups land per layout in ``wall``; the
    CI race additionally asserts each one stays >= 3x.
    """
    results: Dict = {}
    wall_cells: Dict = {}
    wall_start = time.perf_counter()
    for cell in GEORACE_CELLS:
        cell_results, wall_cells[cell["layout"]], scalar = _race(
            dataclasses.replace(scenario.rack, **cell))
        cell_results.update(
            value_size=cell["value_size"],
            num_value_stages=cell["num_value_stages"],
            recirculations=scalar.get("layout.recirculations", 0),
            layout_fallbacks=cell_results["fallback_reasons"].get(
                "layout", 0))
        results[cell["layout"]] = cell_results
    return _snapshot(scenario, results, {
        "elapsed_seconds": time.perf_counter() - wall_start,
        "cells": wall_cells,
        "notes": ", ".join(
            f"{name} ran {w['speedup_vs_scalar']:.1f}x the scalar loop"
            for name, w in wall_cells.items()),
    })


# -- the cache-geometry tournament --------------------------------------------------


def _run_tournament(scenario: PerfScenario,
                    metrics_out: Optional[str]) -> Dict:
    """Sweep the geometry grid (see :mod:`repro.tools.tournament`).

    Every cell is a pure function of the seed — layouts in the same cell
    see byte-identical query streams — so the whole ``results`` section
    replays exactly and is gated with equality.  ``--metrics-out`` writes
    the per-cell grid as CSV instead of the obs exporters (the tournament
    drives the data plane directly, without a simulator)."""
    from repro.tools.tournament import cells_to_csv, run_tournament

    rack = scenario.rack
    wall_start = time.perf_counter()
    result = run_tournament(
        num_keys=rack.num_keys, cache_items=rack.cache_items,
        lookup_entries=rack.lookup_entries, value_slots=rack.value_slots,
        packets=scenario.packets, seed=rack.seed)
    elapsed = time.perf_counter() - wall_start
    if metrics_out:
        with open(metrics_out, "w") as fh:
            fh.write(cells_to_csv(result["cells"]))
    cells = len(result["cells"])
    total = cells * scenario.packets
    return _snapshot(scenario, {
        "cells": result["cells"],
        **result["summary"],
    }, {
        "elapsed_seconds": elapsed,
        "packets_per_second": total / elapsed if elapsed > 0 else 0.0,
        "notes": (f"{cells} grid cells x {scenario.packets} queries "
                  f"in {elapsed:.1f}s"),
    })


def snapshot_to_json(snapshot: Dict) -> str:
    return json.dumps(snapshot, sort_keys=True, indent=2) + "\n"


def strip_volatile(snapshot: Dict) -> Dict:
    """Drop the wall-clock section: what remains must replay identically."""
    return {k: v for k, v in snapshot.items() if k != "wall"}


def render_snapshot(snapshot: Dict) -> str:
    """Human-readable digest of one snapshot."""
    return _kind_of(snapshot).render(snapshot)


def _render_cluster(snapshot: Dict) -> str:
    r = snapshot["results"]
    lines = [
        f"scenario {snapshot['scenario']} seed={snapshot['seed']} "
        f"duration={snapshot['config']['rack']['duration']:g}s",
        f"throughput   : {r['throughput_qps']:,.0f} qps "
        f"({r['queries_received']}/{r['queries_sent']} answered)",
        f"cache        : {r['cache_hit_ratio']:.1%} client hit ratio, "
        f"{r['switch']['cache_size']} items cached",
        f"controller   : {r['controller']['insertions']} insertions, "
        f"{r['controller']['evictions']} evictions over "
        f"{r['controller']['rounds']} rounds",
        "latency (sim-time seconds):",
    ]
    for name, digest in sorted(r["latency"].items()):
        if not digest["count"]:
            continue
        lines.append(
            f"  {name:<30} n={digest['count']:<8} "
            f"p50={digest['p50']:.3e} p90={digest['p90']:.3e} "
            f"p99={digest['p99']:.3e} p999={digest['p999']:.3e}")
    shares = snapshot.get("wall", {}).get("time_shares", {})
    if shares:
        lines.append("wall-time shares (exclusive):")
        for name, share in sorted(shares.items(), key=lambda kv: -kv[1]):
            lines.append(f"  {name:<30} {share:6.1%}")
    return "\n".join(lines)


def _render_microbench(snapshot: Dict) -> str:
    r = snapshot["results"]
    w = snapshot.get("wall", {})
    d = r["digest"]
    return "\n".join([
        f"scenario {snapshot['scenario']} seed={snapshot['seed']} "
        f"packets={r['packets']}",
        f"hot path     : {w.get('packets_per_second', 0.0):,.0f} packets/s "
        f"(batched observe_reads, warm digests)",
        f"reference    : {w.get('reference_packets_per_second', 0.0):,.0f} "
        f"packets/s (scalar, hash per access)",
        f"speedup      : {w.get('speedup_vs_scalar', 0.0):.1f}x",
        f"cache        : {r['hit_ratio']:.1%} hit ratio "
        f"({r['cache_hits']} hits / {r['cache_misses']} misses)",
        f"statistics   : {r['hot_reports']} hot reports over "
        f"{r['resets']} resets, {r['sampler_sampled']} sampled",
        f"digests      : {d['size']} interned, {d['hits']} hits / "
        f"{d['misses']} misses / {d['evictions']} evictions",
        f"equivalence  : scalar reference "
        f"{'matched bit-for-bit' if r['reference_matches'] else 'DIVERGED'}",
    ])


def _render_simcore(snapshot: Dict) -> str:
    r = snapshot["results"]
    w = snapshot.get("wall", {})
    lines = [
        f"scenario {snapshot['scenario']} seed={snapshot['seed']} "
        f"packets={r['packets']:,}",
        f"batched      : {w.get('packets_per_second', 0.0):,.0f} packets/s "
        f"(lanes engine)",
        f"scalar       : {w.get('reference_packets_per_second', 0.0):,.0f} "
        f"packets/s (per-packet event loop)",
        f"speedup      : {w.get('speedup_vs_scalar', 0.0):.1f}x",
        f"cache        : {r['cache_hit_ratio']:.1%} client hit ratio "
        f"({r['cache_hits']} hits / {r['queries_received']} answered)",
        f"writes       : {r.get('writes_seen', 0):,} at the switch, "
        f"{r.get('retransmissions', 0):,} client retransmissions",
        f"trace        : {r['trace_digest']}",
        f"equivalence  : "
        f"{'byte-identical' if r['paths_match'] else 'DIVERGED'}"
        f" ({r['divergences']} fields differ)",
    ]
    if r.get("divergent_fields"):
        lines.extend(f"  {d}" for d in r["divergent_fields"])
    return "\n".join(lines)


def _render_georace(snapshot: Dict) -> str:
    lines = [f"scenario {snapshot['scenario']} seed={snapshot['seed']}"]
    wall_cells = snapshot.get("wall", {}).get("cells", {})
    for layout, r in snapshot["results"].items():
        w = wall_cells.get(layout, {})
        lines.extend([
            f"{layout} (value_size={r['value_size']}, "
            f"stages={r['num_value_stages']}): {r['packets']:,} packets",
            f"  batched    : {w.get('packets_per_second', 0.0):,.0f} "
            f"packets/s, scalar "
            f"{w.get('reference_packets_per_second', 0.0):,.0f} packets/s "
            f"-> {w.get('speedup_vs_scalar', 0.0):.1f}x",
            f"  coverage   : {r['fastpath_coverage']:.3f} fast-path, "
            f"fallbacks {r['fallback_reasons'] or '{}'}",
            f"  equivalence: "
            f"{'byte-identical' if r['paths_match'] else 'DIVERGED'}"
            f" ({r['divergences']} fields differ, "
            f"{r['recirculations']:,} recirculations)",
        ])
        if r.get("divergent_fields"):
            lines.extend(f"    {d}" for d in r["divergent_fields"])
    return "\n".join(lines)


def _render_tournament(snapshot: Dict) -> str:
    from repro.tools.tournament import render

    r = snapshot["results"]
    header = (f"scenario {snapshot['scenario']} seed={snapshot['seed']} "
              f"cells={r['grid_cells']}")
    return header + "\n" + render(r["cells"], r)


# -- regression gate --------------------------------------------------------------

#: (path into the snapshot, direction) pairs guarded by --compare.
#: "higher" metrics may not drop, "lower" metrics may not grow, past the
#: threshold.
GUARDED_METRICS: Tuple[Tuple[Tuple[str, ...], str], ...] = (
    (("results", "throughput_qps"), "higher"),
    (("results", "delivery_ratio"), "higher"),
    (("results", "cache_hit_ratio"), "higher"),
    (("results", "latency", "client.request", "p50"), "lower"),
    (("results", "latency", "client.request", "p99"), "lower"),
)

#: microbench snapshots carry no sim-time latencies; their results are
#: exact replay counters, so the gate demands equality ("equal" ignores
#: the threshold — any drift means the hot path changed behaviour).
MICROBENCH_GUARDED_METRICS: Tuple[Tuple[Tuple[str, ...], str], ...] = (
    (("results", "packets"), "equal"),
    (("results", "cache_hits"), "equal"),
    (("results", "cache_misses"), "equal"),
    (("results", "hot_reports"), "equal"),
    (("results", "sampler_sampled"), "equal"),
    (("results", "reference_matches"), "equal"),
)


#: the simcore snapshot gates the dual-path equivalence itself: any drift
#: in the replay counters or a single divergent field fails the compare.
SIMCORE_GUARDED_METRICS: Tuple[Tuple[Tuple[str, ...], str], ...] = (
    (("results", "packets"), "equal"),
    (("results", "queries_sent"), "equal"),
    (("results", "queries_received"), "equal"),
    (("results", "cache_hits"), "equal"),
    (("results", "writes_seen"), "equal"),
    (("results", "retransmissions"), "equal"),
    (("results", "deliveries"), "equal"),
    (("results", "lost"), "equal"),
    (("results", "divergences"), "equal"),
    (("results", "paths_match"), "equal"),
)


#: the tournament grid is a pure function of the seed: the aggregate
#: metric surface must replay exactly, and the divergence counters pin
#: that the non-paper geometries really do trade hit ratio for their
#: structural properties (>0 divergent cells is asserted by tests, the
#: gate pins the exact count).
TOURNAMENT_GUARDED_METRICS: Tuple[Tuple[Tuple[str, ...], str], ...] = (
    (("results", "grid_cells"), "equal"),
    (("results", "layouts_completed"), "equal"),
    (("results", "paper_mean_hit_ratio"), "equal"),
    (("results", "setassoc_mean_hit_ratio"), "equal"),
    (("results", "orbit_mean_hit_ratio"), "equal"),
    (("results", "setassoc_divergent_cells"), "equal"),
    (("results", "orbit_divergent_cells"), "equal"),
    (("results", "sram_all_ok"), "equal"),
)


#: the georace gate holds, per non-paper geometry, the replay counters
#: AND the engine telemetry: exact coverage and a zero ``layout``
#: fallback count, so a change that quietly pushes a geometry back onto
#: the scalar path fails --compare even with matching counters.
GEORACE_GUARDED_METRICS: Tuple[Tuple[Tuple[str, ...], str], ...] = tuple(
    (("results", layout, metric), "equal")
    for layout in ("setassoc", "orbit")
    for metric in ("packets", "cache_hits", "deliveries", "lost",
                   "recirculations", "divergences", "paths_match",
                   "fastpath_coverage", "layout_fallbacks")
)


@dataclasses.dataclass(frozen=True)
class ScenarioKind:
    """How scenarios of one kind run, render, and are gated."""

    #: ``(scenario, metrics_out) -> snapshot``.
    run: Callable[[PerfScenario, Optional[str]], Dict]
    render: Callable[[Dict], str]
    guarded: Tuple[Tuple[Tuple[str, ...], str], ...]
    #: writes a ``--metrics-out`` file; the other kinds refuse the flag.
    metrics_out: bool = False


#: every scenario kind; a new kind is one row here.
KINDS: Dict[str, ScenarioKind] = {
    "cluster": ScenarioKind(_run_cluster, _render_cluster, GUARDED_METRICS,
                            metrics_out=True),
    "microbench": ScenarioKind(_run_microbench, _render_microbench,
                               MICROBENCH_GUARDED_METRICS),
    "simcore": ScenarioKind(_run_simcore, _render_simcore,
                            SIMCORE_GUARDED_METRICS),
    "tournament": ScenarioKind(_run_tournament, _render_tournament,
                               TOURNAMENT_GUARDED_METRICS, metrics_out=True),
    "georace": ScenarioKind(_run_georace, _render_georace,
                            GEORACE_GUARDED_METRICS),
}


def _kind_of(snapshot: Dict) -> ScenarioKind:
    """A snapshot's scenario kind; raises on a kind :data:`KINDS` lacks.

    Cluster snapshots predate the ``kind`` field, so a missing kind means
    "cluster" and old committed baselines stay valid unchanged.
    """
    config = snapshot.get("config")
    name = (config.get("kind", "cluster") if isinstance(config, dict)
            else "cluster")
    if name not in KINDS:
        raise ConfigurationError(f"unknown scenario kind {name!r}")
    return KINDS[name]


def _guarded_metrics(snapshot: Dict) -> Tuple[Tuple[Tuple[str, ...], str], ...]:
    """The metric set a snapshot is gated on, by its scenario kind."""
    return _kind_of(snapshot).guarded


def _get_path(snapshot: Dict, path: Tuple[str, ...]):
    cur = snapshot
    for part in path:
        if not isinstance(cur, dict) or part not in cur:
            return None
        cur = cur[part]
    return cur


def validate_snapshot(snapshot: Dict) -> List[str]:
    """Structural checks; returns readable problems (empty = well-formed)."""
    problems = []
    if not isinstance(snapshot, dict):
        return ["snapshot is not a JSON object"]
    if snapshot.get("schema") != SNAPSHOT_SCHEMA:
        problems.append(
            f"schema {snapshot.get('schema')!r} != {SNAPSHOT_SCHEMA}")
    for field in ("scenario", "seed", "config", "results"):
        if field not in snapshot:
            problems.append(f"missing top-level field {field!r}")
    try:
        guarded = _guarded_metrics(snapshot)
    except ConfigurationError as exc:
        return problems + [str(exc)]
    for path, _direction in guarded:
        value = _get_path(snapshot, path)
        if not isinstance(value, (int, float)):
            problems.append(
                f"missing or non-numeric metric {'.'.join(path)}")
    return problems


def compare_snapshots(base: Dict, new: Dict,
                      threshold: float = DEFAULT_THRESHOLD) -> List[str]:
    """Regression diffs of *new* against *base*; empty list = pass.

    The comparison is relative: a "higher is better" metric fails when it
    drops more than ``threshold`` below the baseline, a "lower is better"
    metric when it grows more than ``threshold`` above it.
    """
    if threshold < 0:
        raise ConfigurationError("threshold must be non-negative")
    diffs = []
    if base.get("scenario") != new.get("scenario"):
        diffs.append(f"scenario mismatch: baseline ran "
                     f"{base.get('scenario')!r}, this run {new.get('scenario')!r}")
        return diffs
    for path, direction in _guarded_metrics(new):
        dotted = ".".join(path)
        old = _get_path(base, path)
        cur = _get_path(new, path)
        if old is None or cur is None:
            diffs.append(f"metric {dotted} missing from "
                         f"{'baseline' if old is None else 'this run'}")
            continue
        if direction == "equal":
            if old != cur:
                diffs.append(f"{dotted}: {old!r} -> {cur!r} "
                             f"(must replay identically)")
            continue
        if old == cur:
            continue
        if old == 0:
            # Nothing to scale by: any appearance of a worse value fails.
            worse = cur < old if direction == "higher" else cur > old
            if worse:
                diffs.append(f"{dotted}: {old:g} -> {cur:g} "
                             f"(baseline was zero)")
            continue
        change = (cur - old) / abs(old)
        if direction == "higher" and change < -threshold:
            diffs.append(
                f"{dotted}: {old:g} -> {cur:g} ({change:+.1%} worse than "
                f"-{threshold:.1%} allowance)")
        elif direction == "lower" and change > threshold:
            diffs.append(
                f"{dotted}: {old:g} -> {cur:g} ({change:+.1%} worse than "
                f"+{threshold:.1%} allowance)")
    return diffs


def render_comparison(base_path: str, diffs: List[str],
                      threshold: float) -> str:
    if not diffs:
        return (f"no regressions vs {base_path} "
                f"(threshold {threshold:.1%})")
    lines = [f"REGRESSION vs {base_path} (threshold {threshold:.1%}):"]
    lines.extend(f"  {d}" for d in diffs)
    return "\n".join(lines)
