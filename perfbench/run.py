#!/usr/bin/env python3
"""Rack benchmark: host throughput and modelled results of a simulated rack.

Run from the repository root::

    python3 perfbench/run.py --workload read_paper --seed 1 --seconds 30 --trace 0

Each invocation runs one workload (see ``WORKLOADS`` and README.md) in this
process only.  It builds a rack with :func:`repro.sim.simcore.build_rack`,
drives it with :class:`~repro.sim.simcore.SimCoreRunner` (the lanes engine)
for a fixed simulated duration, and repeats that pass on fresh racks with
the same seed until ``--seconds`` of host time are used.  Host timings are
medians over the passes; the modelled results are identical in every pass
(that is one of the output checks).

The end-to-end host timings are *calibrated*: each pass also times a fixed
pure-Python loop (:func:`reference_loop_s`) before set-up and after the run,
and its host seconds are rescaled to the speed at which that loop takes
``REF_NOMINAL_S``.  The shared host this benchmark was built on drifts by
±20% over minutes; the loop follows that drift, and the rescaled times do
not.  The raw wall-clock and CPU-clock figures are printed as well.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced passes with passes traced by :mod:`ledger` and prints the
per-layer metrics.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0 only
when every output check passed.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


@dataclasses.dataclass(frozen=True)
class RackWorkload:
    """One benchmark workload: a simcore rack and how long a pass runs."""

    name: str
    why: str
    #: SimCoreConfig fields besides ``seed`` and ``duration``.
    rack: Dict
    #: simulated seconds per measured pass.
    duration: float
    #: simulated seconds of the scalar-vs-lanes prefix check.
    check_duration: float
    #: run inside an ``obs`` session (forces the scalar event loop today).
    observed: bool = False


WORKLOADS = {w.name: w for w in (
    RackWorkload(
        "read_paper",
        "read-only Zipf 0.99 at 1 MQPS on the paper layout: classify and "
        "store get dominate, the two ROADMAP kernels",
        rack={}, duration=0.08, check_duration=0.015),
    RackWorkload(
        "write_mix",
        "two clients, 5% writes, retries armed: write barriers shrink "
        "batches and mutate cache and store state",
        rack=dict(write_ratio=0.05, num_clients=2,
                  client_rates=(600_000.0, 400_000.0), retries=True),
        duration=0.03, check_duration=0.015),
    RackWorkload(
        "read_observed",
        "the read rack under an obs session: scalar event loop, simulator "
        "and obs layers; crosses a 1 s statistics epoch",
        rack=dict(rate=25_000.0), duration=1.2, check_duration=0.4,
        observed=True),
)}

#: measured passes per run at least, however short ``--seconds`` is.
MIN_PASSES = 3
#: rack set-ups timed per run at least (extra ones are set-up only).
MIN_SETUPS = 5
#: iterations of the host-speed reference loop (about 30 ms).
REF_ITERATIONS = 300_000
#: the loop's time on the host the benchmark was built on (Xeon, 2 vCPUs);
#: calibrated seconds are host seconds at that speed.
REF_NOMINAL_S = 0.031
#: drain step after the clients stop, and the most steps taken.
DRAIN_STEP = 50e-6
DRAIN_STEPS = 2_000

#: end-to-end metrics (``--trace 0``), in BENCHMARK.json order.
END_TO_END_UNITS = {
    "setup_s": "s",
    "queries_per_s": "1/s",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
    "hit_ratio": "ratio",
    "server_load_imbalance": "ratio",
    "sim_latency_mean_us": "sim_us",
    "sim_latency_p99_us": "sim_us",
}


def reference_loop_s() -> float:
    """Host seconds of a fixed pure-Python loop, the host-speed probe.

    It is benchmark code, so no change to the simulator moves it.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(REF_ITERATIONS):
        acc += i * i % 7
    return time.perf_counter() - t0


def host_speed(ref_before: float) -> float:
    """Calibration factor from a reference loop timed before some work and
    one timed now, after it."""
    return 2 * REF_NOMINAL_S / (ref_before + reference_loop_s())


def sim_config(wl: RackWorkload, seed: int, duration: float):
    from repro.sim.simcore import SimCoreConfig

    return SimCoreConfig(seed=seed, duration=duration, **wl.rack)


# -- one pass ------------------------------------------------------------------


@dataclasses.dataclass
class Pass:
    """One fresh rack run for a fixed simulated duration."""

    setup_s: float
    run_wall_s: float
    run_cpu_s: float
    #: REF_NOMINAL_S over the reference loop's time around this pass:
    #: host seconds times this factor are calibrated seconds.
    host_speed: float
    #: counters_snapshot of the run; dropped once compared with pass 0.
    snapshot: Optional[Dict]
    outcome: Dict
    #: per-layer self seconds, calls and units (traced passes only).
    layers: Optional[Tuple[Dict, Dict, Dict]] = None
    #: rack counters moved during the run phase (traced passes only).
    moved: Optional[Dict] = None


def _workload_clients(cluster) -> List:
    from repro.client.api import WorkloadClient

    return [c for c in cluster.clients if isinstance(c, WorkloadClient)]


def _rack_counters(cluster) -> Dict[str, int]:
    dp = cluster.switch.dataplane
    ctl = cluster.controller
    return {
        "events.processed": cluster.sim.events.processed,
        "controller.rounds": ctl.rounds,
        "controller.insertions": ctl.insertions,
        "controller.evictions": ctl.evictions,
        "stats.hot_reports": dp.stats.reports,
        "digests.hits": dp.stats.digests.hits,
        "digests.misses": dp.stats.digests.misses,
        "switch.hits": dp.cache_hits,
        "switch.misses": dp.cache_misses,
    }


def build(wl: RackWorkload, seed: int, duration: float):
    """Config to a ready rack: data load, warm cache, controller, runner."""
    from repro.net.trace import DeliveryTrace
    from repro.sim.simcore import SimCoreRunner, build_rack

    cluster, client, workload = build_rack(sim_config(wl, seed, duration))
    trace = DeliveryTrace()
    runner = SimCoreRunner(cluster, client, workload, trace=trace)
    return cluster, client, runner, trace


def run_pass(wl: RackWorkload, seed: int, duration: float,
             observed: bool, ledger=None) -> Pass:
    """Build, run *duration* simulated seconds, drain, and snapshot."""
    from repro import obs
    from repro.sim.simcore import counters_snapshot

    gc.collect()
    ref_before = reference_loop_s()
    t0 = time.perf_counter()
    cluster, client, runner, trace = build(wl, seed, duration)
    setup_s = time.perf_counter() - t0
    session = (obs.session(clock=obs.sim_clock(cluster.sim)) if observed
               else contextlib.nullcontext())
    with session:
        before = _rack_counters(cluster)
        if ledger is not None:
            ledger.reset()
        w0, c0 = time.perf_counter(), time.process_time()
        runner.run(duration)
        # Stop sending and let every query still on the wire finish, so
        # each one sent is either answered or counted as failed.
        for cl in _workload_clients(cluster):
            cl.stop()
        for _ in range(DRAIN_STEPS):
            if runner.engine.in_flight() == 0:
                break
            runner.run(DRAIN_STEP)
        run_wall = time.perf_counter() - w0
        run_cpu = time.process_time() - c0
        layers = moved = None
        if ledger is not None:
            trace.digest()  # the trace layer's final flush is run work
            layers = (dict(ledger.self_s), dict(ledger.calls),
                      dict(ledger.units))
            after = _rack_counters(cluster)
            moved = {k: after[k] - before[k] for k in after}
    speed = host_speed(ref_before)
    snap = counters_snapshot(cluster, client, trace, engine=runner.engine)
    return Pass(setup_s, run_wall, run_cpu, speed, snap,
                rack_outcome(cluster, runner.engine, trace), layers, moved)


def rack_outcome(cluster, engine, trace) -> Dict:
    """Queries, failures and the modelled results of one drained run."""
    import numpy as np

    clients = _workload_clients(cluster)
    dp = cluster.switch.dataplane
    sent = sum(c.sent for c in clients)
    received = sum(c.received for c in clients)
    expired = sum(c.timeouts + c.stale_drops for c in clients)
    in_flight = engine.in_flight()
    lat = np.concatenate([np.asarray(c.latencies, dtype=np.float64)
                          for c in clients])
    lat.sort()
    processed = [srv.processed for srv in cluster.servers.values()]
    reads = dp.cache_hits + dp.cache_misses
    p99_rank = int(np.ceil(0.99 * len(lat))) - 1  # nearest rank
    return {
        "sent": sent,
        "received": received,
        "expired": expired,
        "in_flight": in_flight,
        # Lost, timed out, or never answered once the wire drained.
        "failed": expired + in_flight,
        "retransmissions": sum(c.retransmissions for c in clients),
        "client_hits": sum(c.cache_hits for c in clients),
        "lost": cluster.sim.lost,
        "switch_hits": dp.cache_hits,
        "switch_misses": dp.cache_misses,
        "writes_seen": dp.writes_seen,
        "hit_ratio": dp.cache_hits / reads,
        "server_load_imbalance": max(processed) / statistics.fmean(processed),
        "sim_latency_mean_us": float(lat.mean()) * 1e6,
        "sim_latency_p99_us": float(lat[p99_rank]) * 1e6,
        "sim_latency_samples": len(lat),
        "digest": trace.digest(),
        "fastpath.coverage": engine.coverage(),
        "fastpath.fallbacks": sum(engine.fallback_reasons.values()),
    }


# -- output checks -----------------------------------------------------------------


def identity_errors(o: Dict) -> List[str]:
    """Conservation identities of one drained run."""
    errs = []
    if o["sent"] != o["received"] + o["expired"] + o["in_flight"]:
        errs.append(f"sent {o['sent']} != received {o['received']} + "
                    f"expired {o['expired']} + in flight {o['in_flight']}")
    if o["lost"] == 0:
        # Every request packet a client put on the wire reached the switch
        # exactly once, as a read (hit or miss) or as a write.
        reads = o["switch_hits"] + o["switch_misses"]
        arrived = o["sent"] + o["retransmissions"]
        if reads + o["writes_seen"] != arrived:
            errs.append(f"hits {o['switch_hits']} + misses "
                        f"{o['switch_misses']} + writes {o['writes_seen']} "
                        f"!= requests sent {arrived}")
    if (o["retransmissions"] == 0 and o["in_flight"] == 0
            and o["client_hits"] != o["switch_hits"]):
        errs.append(f"switch hits {o['switch_hits']} != cache replies "
                    f"received {o['client_hits']}")
    return errs


def prefix_errors(wl: RackWorkload, seed: int, duration: float) -> List[str]:
    """The lanes engine must replay the scalar event loop exactly."""
    from repro.sim.simcore import diff_snapshots, run_batched, run_scalar

    config = sim_config(wl, seed, duration)
    diffs = diff_snapshots(run_scalar(config), run_batched(config))
    return [f"scalar vs lanes prefix: {d}" for d in diffs[:5]]


def same_run_errors(label: str, ref: Pass, other: Pass) -> List[str]:
    from repro.sim.simcore import diff_snapshots

    return [f"{label}: {d}"
            for d in diff_snapshots(ref.snapshot, other.snapshot)[:5]]


# -- the benchmark -----------------------------------------------------------------


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def run_benchmark(name: str, seed: int, seconds: float, trace: bool,
                  scale: float = 1.0) -> Tuple[Dict, List[str]]:
    """Run one workload; returns ``(result, report_lines)``.

    *scale* shrinks every simulated duration (the benchmark's own smoke
    tests use it); the command line always runs at scale 1.
    """
    wl = WORKLOADS[name]
    duration = wl.duration * scale
    lines = [f"workload {name} seed {seed}: {wl.why}"]
    errors: List[str] = []
    passes: List[Pass] = []
    ledger = None
    if trace:
        from ledger import Ledger

        ledger = Ledger()

    def measure(traced: bool) -> None:
        if traced:
            with ledger.install():
                p = run_pass(wl, seed, duration, wl.observed, ledger=ledger)
        else:
            p = run_pass(wl, seed, duration, wl.observed)
        i = len(passes)
        errors.extend(f"pass {i}: {e}" for e in identity_errors(p.outcome))
        if passes:
            # Same seed, same rack: every pass, traced or not, must
            # reproduce the first one exactly.  Only the first snapshot is
            # kept, so memory does not grow with the pass count.
            errors.extend(same_run_errors(f"pass {i} vs pass 0",
                                          passes[0], p))
            p.snapshot = None
        passes.append(p)

    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        measure(traced=False)
        if trace:
            measure(traced=True)
    if not trace:
        peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        setups = [(p.setup_s, p.host_speed) for p in passes]
        while len(setups) < MIN_SETUPS:
            gc.collect()
            ref_before = reference_loop_s()
            t0 = time.perf_counter()
            build(wl, seed, duration)
            setups.append((time.perf_counter() - t0,
                           host_speed(ref_before)))
    if wl.observed:
        errors += same_run_errors(
            "observed vs unobserved", passes[0],
            run_pass(wl, seed, duration, observed=False))
    errors += prefix_errors(wl, seed, wl.check_duration * scale)

    o = passes[0].outcome
    attempted = sum(p.outcome["sent"] for p in passes)
    failed = sum(p.outcome["failed"] for p in passes)
    correct = not errors
    if not correct:
        failed = attempted
    lines.append(f"{len(passes)} passes of {o['sent']} queries "
                 f"({duration:g} simulated s each)" +
                 (", every second one traced" if trace else ""))
    if o["sim_latency_samples"] < o["received"]:
        lines.append(f"WARNING: latency base is {o['sim_latency_samples']} "
                     f"samples for {o['received']} queries received; the "
                     f"client keeps only its first samples")
    else:
        lines.append(f"latency base: {o['sim_latency_samples']} samples "
                     f"= queries received")

    if trace:
        metrics = layer_metrics(passes)
        units = {k: LAYER_UNITS[k] for k in metrics}
    else:
        walls = [p.run_wall_s for p in passes]
        cpus = [p.run_cpu_s for p in passes]
        calibrated = [p.run_wall_s * p.host_speed for p in passes]
        metrics = {
            "setup_s": statistics.median(s * f for s, f in setups),
            "queries_per_s": o["sent"] / statistics.median(calibrated),
            "peak_rss_mb": peak_rss_mb,
            "success_rate": 1.0 - failed / attempted,
            "hit_ratio": o["hit_ratio"],
            "server_load_imbalance": o["server_load_imbalance"],
            "sim_latency_mean_us": o["sim_latency_mean_us"],
            "sim_latency_p99_us": o["sim_latency_p99_us"],
        }
        units = END_TO_END_UNITS
        lines.append("run phase per pass: wall " +
                     " ".join(f"{w:.3f}" for w in walls) + " s; cpu " +
                     " ".join(f"{c:.3f}" for c in cpus) + " s")
        lines.append("host speed per pass: " +
                     " ".join(f"{p.host_speed:.3f}" for p in passes))
        lines.append(f"uncalibrated: queries_per_s "
                     f"{o['sent'] / statistics.median(walls):.1f} 1/s by "
                     f"wall clock, "
                     f"{o['sent'] / statistics.median(cpus):.1f} 1/s by cpu "
                     f"clock; setup_s "
                     f"{statistics.median(s for s, _ in setups):.4f} s")
    for key, value in metrics.items():
        lines.append(f"  {key:<24} {value:.6g} {units[key]}")
    for e in errors:
        lines.append(f"CHECK FAILED: {e}")
    lines.append("output check: " + ("ok" if correct else "FAILED"))
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }
    return result, lines


# -- per-layer metrics (--trace 1) ---------------------------------------------------

#: per-layer metrics, in BENCHMARK.json order, with their units.
LAYER_UNITS = {
    "client.gen_s": "s", "client.queries_drawn": "count",
    "fastpath.self_s": "s", "fastpath.coverage": "ratio",
    "fastpath.fallbacks": "count", "fastpath.reads_per_batch": "keys/call",
    "switch.read_batch_s": "s", "switch.read_batch_calls": "count",
    "switch.write_s": "s", "switch.writes": "count",
    "switch.hit_ratio": "ratio",
    "geometry.classify_s": "s", "geometry.classify_keys": "count",
    "geometry.ns_per_key": "ns/key",
    "stats.s": "s", "stats.keys": "count", "stats.hot_reports": "count",
    "stats.digest_hit_ratio": "ratio",
    "store.get_s": "s", "store.gets": "count",
    "store.put_s": "s", "store.puts": "count",
    "shim.process_s": "s", "shim.calls": "count",
    "controller.s": "s", "controller.rounds": "count",
    "controller.insertions": "count", "controller.evictions": "count",
    "trace.s": "s", "trace.records": "count",
    "events.processed": "count", "simulator.self_s": "s",
    "switch.handle_packet_s": "s", "server.handle_packet_s": "s",
    "obs.metrics_s": "s", "obs.metric_calls": "count",
    "run_s": "s", "run_cpu_s": "s", "host_speed": "ratio",
    "trace_overhead": "ratio",
    "sim_latency_samples": "count",
}


def layer_metrics(passes: List[Pass]) -> Dict[str, float]:
    """Mean self seconds per traced pass and per-pass work counts.

    Self seconds of a layer exclude the traced layers it called, so the
    ``*_s`` layer figures add up to ``run_s`` less the untraced remainder
    (the drain loop and code between spans).
    """
    traced = [p for p in passes if p.layers is not None]
    plain = [p for p in passes if p.layers is None]
    n = len(traced)

    def secs(layer: str) -> float:
        return sum(p.layers[0].get(layer, 0.0) for p in traced) / n

    last = traced[-1]
    _, calls, units = last.layers
    moved = last.moved
    run_s = statistics.fmean(p.run_wall_s for p in traced)
    base_s = statistics.fmean(p.run_wall_s for p in plain)
    classify_keys = units.get("geometry.classify", 0)
    reads = moved["switch.hits"] + moved["switch.misses"]
    digests = moved["digests.hits"] + moved["digests.misses"]
    return {
        "client.gen_s": secs("client.gen"),
        "client.queries_drawn": units.get("client.gen", 0),
        "fastpath.self_s": secs("fastpath"),
        "fastpath.coverage": last.outcome["fastpath.coverage"],
        "fastpath.fallbacks": last.outcome["fastpath.fallbacks"],
        "fastpath.reads_per_batch": _ratio(
            units.get("switch.read_batch", 0),
            calls.get("switch.read_batch", 0)),
        "switch.read_batch_s": secs("switch.read_batch"),
        "switch.read_batch_calls": calls.get("switch.read_batch", 0),
        "switch.write_s": secs("switch.write"),
        "switch.writes": calls.get("switch.write", 0),
        "switch.hit_ratio": _ratio(moved["switch.hits"], reads),
        "geometry.classify_s": secs("geometry.classify"),
        "geometry.classify_keys": classify_keys,
        "geometry.ns_per_key": _ratio(secs("geometry.classify") * 1e9,
                                      classify_keys),
        "stats.s": secs("stats"),
        "stats.keys": units.get("stats", 0),
        "stats.hot_reports": moved["stats.hot_reports"],
        "stats.digest_hit_ratio": _ratio(moved["digests.hits"], digests),
        "store.get_s": secs("store.get"),
        "store.gets": calls.get("store.get", 0),
        "store.put_s": secs("store.put"),
        "store.puts": calls.get("store.put", 0),
        "shim.process_s": secs("shim.process"),
        "shim.calls": calls.get("shim.process", 0),
        "controller.s": secs("controller"),
        "controller.rounds": moved["controller.rounds"],
        "controller.insertions": moved["controller.insertions"],
        "controller.evictions": moved["controller.evictions"],
        "trace.s": secs("trace"),
        "trace.records": int(last.outcome["digest"].split(":")[1]),
        "events.processed": moved["events.processed"],
        "simulator.self_s": secs("simulator"),
        "switch.handle_packet_s": secs("switch.handle_packet"),
        "server.handle_packet_s": secs("server.handle_packet"),
        "obs.metrics_s": secs("obs.metrics"),
        "obs.metric_calls": calls.get("obs.metrics", 0),
        "run_s": run_s,
        "run_cpu_s": statistics.fmean(p.run_cpu_s for p in plain),
        "host_speed": statistics.fmean(p.host_speed for p in passes),
        "trace_overhead": _ratio(run_s, base_s),
        "sim_latency_samples": last.outcome["sim_latency_samples"],
    }


# -- command line ----------------------------------------------------------------------


def main(argv: Optional[List[str]] = None, scale: float = 1.0) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="host seconds of measured passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: no simulator sources at {SRC}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    result, lines = run_benchmark(args.workload, args.seed, args.seconds,
                                  bool(args.trace), scale=scale)
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
