"""Scalar vs batched equivalence and engine eligibility.

The differential tests here are the hand-picked scenarios; random ones live
in ``tests/test_prop_simcore.py`` and the committed 100k-packet pin in
``tests/test_golden_simcore.py``.
"""

import time

import pytest

from repro import obs
from repro.errors import ConfigurationError
from repro.net.fastpath import FastPathEngine
from repro.net.trace import DeliveryTrace
from repro.reliability.retry import RetryPolicy
from repro.sim.cluster import Cluster, ClusterConfig, default_workload
from repro.sim.simcore import (
    SimCoreConfig,
    SimCoreRunner,
    build_rack,
    counters_snapshot,
    diff_snapshots,
    obs_snapshot,
    observed_session,
    run_batched,
    run_scalar,
)


def tiny(**overrides):
    defaults = dict(num_servers=4, num_keys=500, cache_items=16,
                    lookup_entries=256, rate=2e5, duration=0.05, seed=3)
    defaults.update(overrides)
    return SimCoreConfig(**defaults)


def run_with_script(config, script, batched, observed=False, timings=None):
    """Like run_scalar/run_batched but with a fault script (or None)
    applied to the freshly built rack before the run (identically under
    both paths).  *timings*, when given, gets the run phase's wall seconds
    appended."""
    cluster, client, workload = build_rack(config)
    trace = DeliveryTrace()
    if not batched:
        trace.attach(cluster.sim)
    if script is not None:
        script(cluster, client)
    runner = (SimCoreRunner(cluster, client, workload, trace=trace)
              if batched else None)
    with observed_session(cluster, observed) as o:
        started = time.perf_counter()
        if batched:
            runner.run(config.duration)
        else:
            cluster.sim.run_until(cluster.sim.now + config.duration)
        if timings is not None:
            timings.append(time.perf_counter() - started)
    snap = counters_snapshot(cluster, client, trace,
                             engine=runner.engine if batched else None)
    if o is not None:
        snap.update(obs_snapshot(o))
    return snap


class TestDifferential:
    def test_read_only_byte_identical(self):
        cfg = tiny()
        assert diff_snapshots(run_scalar(cfg), run_batched(cfg)) == []

    def test_writes_byte_identical(self):
        cfg = tiny(write_ratio=0.1, seed=5)
        assert diff_snapshots(run_scalar(cfg), run_batched(cfg)) == []

    def test_faults_byte_identical(self):
        # Crash + restart, a loss burst, and a duplication window: the
        # engine must fall back to the scalar loop for the dirty stretch
        # and replay the link RNG decisions exactly.
        cfg = tiny(duration=0.06, seed=7)
        sid = {}

        def script(cluster, client):
            sid["victim"] = cluster.plan.server_ids[0]
            ev = cluster.sim.events
            cl_link = cluster.link_to(client.node_id)
            srv_link = cluster.link_to(cluster.plan.server_ids[1])
            ev.schedule_at(0.010, cluster.crash_server, sid["victim"])
            ev.schedule_at(0.015, cl_link.start_loss_burst, 0.5, 0.033)
            ev.schedule_at(0.020, srv_link.set_duplication, 0.3)
            ev.schedule_at(0.030, cluster.restart_server, sid["victim"])
            ev.schedule_at(0.035, srv_link.set_duplication, 0.0)

        a = run_with_script(cfg, script, batched=False)
        b = run_with_script(cfg, script, batched=True)
        assert diff_snapshots(a, b) == []
        # The scenario actually exercised the fault paths.
        assert a["sim.lost"] > 0
        assert any(a[k] > 0 for k in a if k.endswith(".duplicated"))

    def test_unwarmed_cache_byte_identical(self):
        # Cold cache: the controller inserts during the run, so hot-key
        # reports and install/evict traffic flow under both paths.
        cfg = tiny(warm=False, hot_threshold=4, duration=0.04)
        a, b = run_scalar(cfg), run_batched(cfg)
        assert diff_snapshots(a, b) == []
        assert a["controller.insertions"] > 0

    def test_retries_byte_identical(self):
        # Retry policies ride the lanes: the flag-horizon scan registers
        # real timers only for requests whose deadline could fire, and
        # the scalar/batched timer RNG streams must coincide exactly.
        cfg = tiny(retries=True, seed=9)
        a, b = run_scalar(cfg), run_batched(cfg)
        assert diff_snapshots(a, b) == []

    def test_multi_client_byte_identical(self):
        # Two open-loop clients at different rates: the k-way merged send
        # stream must interleave exactly like the scalar event heap.
        cfg = tiny(num_clients=2, client_rates=(2e5, 7e4), seed=4)
        a, b = run_scalar(cfg), run_batched(cfg)
        assert diff_snapshots(a, b) == []
        assert a["client1.sent"] > 0

    def test_mixed_multi_client_retries_byte_identical(self):
        # The full widened contract at once: write lanes + k-way merge +
        # vectorized retry deadlines, all byte-identical.
        cfg = tiny(write_ratio=0.05, num_clients=2, rate=1e5,
                   retries=True, seed=6)
        a, b = run_scalar(cfg), run_batched(cfg)
        assert diff_snapshots(a, b) == []
        assert a["dataplane.writes_seen"] > 0

    def test_down_server_with_retries_byte_identical(self):
        # A crashed server turns lane entries into node drops whose
        # retransmission chains must replay exactly (including the
        # eventual timeout accounting).
        cfg = tiny(duration=0.03, retries=True, seed=8)
        sid = {}

        def script(cluster, client):
            sid["victim"] = cluster.plan.server_ids[0]
            ev = cluster.sim.events
            ev.schedule_at(0.008, cluster.crash_server, sid["victim"])
            ev.schedule_at(0.020, cluster.restart_server, sid["victim"])

        a = run_with_script(cfg, script, batched=False)
        b = run_with_script(cfg, script, batched=True)
        assert diff_snapshots(a, b) == []
        assert a["sim.node_drops"] > 0
        assert a["client.retransmissions"] > 0

    def test_write_invalidation_coherence_byte_identical(self):
        # Heavy writes on a hot cached set: invalidations, value updates
        # and blocked-write drains interleave with batched reads.
        cfg = tiny(write_ratio=0.3, seed=13)
        a, b = run_scalar(cfg), run_batched(cfg)
        assert diff_snapshots(a, b) == []
        assert a["dataplane.invalidations"] > 0
        assert a["dataplane.updates_received"] > 0


class TestEligibility:
    def _rack(self, **cluster_over):
        over = dict(num_servers=4, cache_items=16, lookup_entries=256,
                    value_slots=256, seed=1)
        over.update(cluster_over)
        cluster = Cluster(ClusterConfig(**over))
        workload = default_workload(num_keys=300, seed=1)
        cluster.load_workload_data(workload)
        return cluster, workload

    def test_retry_policy_accepted(self):
        cluster, workload = self._rack()
        client = cluster.add_workload_client(workload, rate=1e5,
                                             retry_policy=RetryPolicy())
        engine = FastPathEngine(cluster, client)
        assert engine._tmin == pytest.approx(
            RetryPolicy().min_delay())

    def test_rate_controller_rejected(self):
        cluster, workload = self._rack()
        client = cluster.add_workload_client(workload, rate=1e5, aimd=True)
        with pytest.raises(ConfigurationError):
            FastPathEngine(cluster, client)

    def test_server_queue_limit_rejected(self):
        cluster, workload = self._rack(server_queue_limit=64)
        client = cluster.add_workload_client(workload, rate=1e5)
        with pytest.raises(ConfigurationError):
            FastPathEngine(cluster, client)

    def test_plain_switch_rejected(self):
        cluster, workload = self._rack(enable_cache=False)
        client = cluster.add_workload_client(workload, rate=1e5)
        with pytest.raises(ConfigurationError):
            FastPathEngine(cluster, client)

    def test_second_workload_client_accepted(self):
        cluster, workload = self._rack()
        client = cluster.add_workload_client(workload, rate=1e5)
        cluster.add_workload_client(workload.fork(7919), rate=5e4)
        engine = FastPathEngine(cluster, client)
        assert len(engine._states) == 2

    def test_client_must_be_first(self):
        cluster, workload = self._rack()
        cluster.add_workload_client(workload, rate=1e5)
        second = cluster.add_workload_client(workload.fork(7919), rate=1e5)
        with pytest.raises(ConfigurationError):
            FastPathEngine(cluster, second)


class TestCoverage:
    """Fast-path coverage accounting and scalar-fallback telemetry."""

    def _run_engine(self, cfg, script=None):
        cluster, client, workload = build_rack(cfg)
        if script is not None:
            script(cluster, client)
        runner = SimCoreRunner(cluster, client, workload,
                               trace=DeliveryTrace())
        runner.run(cfg.duration)
        return runner.engine

    @pytest.mark.parametrize("overrides", [
        dict(),
        dict(write_ratio=0.1, seed=5),
        dict(retries=True, seed=9),
        dict(num_clients=2, client_rates=(2e5, 7e4), seed=4),
        dict(write_ratio=0.05, num_clients=2, rate=1e5, retries=True),
    ])
    def test_full_coverage_on_clean_scenarios(self, overrides):
        # The widened contract: writes, retries, and extra clients no
        # longer force scalar sends — clean runs stay 100% on the lanes.
        engine = self._run_engine(tiny(**overrides))
        assert engine.coverage() == 1.0
        assert engine.scalar_fallbacks == 0
        assert engine.fallback_reasons == {}

    def test_link_fault_fallback_counted(self):
        def script(cluster, client):
            link = cluster.link_to(client.node_id)
            cluster.sim.events.schedule_at(
                0.01, link.start_loss_burst, 0.5, 0.02)

        engine = self._run_engine(tiny(duration=0.04), script)
        assert engine.fallback_reasons.get("link_fault", 0) > 0
        # Some sends went scalar during the burst, but the run as a whole
        # stays mostly on the fast path.
        assert 0.0 < engine.coverage() < 1.0
        assert engine.coverage() >= 0.5

    def test_node_down_fallback_counted(self):
        # A ToR outage is global — the engine must leave the lanes.
        def script(cluster, client):
            ev = cluster.sim.events
            tor = cluster.plan.tor_id
            ev.schedule_at(0.010, cluster.sim.set_node_down, tor, True)
            ev.schedule_at(0.025, cluster.sim.set_node_down, tor, False)

        engine = self._run_engine(tiny(duration=0.04), script)
        assert engine.fallback_reasons.get("node_down", 0) > 0

    def test_server_crash_absorbed_in_lane(self):
        # A crashed storage server does NOT force scalar mode: its lane
        # entries become per-entry drops while other owners stay batched.
        def script(cluster, client):
            sid = cluster.plan.server_ids[0]
            ev = cluster.sim.events
            ev.schedule_at(0.010, cluster.crash_server, sid)
            ev.schedule_at(0.025, cluster.restart_server, sid)

        engine = self._run_engine(tiny(duration=0.04), script)
        assert engine.fallback_reasons == {}
        assert engine.coverage() == 1.0

    def test_observer_fallback_mirrored_to_obs_counter(self):
        from repro.obs import runtime as obs_runtime

        with obs_runtime.session() as obs:
            engine = self._run_engine(tiny(duration=0.01))
            assert engine.fallback_reasons.get("observer", 0) > 0
            assert engine.coverage() == 0.0
            mirrored = obs.registry.counter("fastpath.fallback.observer")
            assert mirrored.value == engine.fallback_reasons["observer"]

    def _run_observed(self, cfg, **session_kwargs):
        cluster, client, workload = build_rack(cfg)
        runner = SimCoreRunner(cluster, client, workload,
                               trace=DeliveryTrace())
        with obs.session(clock=obs.sim_clock(cluster.sim),
                         **session_kwargs) as o:
            runner.run(cfg.duration)
        return runner.engine, client, o

    def test_sim_clocked_session_stays_on_lanes(self):
        engine, client, o = self._run_observed(tiny())
        assert engine.coverage() == 1.0
        assert engine.fallback_reasons == {}
        assert not [n for n in o.registry.names()
                    if n.startswith("fastpath.")]
        # And the lanes did emit: one latency per reply, and the read
        # batches' host time as the dataplane spans' wall time.
        assert o.client_latency.count == client.received > 0
        assert o.tracer.wall_totals()["dataplane.process"]["total"] > 0

    def test_session_keeping_events_falls_back(self):
        # Span events carry per-packet start/end times in time order,
        # which only the scalar loop produces.
        engine, _, o = self._run_observed(tiny(duration=0.01),
                                          keep_events=True)
        assert engine.fallback_reasons.get("observer", 0) > 0
        assert engine.coverage() == 0.0
        assert o.tracer.events


def observed_grid():
    """Racks of the observed differential: every lane the engine emits
    metrics from, under both write paths and all three layouts."""
    return {
        "read_only": tiny(),
        "mixed_5pct_writes": tiny(write_ratio=0.05, seed=5),
        "two_clients_retries": tiny(write_ratio=0.05, num_clients=2,
                                    client_rates=(1.2e5, 8e4),
                                    retries=True, seed=6),
        "setassoc": tiny(layout="setassoc"),
        "orbit": tiny(layout="orbit", value_size=96, num_value_stages=2),
        # Crosses the 1 s statistics epoch (controller reset round).
        "epoch_crossing": tiny(write_ratio=0.05, rate=2e4, duration=1.2),
    }


class TestObservedDifferential:
    """Lanes+obs vs scalar+obs, both in a sim-clocked session: every
    ``obs.*`` field (registry metrics, span aggregates, and the hash of
    the JSON-lines export) must match exactly."""

    @pytest.mark.parametrize("name", sorted(observed_grid()))
    def test_observed_byte_identical(self, name):
        cfg = observed_grid()[name]
        scalar = run_scalar(cfg, observed=True)
        lanes = run_batched(cfg, observed=True)
        assert lanes["fastpath.coverage"] == 1.0
        assert lanes["fastpath.fallbacks"] == {}
        assert diff_snapshots(scalar, lanes) == []
        # The session saw the whole run.
        assert scalar["obs.net.delivered"] == scalar["sim.delivered"]
        assert scalar["obs.tracer.dataplane.process.count"] == \
            scalar["switch.processed"]

    def test_server_crash_observed_byte_identical(self):
        # A crashed server does not dirty the rack: its drops happen in
        # the lanes, and net.dropped must count them as the scalar loop's
        # node drops do — retransmissions included.
        cfg = tiny(duration=0.04, retries=True, write_ratio=0.05, seed=8)

        def script(cluster, client):
            sid = cluster.plan.server_ids[0]
            ev = cluster.sim.events
            ev.schedule_at(0.010, cluster.crash_server, sid)
            ev.schedule_at(0.025, cluster.restart_server, sid)

        scalar = run_with_script(cfg, script, batched=False, observed=True)
        lanes = run_with_script(cfg, script, batched=True, observed=True)
        assert lanes["fastpath.fallbacks"] == {}
        assert scalar["obs.net.dropped"] > 0
        assert scalar["obs.client.retries"] > 0
        assert diff_snapshots(scalar, lanes) == []

    def test_cache_update_rtt_is_lane_timed(self):
        # The shim stamps a cache update's start from the session clock.
        # Inside a lanes write completion that clock must read the
        # write's lane time, not the time the lanes are flushed at (which
        # once made round trips look milliseconds long).
        cfg = tiny(write_ratio=0.05, seed=5)
        scalar = run_scalar(cfg, observed=True)
        lanes = run_batched(cfg, observed=True)
        assert scalar["obs.shim.cache_update.rtt.count"] > 0
        for field in ("count", "sum", "min", "max", "counts"):
            key = f"obs.shim.cache_update.rtt.{field}"
            assert lanes[key] == scalar[key], key

    def test_two_client_latency_sum_in_delivery_order(self):
        # Two clients' replies interleave; the latency histogram's float
        # sum must be folded in merged delivery order, not client by
        # client (which differs in the last bits).
        cfg = tiny(num_clients=2, client_rates=(1.2e5, 8e4), seed=1)
        scalar = run_scalar(cfg, observed=True)
        lanes = run_batched(cfg, observed=True)
        assert lanes["obs.client.request.sum"] == \
            scalar["obs.client.request.sum"]
        assert diff_snapshots(scalar, lanes) == []


@pytest.mark.slow
def test_million_packet_observed_run_matches_scalar():
    cfg = SimCoreConfig(duration=1.0)
    assert cfg.packets == 1_000_000
    walls = {True: [], False: []}
    lanes = run_with_script(cfg, None, batched=True, observed=True,
                            timings=walls[True])
    assert lanes["fastpath.coverage"] == 1.0
    assert lanes["fastpath.fallbacks"] == {}
    assert diff_snapshots(run_scalar(cfg, observed=True), lanes) == []
    # Obs overhead on the lanes: best of two alternating runs each.
    for observed in (False, True, False):
        run_with_script(cfg, None, batched=True, observed=observed,
                        timings=walls[observed])
    wall_obs, wall_plain = min(walls[True]), min(walls[False])
    print(f"1M-packet lanes run: {wall_plain:.2f} s plain, "
          f"{wall_obs:.2f} s observed; lanes+obs / lanes = "
          f"{wall_obs / wall_plain:.3f}")
