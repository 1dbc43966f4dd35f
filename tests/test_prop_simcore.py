"""Property-based differential replay: scalar loop vs lanes engine.

Hypothesis drives random small racks (topology, workload mix, faults) and
asserts the batched fast path reproduces the scalar event loop's counters
*byte-identically* — delivery/loss/drop totals, per-key hit counters,
per-server and per-link accounting, and the order-sensitive delivery-trace
digest.  Any divergence the hand-picked scenarios in ``test_simcore.py``
miss should shrink to a small reproducer here.
"""

import dataclasses

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.sim.simcore import (
    SimCoreConfig,
    SimCoreRunner,
    build_rack,
    counters_snapshot,
    diff_snapshots,
)
from repro.net.trace import DeliveryTrace

DURATION = 0.03


@dataclasses.dataclass(frozen=True)
class FaultPlan:
    """A structurally valid fault script (times are fractions of the run)."""

    flap_server: bool      # crash at 0.2, restart at 0.6
    victim: int            # index into server_ids (modulo num_servers)
    loss_burst: bool       # client link, 0.3 -> 0.55
    burst_prob: float
    dup_window: bool       # one server link, 0.4 -> 0.7
    dup_prob: float

    def apply(self, cluster, client):
        ev = cluster.sim.events
        d = DURATION
        ids = cluster.plan.server_ids
        if self.flap_server:
            sid = ids[self.victim % len(ids)]
            ev.schedule_at(0.2 * d, cluster.crash_server, sid)
            ev.schedule_at(0.6 * d, cluster.restart_server, sid)
        if self.loss_burst:
            link = cluster.link_to(client.node_id)
            ev.schedule_at(0.3 * d, link.start_loss_burst,
                           self.burst_prob, 0.55 * d)
        if self.dup_window:
            link = cluster.link_to(ids[(self.victim + 1) % len(ids)])
            ev.schedule_at(0.4 * d, link.set_duplication, self.dup_prob)
            ev.schedule_at(0.7 * d, link.set_duplication, 0.0)


configs = st.builds(
    SimCoreConfig,
    num_servers=st.integers(2, 5),
    num_keys=st.sampled_from([100, 250, 400]),
    cache_items=st.sampled_from([8, 16, 32]),
    lookup_entries=st.just(128),
    write_ratio=st.sampled_from([0.0, 0.1, 0.3]),
    rate=st.sampled_from([5e4, 1e5, 2e5]),
    duration=st.just(DURATION),
    warm=st.booleans(),
    hot_threshold=st.sampled_from([4, 8]),
    retries=st.booleans(),
    seed=st.integers(0, 2**16),
)


@st.composite
def multi_client_configs(draw):
    """Random client counts and per-client rates for the k-way merge."""
    base = draw(configs)
    k = draw(st.integers(1, 3))
    rates = tuple(draw(st.sampled_from([3e4, 5e4, 1e5])) for _ in range(k))
    return dataclasses.replace(base, num_clients=k, client_rates=rates)

plans = st.builds(
    FaultPlan,
    flap_server=st.booleans(),
    victim=st.integers(0, 4),
    loss_burst=st.booleans(),
    burst_prob=st.sampled_from([0.2, 0.5]),
    dup_window=st.booleans(),
    dup_prob=st.sampled_from([0.2, 0.4]),
)


def run_path(config, plan, batched):
    cluster, client, workload = build_rack(config)
    trace = DeliveryTrace()
    if not batched:
        trace.attach(cluster.sim)
    plan.apply(cluster, client)
    if batched:
        runner = SimCoreRunner(cluster, client, workload, trace=trace)
        runner.run(config.duration)
        return counters_snapshot(cluster, client, trace,
                                 engine=runner.engine)
    cluster.sim.run_until(cluster.sim.now + config.duration)
    return counters_snapshot(cluster, client, trace)


@given(config=configs, plan=plans)
@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_batched_replays_scalar_exactly(config, plan):
    scalar = run_path(config, plan, batched=False)
    batched = run_path(config, plan, batched=True)
    assert diff_snapshots(scalar, batched) == []


# An exact-time tie between a lane entry and an event: a retransmission
# (event path) and a fresh lane request complete on two servers at the
# same float time, so both replies reach the same client at 0.0187082 s.
# The scalar heap delivers the lane one first (it was scheduled first).
_LANE_EVENT_TIE = (
    SimCoreConfig(num_servers=2, num_keys=250, cache_items=8,
                  lookup_entries=128, write_ratio=0.0, rate=5e4,
                  duration=DURATION, warm=False, hot_threshold=4,
                  retries=True, seed=30549, num_clients=3,
                  client_rates=(1e5, 1e5, 1e5)),
    FaultPlan(flap_server=True, victim=0, loss_burst=False, burst_prob=0.2,
              dup_window=False, dup_prob=0.2),
)


@given(config=multi_client_configs(), plan=plans)
@example(*_LANE_EVENT_TIE)
@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_kway_merge_replays_scalar_exactly(config, plan):
    """The vectorized k-way merge of analytic send streams interleaves
    exactly like k independent scalar clients racing on the event heap —
    per-client counters, per-link accounting, and the order-sensitive
    trace digest all byte-identical, faults and retries included."""
    scalar = run_path(config, plan, batched=False)
    batched = run_path(config, plan, batched=True)
    assert diff_snapshots(scalar, batched) == []
