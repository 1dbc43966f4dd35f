"""Tests for the perf harness and its CLI regression gate.

Three claims from the issue are nailed down here: (1) a seeded perf
scenario replays byte-identically modulo wall-clock fields, (2) the
``--compare`` gate passes against an honest baseline, and (3) sabotaging
the baseline's throughput or tail latency makes the CLI exit non-zero
with a readable diff — while a structurally broken snapshot is rejected
up front with exit code 2.
"""

import copy
import json

import pytest

from repro.errors import ConfigurationError
from repro.obs.export import parse_jsonl
from repro.tools import perf
from repro.tools.cli import main

#: short smoke runs keep the whole module in CI-smoke territory.
RUN = ["perf", "--scenario", "smoke", "--duration", "0.1"]


@pytest.fixture(scope="module")
def snapshot_file(tmp_path_factory):
    """One honest smoke snapshot, shared by the compare tests."""
    path = tmp_path_factory.mktemp("perf") / "BENCH_smoke.json"
    assert main(RUN + ["--out", str(path)]) == 0
    return path


def _load(path):
    return json.loads(path.read_text())


def _corrupt(snapshot_file, tmp_path, mutate):
    bad = copy.deepcopy(_load(snapshot_file))
    mutate(bad)
    path = tmp_path / "corrupt.json"
    path.write_text(json.dumps(bad))
    return path


# -- determinism --------------------------------------------------------------------


def test_seeded_scenario_replays_identically():
    first = perf.run_scenario("smoke", seed=0, duration=0.1)
    second = perf.run_scenario("smoke", seed=0, duration=0.1)
    a = perf.strip_volatile(first)
    b = perf.strip_volatile(second)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    # The wall section exists but is excluded — it is the only volatility.
    assert "wall" in first and "wall" not in a


def test_different_seed_changes_results():
    base = perf.strip_volatile(perf.run_scenario("smoke", seed=0,
                                                 duration=0.1))
    other = perf.strip_volatile(perf.run_scenario("smoke", seed=1,
                                                  duration=0.1))
    assert json.dumps(base, sort_keys=True) != \
        json.dumps(other, sort_keys=True)


# -- the CLI happy path -------------------------------------------------------------


def test_snapshot_file_is_well_formed(snapshot_file):
    snap = _load(snapshot_file)
    assert perf.validate_snapshot(snap) == []
    results = snap["results"]
    assert results["throughput_qps"] > 0
    assert 0 < results["cache_hit_ratio"] <= 1
    assert results["latency"]["client.request"]["p99"] > 0
    assert "dataplane.process" in results["components"]
    # Sim-clocked spans have zero sim-time extent, so a component keeps
    # only its counts.
    for name, agg in results["components"].items():
        assert sorted(agg) == ["count", "errors"], name


def test_self_compare_passes(snapshot_file, capsys):
    assert main(RUN + ["--compare", str(snapshot_file)]) == 0
    assert "no regressions" in capsys.readouterr().out


def test_metrics_out_is_parseable_jsonl(tmp_path):
    path = tmp_path / "metrics.jsonl"
    assert main(RUN + ["--metrics-out", str(path)]) == 0
    records = parse_jsonl(path.read_text())
    assert "client.request" in records
    assert any(name.startswith("span.") for name in records)


def test_list_scenarios(capsys):
    assert main(["perf", "--list"]) == 0
    out = capsys.readouterr().out
    for name in perf.SCENARIOS:
        assert name in out


# -- sabotage: the gate must catch doctored baselines -------------------------------


def test_corrupted_throughput_fails_compare(snapshot_file, tmp_path, capsys):
    def triple_throughput(s):
        s["results"]["throughput_qps"] *= 3

    bad = _corrupt(snapshot_file, tmp_path, triple_throughput)
    assert main(RUN + ["--compare", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "REGRESSION" in out
    assert "results.throughput_qps" in out
    assert "worse than" in out


def test_corrupted_p99_fails_compare(snapshot_file, tmp_path, capsys):
    def shrink_p99(s):
        s["results"]["latency"]["client.request"]["p99"] /= 10

    bad = _corrupt(snapshot_file, tmp_path, shrink_p99)
    assert main(RUN + ["--compare", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "REGRESSION" in out
    assert "results.latency.client.request.p99" in out


def test_loose_threshold_tolerates_small_drift(snapshot_file, tmp_path):
    def nudge(s):
        s["results"]["throughput_qps"] *= 1.05  # 5% above this run

    bad = _corrupt(snapshot_file, tmp_path, nudge)
    assert main(RUN + ["--compare", str(bad), "--threshold", "0.2"]) == 0


# -- malformed input: exit 2, not 1 -------------------------------------------------


def test_malformed_snapshot_rejected(snapshot_file, tmp_path, capsys):
    def drop_results(s):
        del s["results"]

    bad = _corrupt(snapshot_file, tmp_path, drop_results)
    assert main(RUN + ["--compare", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "malformed snapshot" in err
    assert "results" in err


def test_unparseable_snapshot_rejected(tmp_path, capsys):
    bad = tmp_path / "garbage.json"
    bad.write_text("{not json")
    assert main(RUN + ["--compare", str(bad)]) == 2
    assert "cannot read snapshot" in capsys.readouterr().err


def test_missing_snapshot_rejected(tmp_path, capsys):
    assert main(RUN + ["--compare", str(tmp_path / "nope.json")]) == 2
    assert "cannot read snapshot" in capsys.readouterr().err


# -- library-level units ------------------------------------------------------------


def test_unknown_scenario_raises():
    with pytest.raises(ConfigurationError):
        perf.run_scenario("nope")


def test_compare_rejects_scenario_mismatch(snapshot_file):
    snap = _load(snapshot_file)
    other = copy.deepcopy(snap)
    other["scenario"] = "zipf99"
    diffs = perf.compare_snapshots(other, snap)
    assert diffs and "scenario mismatch" in diffs[0]


def test_compare_threshold_is_exact_boundary(snapshot_file):
    snap = _load(snapshot_file)
    worse = copy.deepcopy(snap)
    # Exactly at the threshold passes; just past it fails.
    worse["results"]["throughput_qps"] = \
        snap["results"]["throughput_qps"] * (1 - perf.DEFAULT_THRESHOLD)
    assert perf.compare_snapshots(snap, worse) == []
    worse["results"]["throughput_qps"] *= 0.98
    assert perf.compare_snapshots(snap, worse) != []


def test_metrics_out_refusal_names_the_accepting_kinds():
    with pytest.raises(ConfigurationError) as exc:
        perf.run_scenario("simcore", metrics_out="x.jsonl")
    message = str(exc.value)
    assert "cluster" in message and "tournament" in message


def test_snapshot_kind_is_checked(snapshot_file):
    """An unknown kind is named; a missing kind still means cluster, so
    baselines written before the field existed stay valid."""
    snap = _load(snapshot_file)
    snap["config"]["kind"] = "warp"
    assert perf.validate_snapshot(snap) == ["unknown scenario kind 'warp'"]
    del snap["config"]["kind"]
    assert perf.validate_snapshot(snap) == []


def test_validate_snapshot_reports_each_problem():
    problems = perf.validate_snapshot({"schema": 99})
    assert any("schema" in p for p in problems)
    assert any("results" in p for p in problems)
    assert perf.validate_snapshot([1, 2]) == ["snapshot is not a JSON object"]
