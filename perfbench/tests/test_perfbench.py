"""The rack benchmark's own tests: smoke runs, sabotage, metric names.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402

#: shrinks every simulated duration so a smoke run takes about a second.
SCALE = 0.05
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _check_against_spec(result, section):
    spec = SPEC[section]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_workloads_match_spec():
    assert sorted(run.WORKLOADS) == sorted(w["name"]
                                           for w in SPEC["workloads"])


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_smoke_end_to_end(name):
    result, lines = run.run_benchmark(name, seed=3, seconds=0, trace=False,
                                      scale=SCALE)
    assert result["correct"], "\n".join(lines)
    assert result["attempted"] > 0 and result["failed"] == 0
    _check_against_spec(result, "end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_smoke_traced(name):
    result, lines = run.run_benchmark(name, seed=3, seconds=0, trace=True,
                                      scale=SCALE)
    assert result["correct"], "\n".join(lines)
    _check_against_spec(result, "per_layer")


def test_read_paper_kernels_lead_the_ledger():
    """classify and store get are the two largest layers under the lanes
    engine on read_paper, as the ROADMAP's split says."""
    # Several traced passes, so one slow moment cannot reorder the layers.
    result, lines = run.run_benchmark("read_paper", seed=3, seconds=10,
                                      trace=True)
    assert result["correct"], "\n".join(lines)
    metrics = result["metrics"]
    children = {k: v["value"] for k, v in metrics.items()
                if v["unit"] == "s" and k not in
                ("fastpath.self_s", "run_s", "run_cpu_s")}
    top = sorted(children, key=children.get, reverse=True)[:2]
    assert sorted(top) == ["geometry.classify_s", "store.get_s"], children


SABOTAGE = """
import sys
sys.path[:0] = [{bench!r}, {src!r}]
import numpy as np
import run
from repro.core.switch import NetCacheSwitch

real = NetCacheSwitch.process_read_batch
flipped = []  # switches that already served their one wrong miss


def flip_one_hit(self, keys):
    res = real(self, keys)
    hits = np.flatnonzero(res.hit_mask)
    if len(hits) and not any(sw is self for sw in flipped):
        res.hit_mask[hits[0]] = False  # serve one cache hit as a miss
        flipped.append(self)
    return res


NetCacheSwitch.process_read_batch = flip_one_hit
sys.exit(run.main(sys.argv[1:], scale={scale}))
"""


def test_sabotaged_lanes_run_fails_the_command():
    code = SABOTAGE.format(bench=str(BENCH), src=str(ROOT / "src"),
                           scale=SCALE)
    proc = subprocess.run(
        [sys.executable, "-c", code, "--workload", "read_paper",
         "--seed", "3", "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == result["attempted"]
    assert result["metrics"]["success_rate"]["value"] == 0.0
    # Every lanes run is sabotaged alike, so passes agree with each other;
    # the conservation identities and the scalar replay catch it.
    assert "switch hits" in proc.stdout
    assert "scalar vs lanes prefix" in proc.stdout


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "read_paper",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
