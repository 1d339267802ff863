"""Tests of the benchmark itself.

Run from the repository root (the file name keeps it out of the program's
own test collection, since each traced run takes several seconds):

    python3 -m pytest perfbench/selftest.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

#: per-layer metrics that must be nonzero on each workload, from the layers
#: each workload is meant to exercise
EXERCISED = {
    "coeffs": (
        "bloch.bloch_series.self_s",
        "bloch.closed_form_coeffs.self_s",
        "bloch.max_discrepancy.self_s",
        "bloch.apply_A.calls",
        "bloch.coeffs_out",
        "spectrum.eigenvalue.calls",
        "cli.parse_s",
        "cli.output_bytes",
        "potential.support_size",
    ),
    "oracle": (
        "lattice.enumerate_ball.calls",
        "lattice.enumerate_ball.points",
        "galerkin.build.self_s",
        "galerkin.triangularity_witness.calls",
        "galerkin.eigenvector_backsolve.self_s",
        "galerkin.interior_cone.self_s",
        "galerkin.matrix_n",
        "galerkin.matrix_bytes",
        "spectrum.eigenvalue.calls",
    ),
    "multiplicity": (
        "spectrum.degeneracy_group.self_s",
        "rootfn.second_plane_solve.self_s",
        "rootfn.oned_double_criterion.self_s",
        "galerkin.rank_probe.self_s",
        "galerkin.rank_probe.n3",
    ),
    "fermi": (
        "lattice.enumerate_ball.calls",
        "isoenergetic.sample_surface.self_s",
        "isoenergetic.grid_points",
        "isoenergetic.retained_frac",
    ),
}

#: per-layer metrics that must be zero where the layer is meant to be absent
ABSENT = {
    "coeffs": ("lattice.enumerate_ball.calls", "galerkin.matrix_n"),
    "oracle": ("galerkin.rank_probe.n3", "bloch.apply_A.calls"),
    "fermi": ("bloch.coeffs_out", "galerkin.matrix_n"),
}


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    argv = [sys.executable, str(cwd / "perfbench" / "run.py"), *args]
    return subprocess.run(argv, capture_output=True, text=True, cwd=cwd, timeout=600)


def traced(workload: str, seed: int) -> dict:
    done = bench("--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", "1")
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first, second = traced(workload, 3), traced(workload, 3)
    assert first["correct"] and second["correct"]
    counts = [n for n, m in first["metrics"].items() if m["unit"] in ("count", "bytes")]
    assert counts
    assert [first["metrics"][n]["value"] for n in counts] == [
        second["metrics"][n]["value"] for n in counts
    ]
    assert first["metrics"]["trace.coverage_frac"]["value"] >= 0.9
    for name in EXERCISED[workload]:
        assert first["metrics"][name]["value"] > 0, name
    for name in ABSENT.get(workload, ()):
        assert first["metrics"][name]["value"] == 0, name


def test_inputs_follow_the_seed():
    for workload in workloads.WORKLOADS:
        configs = [i.config for i in workloads.generate(workload, 5, 2)]
        assert configs == [i.config for i in workloads.generate(workload, 5, 2)]
        assert configs != [i.config for i in workloads.generate(workload, 6, 2)]


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_end_to_end_result_line():
    done = bench("--workload", "multiplicity", "--seed", "2", "--seconds", "1")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [n for n, _ in run.END_TO_END]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = bench("--workload", "coeffs", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
