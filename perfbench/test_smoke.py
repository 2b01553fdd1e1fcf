"""Smoke tests of the benchmark at toy sizes.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import dataclasses
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run as bench  # noqa: E402
from speed import NOMINAL_REF_S, Stopwatch  # noqa: E402
from tracer import TARGETS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# 8x8 KH, 8x8 TG and the kh_micro.ini-sized pipeline.  The paper-scale
# bounds of the TG error and the skew/emac ratio do not hold on 8x8 meshes,
# so they are relaxed here; the checks themselves still run.
TOY = {
    "kh32_fom": dataclasses.replace(WORKLOADS["kh32_fom"], n=8),
    "tg48_bdf2_fom": dataclasses.replace(WORKLOADS["tg48_bdf2_fom"], n=8, h1_rel_tol=0.5),
    "kh16_rom_pipeline": dataclasses.replace(WORKLOADS["kh16_rom_pipeline"], n=8, dt=0.05,
                                             fom_steps=5, r_values=(2, 3),
                                             consistency_ratio=10.0),
}


def _printed_result(workload, trace, seed=0):
    detail, result = bench.run(workload, seed, 0.0, trace)
    stream = io.StringIO()
    bench.emit(detail, result, stream)
    lines = stream.getvalue().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def test_toy_workloads_cover_every_benchmark_workload():
    assert sorted(TOY) == sorted(w["name"] for w in SPEC["workloads"]) == sorted(WORKLOADS)


@pytest.mark.parametrize("name", sorted(TOY))
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_printed_with_its_unit(name, trace, section):
    detail, result = _printed_result(TOY[name], trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in SPEC[section]}
    if section == "end_to_end":
        assert all(v["value"] > 0 for v in result["metrics"].values())
    assert detail["provenance"]["seed"] == 0 and detail["fail_ratio"] == 0.0


def test_failed_output_check_raises_fail_ratio():
    broken = dataclasses.replace(TOY["kh32_fom"], energy_growth_tol=-1.0)
    detail, result = _printed_result(broken, 0)
    assert not result["correct"]
    assert result["failed"] == 1
    assert detail["fail_ratio"] == pytest.approx(1 / result["attempted"])
    assert [c["name"] for c in detail["checks"] if not c["ok"]] == ["energy_growth_per_step"]


def test_counts_repeat_for_the_same_seed():
    counts = ("numerics.factorize_calls", "numerics.lu_fill_nnz", "fom.newton_iters_per_step",
              "rom.tensor_entries", "rom.newton_iters", "io.bytes_written")
    runs = [_printed_result(TOY["kh16_rom_pipeline"], 1, seed=5)[1]["metrics"] for _ in range(2)]
    assert all(runs[0][c]["value"] > 0 for c in counts)
    assert {c: runs[0][c] for c in counts} == {c: runs[1][c] for c in counts}


def test_stopwatch_scales_each_piece_by_the_kernel_runs_around_it():
    clock = Stopwatch()
    clock.refs = [(0.0, 0.1), (1.1, 1.15), (2.15, 2.2)]
    span = (0.5, 2.0)
    # pieces [0.5, 1.1] between runs of 0.1 s and 0.05 s, [1.15, 2.0] between two of 0.05 s
    assert clock.raw(span) == pytest.approx(0.6 + 0.85)
    assert clock.scaled(span) == pytest.approx((0.6 / 0.075 + 0.85 / 0.05) * NOMINAL_REF_S)
    assert clock.scaled((2.3, 2.4)) == pytest.approx(0.1 / 0.05 * NOMINAL_REF_S)


def test_missing_target_is_reported_not_zero():
    targets = TARGETS + [("flowrom.numerics", "no_such_function", "numerics.factorize", None)]
    with Tracer(targets) as tracer:
        pass
    metrics = tracer.layer_metrics()
    assert tracer.missing == [("flowrom.numerics.no_such_function", "numerics.factorize")]
    for name in ("numerics.factorize_calls", "numerics.factorize_s", "numerics.lu_fill_nnz",
                 "numerics.lu_solve_s", "fom.factorizations_per_step"):
        assert name not in metrics
    assert "fem.jacobian_calls" in metrics


def test_tracer_restores_the_library():
    import flowrom.fom
    import flowrom.numerics

    before = (flowrom.fom.factorize, flowrom.numerics.factorize, flowrom.fom.advance_step)
    with Tracer():
        assert flowrom.fom.factorize is flowrom.numerics.factorize is not before[0]
    assert (flowrom.fom.factorize, flowrom.numerics.factorize, flowrom.fom.advance_step) == before


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "kh32_fom", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
