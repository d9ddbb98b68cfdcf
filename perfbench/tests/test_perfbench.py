"""Tests of the benchmark itself, on reduced sizes of each workload.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from circletransport import harness, transport  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def run_bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "0.1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace, kind):
    done = run_bench(workload, trace)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == wanted
    for name, unit in wanted.items():
        assert any(l.startswith(f"{name} = ") and l.endswith(f" {unit}") for l in lines), name
    assert any(l.startswith("failed_frac = 0 ") for l in lines)
    if trace and workload == "line-1e7":
        assert result["metrics"]["transport.level_measure.calls"]["value"] == 0
    if trace and workload == "row-1e6":
        assert any(l.startswith("per-row layers") for l in lines)
        assert result["metrics"]["harness.run_sweep.parallel_eff"]["value"] > 0
        times = {n: m["value"] for n, m in result["metrics"].items()
                 if n.endswith(".s") and not n.startswith("harness.")}
        assert max(times, key=times.get) == "transport.median_offset.s"


def reference_row(base, N):
    d_line, d_circle, offset_c = checks.load_reference()[(base, N)]
    return harness.MetricsRow(base=base, N=N, n=0, d_line=d_line, d_circle=d_circle,
                              offset_c=offset_c, scaled_line=0.0, scaled_circle_sqrt=0.0,
                              scaled_circle_linear=0.0, wall_time_seconds=0.0)


def log_passes(*rows, reference=None):
    log = checks.RowLog()
    for row in rows:
        p = workloads.Pass()
        p.rows.append((row.base, row.N, workloads.BOTH, row, 0.0, None))
        log.add_pass(p, 1)
    log.check_rows(checks.load_reference() if reference is None else reference,
                   with_oracle=False)
    return log


@pytest.mark.parametrize("base,N", [(10, 10 ** 6), (2, 1000)])
def test_perturbed_d_circle_counts_as_failed(base, N):
    row = reference_row(base, N)
    log = log_passes(row)
    assert (log.attempted, log.failed) == (1, 0)
    log = log_passes(dataclasses.replace(row, d_circle=row.d_circle + 1e-9))
    assert (log.attempted, log.failed) == (1, 1) and "d_circle" in log.problems[0]


def test_row_differing_between_passes_counts_as_failed():
    row = reference_row(10, 1000)
    later = dataclasses.replace(row, offset_c=row.offset_c * (1 + 2 ** -52))
    log = log_passes(row, later, reference={})
    assert (log.attempted, log.failed) == (2, 1) and "earlier pass" in log.problems[0]


def test_tracer_restores_the_rebound_names():
    original = transport.median_offset
    before = [getattr(mod, attr) for mod, attr, *_ in tracing.TARGETS]
    tracer = tracing.Tracer()
    with tracer.installed():
        assert transport.median_offset is not original
        harness.compute_metrics(10, 1000)
    assert [getattr(mod, attr) for mod, attr, *_ in tracing.TARGETS] == before
    assert {span[0] for span in tracer.spans.values()} == {
        name for _, _, name, *_ in tracing.TARGETS} - {"harness.verify", "harness.run_sweep"}


def test_default_seed_keeps_the_baseline_points():
    assert workloads.big_row("row-1e6", 7)[:2] == (10, 10 ** 6)
    assert workloads.big_row("line-1e7", workloads.DEFAULT_SEED)[:2] == (2, 10 ** 7)
    shifted = workloads.big_row("line-1e7", 7)[1]
    assert 10 ** 7 * workloads.BIG_SHIFT + 1 >= abs(shifted - 10 ** 7) > 0
    assert workloads.small_rows(1) != workloads.small_rows(2)
    assert workloads.small_rows(3)[:20] == workloads.small_rows(3, tiny=True)


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = run_bench("small-rows", 0, cwd=str(tmp_path))
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
