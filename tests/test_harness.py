import math
import os
from pathlib import Path

import numpy as np
import pytest

from circletransport import (
    MetricsRow,
    SweepConfig,
    compute_metrics,
    decade_grid,
    fit_rate,
    line_rate_limit,
    read_csv,
    run_sweep,
    verify,
    write_csv,
)
from circletransport.harness import _decade_medians, _phase_classes

LN2 = math.log(2)


class TestComputeMetrics:
    def test_double_atom_row(self):
        row = compute_metrics(2, 2)
        assert row.n == 2
        assert row.d_line == pytest.approx(2 - 1 / LN2, abs=1e-15)
        assert row.d_circle == pytest.approx((3 - 2 * math.sqrt(2)) / LN2, abs=1e-12)
        assert row.offset_c == pytest.approx(2 - math.sqrt(2), abs=1e-12)

    def test_scaled_fields_arithmetic(self):
        row = compute_metrics(10, 1234)
        ln = math.log(1234)
        assert row.scaled_line == row.N * row.d_line / ln
        assert row.scaled_circle_sqrt == row.N * row.d_circle / math.sqrt(ln)
        assert row.scaled_circle_linear == row.N * row.d_circle

    def test_domination_per_row(self):
        for N in (17, 230, 4567):
            row = compute_metrics(10, N)
            assert 0.0 <= row.d_circle <= row.d_line
            assert row.d_circle <= 0.5

    def test_metric_subset(self):
        row = compute_metrics(10, 100, metrics=("line",))
        assert math.isnan(row.d_circle) and not math.isnan(row.d_line)

    @pytest.mark.parametrize("metrics", [(), ("circel",), ("line", "arc"), "line"])
    def test_rejects_unknown_or_no_metrics(self, metrics):
        with pytest.raises(ValueError, match="'line', 'circle'"):
            compute_metrics(10, 1000, metrics)

    def test_rejects_count_below_base(self):
        with pytest.raises(ValueError):
            compute_metrics(10, 9)

    def test_rejects_overflowing_count(self):
        with pytest.raises(ValueError, match="supported"):
            compute_metrics(2, 2 ** 62)


class TestDecadeGrid:
    def test_single_point_per_decade(self):
        assert decade_grid(100, 1000, 1) == [100, 1000]

    def test_four_points_per_decade(self):
        grid = decade_grid(1000, 10000, 4)
        assert grid == [1000, 1778, 3162, 5623, 10000]

    def test_deduplicates_rounded_values(self):
        grid = decade_grid(10, 20, 16)
        assert grid == sorted(set(grid))

    def test_clipping(self):
        assert all(150 <= N <= 800 for N in decade_grid(150, 800, 4))


class TestFitRate:
    def synth_rows(self, values_by_n):
        return [MetricsRow(base=10, N=N, n=len(str(N)), d_line=0.0, d_circle=0.0,
                           offset_c=0.0, scaled_line=v, scaled_circle_sqrt=v,
                           scaled_circle_linear=0.0, wall_time_seconds=0.0)
                for N, v in values_by_n.items()]

    def test_exact_linear_recovery(self):
        rows = self.synth_rows({N: 0.2 + 3.0 / math.log(N) for N in (10, 100, 1000, 10 ** 6)})
        fit = fit_rate(rows, "scaled_line")
        assert fit.intercept == pytest.approx(0.2, abs=1e-12)
        assert fit.slope == pytest.approx(3.0, abs=1e-12)
        assert fit.residual_max <= 1e-12

    def test_constant_rows(self):
        rows = self.synth_rows({N: 0.5 for N in (10, 100, 1000)})
        fit = fit_rate(rows, "scaled_line")
        assert fit.intercept == pytest.approx(0.5, abs=1e-12)
        assert fit.slope == pytest.approx(0.0, abs=1e-12)

    def test_needs_three_distinct_rows(self):
        rows = self.synth_rows({10: 1.0, 100: 2.0})
        with pytest.raises(ValueError):
            fit_rate(rows, "scaled_line")
        with pytest.raises(ValueError):
            fit_rate(rows * 3, "scaled_line")

    def test_rejects_unknown_column(self):
        rows = self.synth_rows({10: 1.0, 100: 2.0, 1000: 3.0})
        with pytest.raises(ValueError):
            fit_rate(rows, "d_line")


class TestSweep:
    CFG = dict(base=10, n_min=100, n_max=3000, points_per_decade=2)

    def test_rows_ascending_and_complete(self, tmp_path):
        cfg = SweepConfig(**self.CFG, out=str(tmp_path / "s.csv"))
        rows = run_sweep(cfg)
        assert [r.N for r in rows] == decade_grid(100, 3000, 2)
        assert os.path.exists(cfg.out)

    def test_csv_round_trip_bit_exact(self, tmp_path):
        out = str(tmp_path / "rt.csv")
        rows = run_sweep(SweepConfig(**self.CFG, out=out))
        back = read_csv(out)
        assert back == rows

    def test_csv_format(self, tmp_path):
        out = str(tmp_path / "fmt.csv")
        run_sweep(SweepConfig(**self.CFG, out=out))
        raw = Path(out).read_bytes()
        assert b"\r" not in raw
        header = raw.decode().splitlines()[0]
        assert header == ("base,N,n,d_line,d_circle,offset_c,scaled_line,"
                          "scaled_circle_sqrt,scaled_circle_linear,wall_time_seconds")

    @pytest.mark.parametrize("edit", [lambda f: f[:-1], lambda f: f + ["0"]], ids=["short", "long"])
    def test_csv_row_with_a_wrong_field_count_is_rejected(self, tmp_path, edit):
        out = tmp_path / "bad.csv"
        write_csv([compute_metrics(10, 100)], str(out))
        header, row = out.read_text().splitlines()
        out.write_text(header + "\n" + ",".join(edit(row.split(","))) + "\n")
        with pytest.raises(ValueError):
            read_csv(str(out))

    def test_determinism_excluding_wall_time(self, tmp_path):
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        run_sweep(SweepConfig(**self.CFG, out=a))
        run_sweep(SweepConfig(**self.CFG, out=b))
        strip = lambda p: [line.rsplit(",", 1)[0] for line in Path(p).read_text().splitlines()]
        assert strip(a) == strip(b)

    def test_parallel_matches_serial(self):
        serial = run_sweep(SweepConfig(**self.CFG, threads=1))
        parallel = run_sweep(SweepConfig(**self.CFG, threads=4))
        assert [(r.N, r.d_line, r.d_circle) for r in serial] == \
               [(r.N, r.d_line, r.d_circle) for r in parallel]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SweepConfig(base=10, n_min=5, n_max=100)  # below base
        with pytest.raises(ValueError):
            SweepConfig(base=10, n_min=200, n_max=100)
        with pytest.raises(ValueError):
            SweepConfig(base=10, points_per_decade=0)
        with pytest.raises(ValueError):
            SweepConfig(base=10, threads=0)


class TestPhaseClasses:
    def test_decimal_grid_has_four_classes(self):
        rows = run_sweep(SweepConfig(base=10, n_min=1000, n_max=10 ** 5,
                                     points_per_decade=4))
        classes = _phase_classes(rows)
        assert sorted(len(c) for c in classes) == [2, 2, 2, 3]
        powers = next(c for c in classes if len(c) == 3)
        assert [r.N for r in powers] == [1000, 10000, 100000]

    def test_decade_medians_windows(self):
        rows = [MetricsRow(10, N, 4, 0, 0, 0, float(N), 0, 0, 0)
                for N in (1000, 2000, 5000, 10000, 20000, 50000)]
        med = _decade_medians(rows, lambda r: r.scaled_line)
        assert [k for k, _ in med] == [3, 4]


class TestVerify:
    def test_insufficient_range(self):
        report = verify(SweepConfig(base=10, n_min=100, n_max=900))
        assert report.exit_code == 2
        assert any("insufficient range" in line for line in report.lines)

    def test_small_grid_passes(self):
        report = verify(SweepConfig(base=10, n_min=1000, n_max=10 ** 5,
                                    points_per_decade=4, threads=2))
        assert report.exit_code == 0, "\n".join(report.lines)
        names = [name for _, name, _ in report.checks]
        assert "line-sharp-rate" in names and "circle-beats-line" in names
        statuses = {name: status for status, name, _ in report.checks}
        assert statuses["line-sharp-rate"] == "PASS"
        assert statuses["domination"] == "PASS"

    def test_narrow_grid_without_phase_class(self):
        report = verify(SweepConfig(base=10, n_min=1000, n_max=9000,
                                    points_per_decade=4))
        assert report.exit_code == 2
