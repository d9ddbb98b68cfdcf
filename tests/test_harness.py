import math
import os
import sys
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
from circletransport import harness, transport
from circletransport.harness import _classes, _grid
from conftest import affinity, one_cpu_and_all

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

    # calls of the names compute_metrics looks up, which the benchmark's tracer
    # rebinds: (closed_form_cdf, delta_profile, integral_abs) on the harness
    # module and median_offset on the transport module
    @pytest.mark.parametrize("metrics,calls", [
        (("line",), (0, 0, 1, 0)),
        (("line", "circle"), (1, 1, 2, 1)),
        (("circle",), (1, 1, 1, 1)),
    ], ids=["line", "both", "circle"])
    def test_each_row_kind_calls_the_rebound_names(self, metrics, calls, monkeypatch):
        names = ((harness, "closed_form_cdf"), (harness, "delta_profile"),
                 (harness, "integral_abs"), (transport, "median_offset"))
        counts = dict.fromkeys(names, 0)

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in names:
            monkeypatch.setattr(*name, counted(name, getattr(*name)))
        compute_metrics(10, 1000, metrics)
        assert tuple(counts[name] for name in names) == calls

    # the Python functions of numpy a row may enter, by file and name, and why
    NUMPY_PYTHON_ALLOWED = {
        # np.errstate: level_measure's divide and log run masked-off lanes
        # that would warn
        **dict.fromkeys([("_ufunc_config.py", "__init__"), ("_ufunc_config.py", "__enter__"),
                         ("_ufunc_config.py", "__exit__")], "np.errstate"),
        # an np.empty and a copyto: the step pieces' period table and
        # delta_profile's mask of F's bounds
        ("numeric.py", "ones"): "np.ones",
        # the array-function dispatchers of C functions: a stub that returns
        # the arguments, entered once before the C call
        **{("multiarray.py", name): "dispatcher stub" for name in
           ("copyto", "where", "dot", "concatenate", "empty_like")},
    }

    def test_rows_call_no_python_level_numpy_wrapper(self):
        """A small row's cost is its numpy calls, and numpy's Python-level
        wrappers (``np.sum``, ``np.clip``, ``np.insert``, ``np.flatnonzero``,
        ``ndarray.min``, ...) spend 2-14 us each before the C loop they end
        in.  So a row calls ufuncs, ufunc methods and ndarray methods that
        reach C at once; (10, 10**5) narrows its search and sums in blocks."""
        rows = [(10, 1000), (7, 1500), (10, 10 ** 5)]
        for base, N in rows:  # any import a first call makes is done here
            compute_metrics(base, N)
        numpy_dir = os.path.dirname(np.__file__) + os.sep
        entered = set()

        def profile(frame, event, arg):
            code = frame.f_code
            if event == "call" and code.co_filename.startswith(numpy_dir):
                entered.add((os.path.relpath(code.co_filename, numpy_dir), code.co_name))

        saved = sys.getprofile()
        sys.setprofile(profile)
        try:
            for base, N in rows:
                compute_metrics(base, N)
        finally:
            sys.setprofile(saved)
        allowed = {name for name in entered
                   if (os.path.basename(name[0]), name[1]) in self.NUMPY_PYTHON_ALLOWED}
        assert sorted(entered - allowed) == []


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

    def test_rejects_a_circle_column_of_line_only_rows(self):
        rows = [compute_metrics(10, N, ("line",)) for N in (100, 1000, 10000)]
        assert fit_rate(rows, "scaled_line").intercept > 0.0
        with pytest.raises(ValueError, match="finite scaled_circle_sqrt on every row, got nan"):
            fit_rate(rows, "scaled_circle_sqrt")

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_rejects_a_non_finite_value(self, bad):
        rows = self.synth_rows({10: 1.0, 100: bad, 1000: 3.0})
        with pytest.raises(ValueError, match=f"finite scaled_line on every row, got {bad} at N=100"):
            fit_rate(rows, "scaled_line")


class TestSweep:
    CFG = dict(base=10, n_min=100, n_max=3000, points_per_decade=2)

    def test_rows_ascending_and_complete(self, tmp_path):
        cfg = SweepConfig(**self.CFG, out=str(tmp_path / "s.csv"))
        rows = run_sweep(cfg)
        assert [r.N for r in rows] == decade_grid(100, 3000, 2)
        assert os.path.exists(cfg.out)

    def test_rows_of_another_base_are_its_grid(self):
        rows = run_sweep(SweepConfig(base=2, n_min=1000, n_max=4096, points_per_decade=2))
        assert [r.N for r in rows] == [1024, 1448, 2048, 2896, 4096]

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

    @pytest.mark.parametrize("text", ["", "base,N\n", "N,base,n\n"], ids=["empty", "short", "reordered"])
    def test_csv_with_an_unexpected_header_is_rejected(self, tmp_path, text):
        out = tmp_path / "bad.csv"
        out.write_text(text)
        with pytest.raises(ValueError, match="unexpected CSV header"):
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

    # each case only builds the config: run_sweep with threads=nan used to
    # wait forever on a pool that starts no worker
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 2.5, 0, -1])
    @pytest.mark.parametrize("name", ["threads", "points_per_decade", "n_min", "n_max"])
    def test_config_refuses_a_setting_that_is_not_a_positive_integer(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be a positive integer, got "):
            SweepConfig(base=10, **{name: value})

    def test_config_stores_integral_floats_as_ints(self):
        cfg = SweepConfig(base=10.0, n_min=100.0, n_max=1e6, points_per_decade=4.0, threads=2.0)
        names = ("base", "n_min", "n_max", "points_per_decade", "threads")
        assert [type(getattr(cfg, name)) for name in names] == [int] * 5
        assert cfg == SweepConfig(base=10, n_min=100, n_max=10 ** 6, points_per_decade=4, threads=2)

    def test_default_threads_are_the_cpus_the_thread_may_run_on(self):
        # as integral_abs counts them (transport._cpus), not the machine's
        with affinity(one_cpu_and_all()[0]):
            assert SweepConfig(base=10).threads == 1


class TestPhaseClasses:
    def test_decimal_grid_has_four_classes(self):
        classes = _classes(_grid(10, 1000, 10 ** 5, 4), 4)
        assert classes == [[1000, 10000, 100000], [1778, 17783], [3162, 31623], [5623, 56234]]

    @pytest.mark.parametrize("points_per_decade", [20, 40])
    def test_neighbouring_grid_points_never_chain(self, points_per_decade):
        # one class per residue k mod p, however close the phases of neighbours
        classes = _classes(_grid(10, 1000, 10 ** 5, points_per_decade), points_per_decade)
        assert len(classes) == points_per_decade
        assert classes[0] == [1000, 10000, 100000]

    def test_a_base_grid_has_its_powers_in_class_zero(self):
        grid = _grid(7, 300, 10 ** 5, 4)
        assert list(grid) == [343, 558, 907, 1476, 2401, 3905, 6352, 10333, 16807, 27338,
                              44467, 72329]
        assert list(grid.values()) == list(range(12, 24))
        assert _classes(grid, 4)[0] == [7 ** 3, 7 ** 4, 7 ** 5]

    def test_an_n_that_several_k_round_to_keeps_the_least(self):
        # 2^(3/4) = 1.68, 2^(4/4) and 2^(5/4) = 2.38 round to 2; 2^(6/4) and
        # 2^(7/4) = 3.36 to 3
        assert _grid(2, 2, 4, 4) == {2: 3, 3: 6, 4: 8}


class TestVerify:
    def test_insufficient_range(self):
        # n_max below 1000, and a grid with no point at all in [1001, 1005]
        for n_min, n_max in [(100, 900), (1001, 1005)]:
            report = verify(SweepConfig(base=10, n_min=n_min, n_max=n_max))
            assert report.exit_code == 2
            assert any("insufficient range" in line for line in report.lines)

    # every base on its own grid; on the decade grid bases 3 and 16 exited 1,
    # bases 5 and 7 exited 2
    @pytest.mark.parametrize("base,n_max", [(10, 10 ** 5), (3, 10 ** 6), (5, 10 ** 6),
                                            (7, 10 ** 6), (16, 10 ** 6)],
                             ids=["10", "3", "5", "7", "16"])
    def test_small_grid_passes(self, base, n_max):
        report = verify(SweepConfig(base=base, n_min=1000, n_max=n_max,
                                    points_per_decade=4, threads=2))
        assert report.exit_code == 0, "\n".join(report.lines)
        names = [name for _, name, _ in report.checks]
        assert "line-sharp-rate" in names and "circle-beats-line" in names
        statuses = {name: status for status, name, _ in report.checks}
        assert statuses["line-sharp-rate"] == "PASS"
        assert statuses["domination"] == "PASS"

    def test_narrow_grid_without_phase_class(self, monkeypatch):
        # no three N of one class in base 10 up to 9000, nor in base 7 up to
        # 40000 (1.9 periods): refused before any row runs
        calls, real = [], harness.compute_metrics
        monkeypatch.setattr(harness, "compute_metrics",
                            lambda *args: calls.append(args) or real(*args))
        for base, n_max in [(10, 9000), (7, 40000)]:
            report = verify(SweepConfig(base=base, n_min=1000, n_max=n_max,
                                        points_per_decade=4))
            assert report.lines == ["FAIL grid: insufficient range: no constant-phase class "
                                    "has 3 rows (widen [n_min, n_max] or raise points_per_decade)"]
            assert report.exit_code == 2
        assert calls == []

    def test_twenty_points_a_decade_pass(self):
        # 20 phase classes, not one chained across the decade
        report = verify(SweepConfig(base=10, n_min=1000, n_max=10 ** 5,
                                    points_per_decade=20, threads=2))
        assert report.exit_code == 0, "\n".join(report.lines)
        assert ("PASS line-rate-monotone: |scaled_line - 0.21715| non-increasing along "
                "20 phase classes") in report.lines
