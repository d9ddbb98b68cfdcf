import math

import pytest

from circletransport import harness, oracle
from circletransport.cli import main
from circletransport.logseq import digit_count


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def parse_kv(text):
    pairs = dict(line.split("=", 1) for line in text.strip().splitlines())
    return {k: float(v) for k, v in pairs.items()}


class TestDist:
    def test_both_metrics(self, capsys):
        code, out, _ = run_cli(capsys, "dist", "--base", "2", "--n", "2")
        assert code == 0
        kv = parse_kv(out)
        assert kv["base"] == 2 and kv["N"] == 2 and kv["n"] == 2
        assert kv["d_line"] == pytest.approx(2 - 1 / math.log(2), abs=1e-15)
        assert kv["d_circle"] == pytest.approx((3 - 2 * math.sqrt(2)) / math.log(2), abs=1e-12)

    def test_line_only_omits_circle_keys(self, capsys):
        code, out, _ = run_cli(capsys, "dist", "--base", "10", "--n", "100",
                               "--metric", "line")
        assert code == 0
        kv = parse_kv(out)
        assert "d_line" in kv and "d_circle" not in kv

    def test_domain_error_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "dist", "--base", "10", "--n", "5")
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("exc,message", [
        (MemoryError("Unable to allocate 8.00 EiB for an array"),
         "Unable to allocate 8.00 EiB for an array"),
        (MemoryError(), "MemoryError"),
    ])
    def test_allocation_failure_exits_2(self, capsys, monkeypatch, exc, message):
        # N = 2**60 passes the int64 guard but its arrays cannot be allocated;
        # the failure is simulated rather than provoked
        def out_of_memory(*_args):
            raise exc

        monkeypatch.setattr(harness, "compute_metrics", out_of_memory)
        code, out, err = run_cli(capsys, "dist", "--base", "2", "--n", str(2 ** 60))
        assert (code, out, err) == (2, "", f"error: {message}\n")


class TestSweep:
    def test_writes_csv(self, capsys, tmp_path):
        out_file = tmp_path / "rows.csv"
        code, out, _ = run_cli(capsys, "sweep", "--base", "10",
                               "--n-min", "100", "--n-max", "1000",
                               "--points-per-decade", "2", "--out", str(out_file))
        assert code == 0
        lines = out_file.read_text().splitlines()
        assert lines[0].startswith("base,N,n,")
        assert len(lines) == 4  # header + {100, 316, 1000}
        assert "wrote 3 rows" in out

    def test_unwritable_path_exits_2(self, capsys, tmp_path):
        missing_dir = tmp_path / "no" / "such" / "dir" / "x.csv"
        code, _, err = run_cli(capsys, "sweep", "--base", "10",
                               "--n-min", "100", "--n-max", "1000",
                               "--out", str(missing_dir))
        assert code == 2
        assert "error" in err

    def test_missing_directory_is_refused_before_any_row(self, capsys, monkeypatch, tmp_path):
        rows = []
        monkeypatch.setattr(harness, "compute_metrics", lambda *args: rows.append(args))
        code, _, err = run_cli(capsys, "sweep", "--base", "10",
                               "--n-min", "100", "--n-max", "1000",
                               "--out", str(tmp_path / "missing_dir" / "x.csv"))
        assert (code, rows) == (2, [])
        assert err.startswith("error: ") and "missing_dir" in err

    def test_flags_left_out_take_the_config_defaults(self, capsys, monkeypatch, tmp_path):
        passed = []
        monkeypatch.setattr(harness, "run_sweep", lambda cfg: passed.append(cfg) or [])
        out_file = str(tmp_path / "rows.csv")
        code, _, _ = run_cli(capsys, "sweep", "--base", "10", "--out", out_file)
        assert code == 0
        assert passed == [harness.SweepConfig(base=10, out=out_file)]


class TestVerify:
    def test_insufficient_range_exits_2(self, capsys):
        # n_max below 1000, and a grid with no point at all in [1001, 1005]
        for n_min, n_max in [("100", "500"), ("1001", "1005")]:
            code, out, _ = run_cli(capsys, "verify", "--base", "10",
                                   "--n-min", n_min, "--n-max", n_max)
            assert code == 2
            assert "insufficient range" in out

    def test_small_grid_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--base", "10",
                               "--n-min", "1000", "--n-max", "100000",
                               "--threads", "2")
        assert code == 0
        assert "verification PASSED" in out
        assert "line-sharp-rate" in out


class TestVerifyChecks:
    """``verify`` over synthetic rows, ``harness.run_sweep`` replaced: a
    failed hard check exits 1, a WARN does not, and a base other than 10
    reports the circle bound and the linear floor as INFO."""

    BOUND = harness.CIRCLE_SQRT_BOUND
    # deviations of scaled_line from 1/(2 ln b) along one phase class
    SHRINKING, GROWING = (0.003, 0.002, 0.001), (0.001, 0.003, 0.001)

    def run(self, capsys, monkeypatch, base, n_max, fitted, deviations, circle_sqrt,
            ratio=lambda k: 0.5):
        # a row at every grid point: ``deviations`` along the phase class
        # ``fitted``, 0.001 on the other rows; d_circle/d_line is ``ratio`` of
        # the grid index k
        limit = harness.line_rate_limit(base)
        deviation = dict(zip(fitted, deviations))

        def sweep(cfg):
            grid = harness._grid(cfg.base, cfg.n_min, cfg.n_max, cfg.points_per_decade)
            return [harness.MetricsRow(base=base, N=N, n=digit_count(base, N), d_line=2e-3,
                                       d_circle=2e-3 * ratio(k), offset_c=0.0,
                                       scaled_line=limit + deviation.get(N, 0.001),
                                       scaled_circle_sqrt=circle_sqrt, scaled_circle_linear=1.0,
                                       wall_time_seconds=0.0)
                    for N, k in grid.items()]

        monkeypatch.setattr(harness, "run_sweep", sweep)
        return run_cli(capsys, "verify", "--base", str(base), "--n-min", "1000",
                       "--n-max", str(n_max))

    @pytest.mark.parametrize("deviations,circle_sqrt,code,line", [
        (SHRINKING, 0.9 * BOUND, 0, "PASS circle-bound: "),
        (SHRINKING, 1.2 * BOUND, 0, "WARN circle-bound: "),
        (SHRINKING, 2.0 * BOUND, 1, "FAIL circle-bound: "),
        (GROWING, 0.9 * BOUND, 1, "FAIL line-rate-monotone: "),
    ], ids=["pass", "circle-warn", "circle-fail", "monotone-fail"])
    def test_base_10_checks(self, capsys, monkeypatch, deviations, circle_sqrt, code, line):
        got, out, _ = self.run(capsys, monkeypatch, 10, 10 ** 5, (1000, 10 ** 4, 10 ** 5),
                               deviations, circle_sqrt)
        lines = out.splitlines()
        assert got == code
        assert sum(l.startswith(line) for l in lines) == 1
        assert sum(l.startswith("FAIL") for l in lines) == code  # the expected one only
        assert lines[-1] == "verification " + ("FAILED" if code else "PASSED")

    @pytest.mark.parametrize("base,n_max,fitted,ratio,code", [
        # two levels, each falling along its classes: a median over the
        # period cut short at k = 26 (N = 1263) reads 0.50, the next 0.89
        (3, 10 ** 6, (3 ** 7, 3 ** 8, 3 ** 9),
         lambda k: (0.9, 0.9, 0.5, 0.5)[k % 4] * (1 - 0.002 * (k - 26)), 0),
        # class 1 (k = 13, 17) rises while the two periods' medians fall,
        # 0.55 then 0.45
        (10, 10 ** 5, (1000, 10 ** 4, 10 ** 5),
         {12: 0.9, 13: 0.30, 14: 0.8, 15: 0.4, 16: 0.55,
          17: 0.31, 18: 0.45, 19: 0.35, 20: 0.5}.get, 1),
    ], ids=["every-class-falls", "one-class-rises"])
    def test_the_ratio_falls_along_every_phase_class(self, capsys, monkeypatch, base, n_max,
                                                     fitted, ratio, code):
        got, out, _ = self.run(capsys, monkeypatch, base, n_max, fitted, self.SHRINKING,
                               0.9 * self.BOUND, ratio)
        lines = out.splitlines()
        assert got == code
        status = "FAIL" if code else "PASS"
        assert sum(l.startswith(f"{status} circle-beats-line: ") for l in lines) == 1
        assert sum(l.startswith("FAIL") for l in lines) == code  # the expected one only

    def test_other_bases_report_the_base_10_bounds_as_info(self, capsys, monkeypatch):
        # base 2's powers 2^10..2^14 form class 0 of its grid up to 2^14
        code, out, _ = self.run(capsys, monkeypatch, 2, 2 ** 14, (2 ** 10, 2 ** 11, 2 ** 12),
                                self.SHRINKING, 2.0 * self.BOUND)
        assert code == 0
        lines = out.splitlines()
        assert any(l.startswith("INFO circle-bound: ") and "base 10 only" in l for l in lines)
        assert any(l.startswith("INFO linear-floor: ") and "base 10 only" in l for l in lines)


class TestOracleCheck:
    def test_an_error_past_the_tolerance_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr(oracle, "equivalence_trials", lambda *args: (0.0, 2e-9))
        code, out, _ = run_cli(capsys, "oracle-check", "--trials", "5")
        assert code == 1
        assert out.splitlines()[-1] == "tolerance=1.0e-09 -> FAIL"

    def test_small_run_passes(self, capsys):
        code, out, _ = run_cli(capsys, "oracle-check", "--trials", "20",
                               "--max-atoms", "12", "--seed", "7")
        assert code == 0
        assert "PASS" in out

    @pytest.mark.parametrize("flags,message", [
        (("--trials", "0"), "trials must be at least 1, got 0"),
        (("--trials", "-3"), "trials must be at least 1, got -3"),
        (("--max-atoms", "0"), "max_atoms must lie in 1..1024, got 0"),
        (("--max-atoms", "3000", "--trials", "20"), "max_atoms must lie in 1..1024, got 3000"),
    ])
    def test_a_run_that_checks_nothing_exits_2(self, capsys, flags, message):
        code, out, err = run_cli(capsys, "oracle-check", *flags)
        assert code == 2
        assert "PASS" not in out
        assert err == f"error: {message}\n"


class TestUsage:
    def test_unknown_command_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_required_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["dist", "--base", "10"])
        assert exc.value.code == 2
