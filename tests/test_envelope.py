"""The validity envelope: an integer base b >= 2 and a digit count whose
digit sums stay exact in int64, each checked in one place."""

import math
import re

import numpy as np
import pytest

from circletransport import (
    DeltaProfile,
    PiecewiseCdf,
    SweepConfig,
    build_empirical,
    build_nu,
    cdf_wrapped_exponential,
    closed_form_cdf,
    compute_metrics,
)
from circletransport.cli import main
from circletransport.logseq import LogSequenceSpec, digit_count, frac_log

BASE_CHECKED = {
    "PiecewiseCdf": lambda b: PiecewiseCdf(base=b, bounds=np.array([0.0, 1.0]),
                                           coef=np.array([0.0]), offset=np.array([1.0])),
    "DeltaProfile": lambda b: DeltaProfile(base=b, bounds=np.array([0.0, 1.0]),
                                           coef=np.array([0.0]), offset=np.array([0.0])),
    "build_empirical": lambda b: build_empirical([0.5], b),
    "cdf_wrapped_exponential": lambda b: cdf_wrapped_exponential(b, 0.25),
    "digit_count": lambda b: digit_count(b, 1000),
    "LogSequenceSpec": lambda b: LogSequenceSpec(b, 1000),
    "SweepConfig": lambda b: SweepConfig(base=b),
    "compute_metrics": lambda b: compute_metrics(b, 1000),
}


@pytest.mark.parametrize("base", [1, 2.5, math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("name", sorted(BASE_CHECKED))
def test_every_entry_point_refuses_a_bad_base(name, base):
    with pytest.raises(ValueError, match=r"^base must be an integer >= 2, got "):
        BASE_CHECKED[name](base)


def stated_digit_limit(base):
    with pytest.raises(ValueError, match="supported") as err:
        LogSequenceSpec(base, base ** 70)
    return int(re.search(r"largest supported digit count is (\d+)", str(err.value)).group(1))


@pytest.mark.parametrize("base", [2, 3, 10, 16])
def test_stated_digit_limit_is_the_guard(base):
    d = stated_digit_limit(base)
    assert LogSequenceSpec(base, base ** (d - 1)).digits == d
    assert LogSequenceSpec(base, base ** d - 1).digits == d
    with pytest.raises(ValueError, match=f"largest supported digit count is {d}$"):
        LogSequenceSpec(base, base ** d)


@pytest.mark.parametrize("base,digits", [(2, 61), (10, 17), (2.0, 61)])
def test_digit_limits(base, digits):
    assert stated_digit_limit(base) == digits


@pytest.mark.parametrize("entry", [build_nu, closed_form_cdf, compute_metrics])
def test_row_entry_points_share_the_envelope(entry):
    with pytest.raises(ValueError, match="largest supported digit count is 17$"):
        entry(10, 10 ** 17)


def test_sweep_config_checks_n_max_when_built():
    with pytest.raises(ValueError, match="largest supported digit count is 61"):
        SweepConfig(base=2, n_max=2 ** 62)


def test_cli_states_the_limit(capsys):
    code = main(["dist", "--base", "2", "--n", str(2 ** 61)])
    assert code == 2
    assert "largest supported digit count is 61" in capsys.readouterr().err


@pytest.mark.parametrize("base", [2, 3, 10])
def test_float_base_gives_the_int_base_row(base):
    want = compute_metrics(base, 1000)
    got = compute_metrics(float(base), 1000)
    assert type(got.base) is int
    for name in ("d_line", "d_circle", "offset_c"):
        assert getattr(got, name).hex() == getattr(want, name).hex()


def test_float_base_closed_form_cdf():
    want, got = closed_form_cdf(2, 100), closed_form_cdf(2.0, 100)
    assert got.base == 2 and type(got.base) is int
    for name in ("bounds", "coef", "offset"):
        assert np.array_equal(getattr(got, name), getattr(want, name))


@pytest.mark.parametrize("entry", [build_nu, closed_form_cdf, compute_metrics, LogSequenceSpec])
@pytest.mark.parametrize("count", [1000.5, 999.999, math.nan, math.inf, 0, -1000])
def test_row_entry_points_refuse_a_count_that_is_not_a_positive_integer(entry, count):
    with pytest.raises(ValueError, match=r"^count must be a positive integer, got "):
        entry(10, count)


@pytest.mark.parametrize("entry", [digit_count, frac_log])
@pytest.mark.parametrize("k", [1000.5, math.nan, math.inf, 0])
def test_digit_count_and_frac_log_refuse_a_k_that_is_not_a_positive_integer(entry, k):
    # at the inf, digit_count once counted digits forever
    with pytest.raises(ValueError, match=r"^k must be a positive integer, got "):
        entry(10, k)


def test_digit_count_and_frac_log_take_an_integral_float():
    assert digit_count(10, 1000.0) == digit_count(10, 1000) == 4
    assert frac_log(10, 2000.0) == frac_log(10, 2000)


def test_cli_refuses_a_line_row_past_the_piece_budget(capsys):
    assert main(["dist", "--base", "10", "--n", str(10 ** 12), "--metric", "line"]) == 2
    assert re.match(r"^error: a line row at N=1000000000000 in base 10 has 900000000000 pieces, "
                    r"past the budget of 10000000000 ", capsys.readouterr().err)


@pytest.mark.parametrize("count", [1000.0, np.int64(1000), np.float64(1000.0)],
                         ids=["float", "int64", "float64"])
def test_integral_count_gives_the_int_row(count):
    assert type(LogSequenceSpec(10, count).count) is int
    assert build_nu(10, count).count == 1000
    want, got = closed_form_cdf(10, 1000), closed_form_cdf(10, count)
    for name in ("bounds", "coef", "offset"):
        assert np.array_equal(getattr(got, name), getattr(want, name))
    for metrics in (("line",), ("line", "circle")):
        want, got = compute_metrics(10, 1000, metrics), compute_metrics(10, count, metrics)
        assert type(got.N) is int and got.N == 1000
        for name in ("d_line", "d_circle", "offset_c", "scaled_line"):
            assert getattr(got, name).hex() == getattr(want, name).hex()
