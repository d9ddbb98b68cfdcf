"""``tools/bench_layers.py`` reads each point's N exactly or refuses it, and books a
row's traced peak to the layer that set it."""

import argparse
import importlib.util
from pathlib import Path

import numpy as np
import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "bench_layers.py"


@pytest.fixture(scope="module")
def bench_layers():
    spec = importlib.util.spec_from_file_location("bench_layers", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("text,point", [
    ("2:1e7:line", (2, 10 ** 7, "line")),
    ("10:1000000:both", (10, 10 ** 6, "both")),
    ("10:10000000000000001:line", (10, 10 ** 16 + 1, "line")),  # an integer literal, exactly
])
def test_point_parses(bench_layers, text, point):
    assert bench_layers.parse_point(text) == point


# a fraction, and a float form past 2**53 that would stand for several integers
@pytest.mark.parametrize("text", ["2:1000.7:line", "10:1e17:line", "2:nan:line", "2:inf:line"])
def test_count_that_is_not_an_exact_integer_is_refused(bench_layers, text):
    with pytest.raises(argparse.ArgumentTypeError, match="with an integer N"):
        bench_layers.parse_point(text)



def test_traced_peak_of_a_row_names_the_offset_search(bench_layers):
    # with its profile alive, the offset search sets a metrics row's live
    # bytes, and the streamed integral those of a line-only row
    peak, layer = bench_layers.traced_peak_of_row(10, 10 ** 5, ("line", "circle"))
    assert layer == "median_offset" and peak > 5 * 10 ** 6
    assert bench_layers.traced_peak_of_row(2, 10 ** 5, ("line",))[1] == "integral_abs_line"


def test_traced_peak_is_booked_to_the_layer_running_at_it(bench_layers, monkeypatch):
    from circletransport import harness

    delta_profile = harness.delta_profile

    def with_a_scratch_array(F, G):
        scratch = np.ones(2 * 10 ** 6)  # 16 MB, freed before the layer returns
        del scratch
        return delta_profile(F, G)

    monkeypatch.setattr(harness, "delta_profile", with_a_scratch_array)
    peak, layer = bench_layers.traced_peak_of_row(10, 2000, ("line", "circle"))
    assert layer == "delta_profile" and 16 * 10 ** 6 <= peak < 17 * 10 ** 6
    assert harness.delta_profile is with_a_scratch_array  # the names are restored


def test_wrapped_names_are_restored_when_a_layer_raises(bench_layers):
    from circletransport import harness, transport

    names = [harness.closed_form_cdf, harness.integral_abs, transport.median_offset]

    def call(label, fn, args):
        if label == "median_offset":
            raise RuntimeError(label)
        return fn(*args)

    with pytest.raises(RuntimeError, match="median_offset"):
        bench_layers.wrapped_row(10, 2000, ("line", "circle"), call)
    assert [harness.closed_form_cdf, harness.integral_abs, transport.median_offset] == names


def test_a_point_reports_its_traced_peak_beside_its_rss(bench_layers):
    point = bench_layers.measure_point(10, 2000, "both", 1)
    assert point["peak_rss_mb"] > 0 and point["traced_peak_mb"] > 0
    assert point["traced_peak_layer"] in [*point["layers_s"], "compute_metrics"]
    merged = bench_layers.merge([point, dict(point, traced_peak_mb=1.0)])
    assert merged["traced_peak_layer"] == point["traced_peak_layer"]
    assert merged["traced_peak_mb"] == (point["traced_peak_mb"] + 1.0) / 2
