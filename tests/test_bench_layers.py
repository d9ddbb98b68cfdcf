"""``tools/bench_layers.py`` reads each point's N exactly or refuses it."""

import argparse
import importlib.util
from pathlib import Path

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

