"""The CSV float encoder writes exactly what repr writes, line by line."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from conftest import philox
from langevin_lab import outputs
from langevin_lab.outputs import encode_rows


def reference(block: np.ndarray, first: int) -> str:
    return "".join(f"{first + i}," + ",".join(map(repr, row.tolist())) + "\n" for i, row in enumerate(block))


@settings(max_examples=150, deadline=None)
@given(
    block=hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=12), elements=st.floats()),
    first=st.integers(0, 10**15),
)
def test_hypothesis_blocks_match_repr(block, first):
    assert encode_rows(block, first) == reference(block, first)


def test_random_bit_patterns_match_repr():
    rng = philox(11, 1)
    # every sign, exponent and class, then exponent fields in and around
    # the fixed-notation range [1005, 1074] the encoder computes itself
    n = 100_000
    uniform = rng.integers(0, 2**64, n, dtype=np.uint64)
    near = rng.integers(0, 2**52, n, dtype=np.uint64) | rng.integers(0, 2, n, dtype=np.uint64) << np.uint64(63)
    near |= rng.integers(1000, 1081, n, dtype=np.uint64) << np.uint64(52)
    for bits in (uniform, near):
        block = bits.view(np.float64).reshape(1000, 100)
        assert encode_rows(block, 0) == reference(block, 0)


def test_edge_values_match_repr():
    anchors = [math.ldexp(1.0, e) for e in range(-1074, 1024)]
    anchors += [float(f"1e{e}") for e in range(-323, 309)]
    values = []
    for x in anchors:  # each with its three neighbours on either side
        up = down = x
        values.append(x)
        for _ in range(3):
            up, down = math.nextafter(up, math.inf), math.nextafter(down, 0.0)
            values += [up, down]
    values += [1e-4, 0.0001000000000000001, 9.999999999999999e-05, 1e16, 9999999999999998.0,
               1e16 - 2.0, 0.5, 3.0, 7.0, 123456789.0, 2.0**52, 2.0**53 - 1.0, 2.0**50 + 0.25,
               2.0**50 + 0.75, 1125899906842624.5, 0.1, 0.2, 0.3, 1.0 / 3.0, 0.0, math.inf, math.nan,
               5e-324, 2.225073858507201e-308, 2.2250738585072014e-308, sys.float_info.max]
    values = np.array(values + [-x for x in values])
    block = np.resize(values, (-(-values.size // 10), 10))
    assert encode_rows(block, 0) == reference(block, 0)


def test_non_short_repr_style_writes_every_value_by_repr(monkeypatch):
    calls = []
    monkeypatch.setattr(sys, "float_repr_style", "legacy")
    monkeypatch.setattr(outputs, "repr", lambda x: calls.append(x) or repr(x), raising=False)
    block = np.array([[0.1, -2.5, 1e-7], [3.0, 1e20, 0.0001234]])
    assert encode_rows(block, 5) == reference(block, 5)
    assert len(calls) == block.size


@pytest.mark.parametrize("as_array", [True, False])
@pytest.mark.parametrize("n", [1, 2, 5])
def test_csv_rows_are_numbered_across_blocks(as_array, n, tmp_path, monkeypatch):
    monkeypatch.setattr(outputs, "_BLOCK_VALUES", 7)  # blocks of 7 // 3 = 2 rows
    rows = philox(5).standard_normal((n, 3)) * [1.0, 1e-6, 1e17]
    path = tmp_path / "rows.csv"
    outputs.write_theta_csv(path, "k", rows if as_array else iter(list(rows)), 3)
    assert path.read_text() == "k,theta_0,theta_1,theta_2\n" + reference(rows, 0)
