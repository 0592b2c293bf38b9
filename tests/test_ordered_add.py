"""``OrderedAdd`` is ``np.add.at``, bit for bit.

``np.add.at`` is the public unbuffered definition: entry after entry,
``out[rows[k]] += values[k]``, each add rounded once, a row named twice
accumulating left to right. The executor's scatter and flush run through
the compiled kernel instead, so every case here compares the two with
``np.array_equal`` (NaN equal to NaN) and the sign bits (``-0.0`` is not
``+0.0``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import CommunicationPlanError
from repro.runtime.buffers import OrderedAdd

DIM = 5


def _assert_bit_equal(actual, expected):
    assert actual.dtype == expected.dtype
    assert np.array_equal(actual, expected, equal_nan=True)
    assert np.array_equal(np.signbit(actual), np.signbit(expected))


def _gpus(rng, num_slots, sizes, hub=None):
    """Per GPU, distinct slots of a ``num_slots``-row buffer (each GPU
    names a slot once, as a plan's reader does); every GPU names ``hub``
    too when given."""
    per_gpu = []
    for size in sizes:
        slots = rng.choice(num_slots, size=size, replace=False)
        if hub is not None and size:
            slots[0] = hub if hub not in slots[1:] else slots[0]
        per_gpu.append(slots)
    return per_gpu


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_scatter_of_several_gpus_equals_add_at(dtype):
    """GPUs whose slots overlap, a hub slot every GPU names (multiplicity
    > 100), buffers that already carry values, and GPUs with no rows: one
    part per GPU, called in GPU order."""
    rng = np.random.default_rng(0)
    num_slots = 400
    sizes = [int(size) for size in rng.integers(0, 60, size=120)]
    sizes[3] = sizes[77] = 0
    per_gpu = _gpus(rng, num_slots, sizes, hub=7)
    assert sum(7 in slots for slots in per_gpu) > 100
    grads = [rng.standard_normal((size, DIM)).astype(dtype)
             for size in sizes]
    scatter = OrderedAdd(per_gpu, num_slots)
    assert all(held is slots for held, slots in zip(scatter.parts, per_gpu))
    out = rng.standard_normal((num_slots, DIM)).astype(dtype)
    expected = out.copy()
    for gpu, values in enumerate(grads):
        scatter(out, values, gpu)
    np.add.at(expected, np.concatenate(per_gpu), np.concatenate(grads))
    _assert_bit_equal(out, expected)


def test_one_call_may_name_a_row_many_times():
    rng = np.random.default_rng(1)
    rows = np.concatenate([np.full(150, 2), rng.integers(0, 9, size=40)])
    rng.shuffle(rows)
    values = rng.standard_normal((len(rows), DIM)) * 1e8
    out = np.zeros((9, DIM))
    expected = out.copy()
    OrderedAdd([rows], 9)(out, values)
    np.add.at(expected, rows, values)
    _assert_bit_equal(out, expected)


def test_signed_zeros_nan_and_inf():
    """``-0.0 + -0.0`` stays ``-0.0``, ``+inf + -inf`` is NaN, and a NaN
    row stays NaN, as ``np.add.at`` has them."""
    specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e308, -1e308,
                         5e-324])
    rng = np.random.default_rng(2)
    rows = rng.integers(0, 6, size=64)
    values = rng.choice(specials, size=(len(rows), DIM))
    for start in (np.full((6, DIM), -0.0), rng.choice(specials, (6, DIM))):
        out = start.copy()
        expected = start.copy()
        OrderedAdd([rows], 6)(out, values)
        with np.errstate(invalid="ignore"):  # inf - inf
            np.add.at(expected, rows, values)
        _assert_bit_equal(out, expected)
    assert np.isnan(out).any() and np.signbit(expected).any()


def test_float32_values_widen_into_float64_as_add_did():
    rng = np.random.default_rng(3)
    rows = rng.integers(0, 20, size=90)
    values = rng.standard_normal((len(rows), DIM)).astype(np.float32)
    out = rng.standard_normal((20, DIM))
    expected = out.copy()
    OrderedAdd([rows], 20)(out, values)
    np.add.at(expected, rows, values)
    _assert_bit_equal(out, expected)
    indexed = out.copy()
    distinct = np.arange(20)[::-1].copy()
    OrderedAdd([distinct], 20)(indexed, values[:20])
    out[distinct] += values[:20]
    _assert_bit_equal(indexed, out)


def test_non_contiguous_values():
    rng = np.random.default_rng(4)
    rows = rng.integers(0, 10, size=30)
    wide = rng.standard_normal((2 * len(rows), 3 * DIM))
    values = wide[::2, ::3]
    assert not values.flags.c_contiguous
    out = np.zeros((10, DIM))
    expected = out.copy()
    OrderedAdd([rows], 10)(out, values)
    np.add.at(expected, rows, values)
    _assert_bit_equal(out, expected)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_counts_reduce_values_rows_in_order(dtype):
    """The flush's form: values row ``c`` feeds the next ``counts[c]``
    entries — ``np.add.at`` over the rows repeated by their counts —
    beside a part without counts that shares the kernel's arrays."""
    rng = np.random.default_rng(5)
    counts = rng.integers(0, 3, size=200)
    rows = rng.integers(0, 30, size=int(counts.sum()))
    short = rng.integers(0, 30, size=7)
    values = rng.standard_normal((len(counts), DIM)).astype(dtype)
    out = rng.standard_normal((30, DIM)).astype(dtype)
    expected = out.copy()
    add = OrderedAdd([rows, short], 30,
                     counts=[counts, np.ones(7, dtype=np.int64)])
    assert (add.num_values(0), add.num_values(1)) == (200, 7)
    add(out, values)
    add(out, values[:7], 1)
    np.add.at(expected, rows, np.repeat(values, counts, axis=0))
    np.add.at(expected, short, values[:7])
    _assert_bit_equal(out, expected)


def test_empty_operands():
    out = np.ones((4, DIM))
    OrderedAdd([], 4)
    OrderedAdd([np.empty(0, dtype=np.int64)], 4)(out, np.empty((0, DIM)))
    OrderedAdd([np.empty(0, dtype=np.int64)], 4,
               counts=[np.zeros(3, dtype=np.int64)])(out, np.ones((3, DIM)))
    assert (out == 1.0).all()


@pytest.mark.parametrize("rows, counts, match", [
    (np.array([0, 4]), None, r"rows must lie in \[0, 4\)"),
    (np.array([-1, 0]), None, r"rows must lie in \[0, 4\)"),
    (np.array([0.0, 1.0]), None, "1-D integer array"),
    (np.array([[0, 1]]), None, "1-D integer array"),
    (np.array([0, 1]), [np.array([1, 2])], r"counts\[0\] must be"),
    (np.array([0, 1]), [np.array([3, -1])], r"counts\[0\] must be"),
    (np.array([0, 1]), [np.array([1.0, 1.0])], r"counts\[0\] must be"),
    (np.array([0, 1]), [], "one array per part"),
])
def test_malformed_preparation_is_refused(rows, counts, match):
    with pytest.raises(CommunicationPlanError, match=match):
        OrderedAdd([rows], 4, counts=counts)


@pytest.mark.parametrize("case, match", [
    ("short_out", "out must be a C-contiguous"),
    ("strided_out", "out must be a C-contiguous"),
    ("wide_values", r"values of part 0 must have shape \(3, 5\)"),
    ("too_many_values", r"values of part 0 must have shape \(3, 5\)"),
    ("other_part", r"values of part 1 must have shape \(1, 5\)"),
    ("narrowing", "cannot add float64 values into a float32 out"),
    ("half_out", "cannot add float16 values into a float16 out"),
])
def test_malformed_calls_leave_out_untouched(case, match):
    add = OrderedAdd([np.array([0, 1, 1]), np.array([3])], 4)
    out = np.zeros((4, DIM))
    values = np.ones((3, DIM))
    part = 0
    if case == "short_out":
        out = np.zeros((3, DIM))
    elif case == "strided_out":
        out = np.zeros((4, 2 * DIM))[:, ::2]
    elif case == "wide_values":
        values = np.ones((3, DIM + 1))
    elif case == "too_many_values":
        values = np.ones((4, DIM))
    elif case == "other_part":
        part = 1
    elif case == "narrowing":
        out = out.astype(np.float32)
    elif case == "half_out":
        out, values = out.astype(np.float16), values.astype(np.float16)
    with pytest.raises(CommunicationPlanError, match=match):
        add(out, values, part)
    assert not out.any()
