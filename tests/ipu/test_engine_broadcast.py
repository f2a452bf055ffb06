"""Broadcast operand pairs: the engine prepares each operand at its own shape.

Every result must equal the same pair broadcast out and copied to the full
pair shape first, bit for bit, whatever axes either side broadcasts; the
dense pair is in turn anchored to the frozen seed kernel.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.executor import _slab
from repro.fp.formats import FP16, FP32
from repro.ipu.engine import (
    KernelPoint,
    PackedOperands,
    _broadcast_plan,
    fp_ip_points,
    pack_operands,
    plan_values,
)
from repro.ipu.seedref import fp_ip_batch_seed

from test_engine import assert_results_equal, wide_operands

POINTS = [
    KernelPoint(8), KernelPoint(12), KernelPoint(16), KernelPoint(28), KernelPoint(38),
    KernelPoint(12, 28, multi_cycle=True), KernelPoint(16, 28, multi_cycle=True),
    KernelPoint(10, 28, multi_cycle=True), KernelPoint(12, 16, multi_cycle=True),
]


def dense(plan: PackedOperands, shape) -> PackedOperands:
    """``plan`` broadcast to ``shape`` as a contiguous copy (no stride-0 axes)."""
    return PackedOperands(plan.fmt, *(np.ascontiguousarray(a)
                                      for a in _broadcast_plan(plan, shape)))


def pair_case(seed, lead, n, mask_a, mask_b):
    """Plans whose lead axes are size 1 where the masks say so."""
    rng = np.random.default_rng(seed)
    shape_a = tuple(1 if m else d for d, m in zip(lead, mask_a)) + (n,)
    shape_b = tuple(1 if m else d for d, m in zip(lead, mask_b)) + (n,)
    a, _ = wide_operands(rng, shape_a)
    _, b = wide_operands(rng, shape_b)
    return pack_operands(a), pack_operands(b), np.broadcast_shapes(shape_a, shape_b)


def kernel_points(work_dtype, acc_fmt, points, n):
    points = [KernelPoint(p.adder_width, p.software_precision, p.multi_cycle, acc_fmt)
              for p in points]
    if work_dtype is np.int32:  # only points whose words provably fit
        points = [p for p in points if p.resolve().work_dtype(n) is np.int32]
    return points or [KernelPoint(8, acc_fmt=acc_fmt)]


case = dict(
    seed=st.integers(0, 2**31 - 1),
    lead=st.lists(st.integers(1, 6), min_size=1, max_size=3),
    n=st.integers(1, 18),
    masks=st.lists(st.tuples(st.booleans(), st.booleans()), min_size=3, max_size=3),
    points=st.lists(st.sampled_from(POINTS), min_size=1, max_size=3, unique=True),
    acc_fmt=st.sampled_from([FP16, FP32]),
    work_dtype=st.sampled_from([None, np.int32, np.int64]),
    chunk_rows=st.sampled_from([None, 1, 5, 64]),
)


@settings(max_examples=60, deadline=None)
@given(**case)
def test_broadcast_pair_matches_dense_pair(seed, lead, n, masks, points, acc_fmt,
                                           work_dtype, chunk_rows):
    mask_a = [m[0] for m in masks[:len(lead)]]
    mask_b = [m[1] for m in masks[:len(lead)]]
    pa, pb, shape = pair_case(seed, lead, n, mask_a, mask_b)
    points = kernel_points(work_dtype, acc_fmt, points, n)
    want = fp_ip_points(dense(pa, shape), dense(pb, shape), points,
                        chunk_rows=chunk_rows, work_dtype=work_dtype)
    got = fp_ip_points(pa, pb, points, chunk_rows=chunk_rows,
                       work_dtype=work_dtype)
    for g, w in zip(got, want):
        assert_results_equal(g, w, (shape, mask_a, mask_b))
    a, b = (plan_values(dense(plan, shape)).reshape(-1, shape[-1]) for plan in (pa, pb))
    for point, g in zip(points, got):
        seed_ref = fp_ip_batch_seed(a, b, point.adder_width, point.software_precision,
                                    point.acc_fmt, multi_cycle=point.multi_cycle)
        assert np.array_equal(g.values, seed_ref.values.reshape(g.values.shape))


@settings(max_examples=40, deadline=None)
@given(**case)
def test_executor_slabs_match_dense_slices(seed, lead, n, masks, points, acc_fmt,
                                           work_dtype, chunk_rows):
    """``_slab`` hands the engine stride-0 views of the broadcast pair."""
    mask_a = [m[0] for m in masks[:len(lead)]]
    mask_b = [m[1] for m in masks[:len(lead)]]
    pa, pb, shape = pair_case(seed, lead, n, mask_a, mask_b)
    points = kernel_points(work_dtype, acc_fmt, points, n)
    da, db = dense(pa, shape), dense(pb, shape)
    lo, hi = shape[0] // 3, shape[0]
    want = fp_ip_points(da[lo:hi], db[lo:hi], points,
                        chunk_rows=chunk_rows, work_dtype=work_dtype)
    got = fp_ip_points(_slab(pa, shape, lo, hi), _slab(pb, shape, lo, hi), points,
                       chunk_rows=chunk_rows, work_dtype=work_dtype)
    for g, w in zip(got, want):
        assert_results_equal(g, w, (shape, lo, hi))


def test_conv_shaped_pair_matches_per_row_calls():
    """Activations ``(B, 1, chunks)`` against weights ``(K, chunks)`` equal
    K separate calls against one weight row each."""
    rng = np.random.default_rng(11)
    acts, _ = wide_operands(rng, (40, 3, 16))
    _, wts = wide_operands(rng, (5, 3, 16))
    pa, pw = pack_operands(acts), pack_operands(wts)
    points = [KernelPoint(12), KernelPoint(16, 28, multi_cycle=True)]
    got = fp_ip_points(pa.reshape(40, 1, 3), pw, points, chunk_rows=32)
    for ch in range(5):
        want = fp_ip_points(pa, pw[ch], points)
        for g, w in zip(got, want):
            assert np.array_equal(g.values[:, ch], w.values)
            assert np.array_equal(g.alignment_cycles[:, ch], w.alignment_cycles)
