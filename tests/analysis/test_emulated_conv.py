"""The emulated convolution: one engine call per layer, equal to one per channel."""

import numpy as np
import pytest

from repro.analysis.accuracy import emulated_conv2d, weight_plan
from repro.api import EmulationSession
from repro.fp.formats import FP16, FP32
from repro.ipu.engine import fp_ip_packed, pack_operands
from repro.nn.functional import conv2d, conv_output_size, im2col


def per_channel_conv(x, weight, bias, stride, padding, adder_width, acc_fmt):
    """Reference: one engine call per output channel's weight plan."""
    k, c, kh, kw = weight.shape
    nimg = x.shape[0]
    ho = conv_output_size(x.shape[2], kh, stride, padding)
    wo = conv_output_size(x.shape[3], kw, stride, padding)
    cols = im2col(x, kh, kw, stride, padding, layout="npd")
    p, d = cols.shape[1], cols.shape[2]
    chunks = -(-d // 16)
    cols = np.pad(cols, ((0, 0), (0, 0), (0, chunks * 16 - d)))
    acts = pack_operands(cols.reshape(nimg * p, chunks, 16), FP16)
    wplan = weight_plan(weight)
    out = np.empty((k, nimg * p))
    for ch in range(k):
        res = fp_ip_packed(acts, wplan[ch], adder_width, acc_fmt=acc_fmt)
        out[ch] = res.values.sum(axis=1)
    out_t = out.T.reshape(nimg, p, k).transpose(0, 2, 1)
    if acc_fmt.name == "fp32":
        out_t = out_t.astype(np.float32)
    else:
        out_t = out_t.astype(np.float16).astype(np.float32)
    result = out_t.reshape(nimg, k, ho, wo)
    if bias is not None:
        result = result + bias[None, :, None, None]
    return result


# (x shape, weight shape, stride, padding): 3x3, 1x1, and stride-2 convs,
# each over MIN_PARALLEL_ROWS result rows so the pools take the call
CONVS = [
    ((2, 3, 18, 18), (4, 3, 3, 3), 1, 1),
    ((2, 5, 18, 18), (8, 5, 1, 1), 1, 0),
    ((3, 4, 21, 21), (5, 4, 3, 3), 2, 1),
]


@pytest.fixture(scope="module", params=[("serial", 1), ("thread", 2), ("thread", 3)],
                ids=["serial", "thread", "thread3"])
def session(request):
    """Every backend; the thread pool splits each call's rows evenly and unevenly."""
    backend, workers = request.param
    with EmulationSession(workers=workers, backend=backend) as s:
        yield s


@pytest.mark.parametrize("width", [8, 12, 16, 28, 38])
@pytest.mark.parametrize("acc_fmt", [FP16, FP32], ids=["fp16", "fp32"])
@pytest.mark.parametrize("conv", CONVS, ids=["3x3", "1x1", "stride2"])
def test_batched_conv_matches_per_channel_loop(session, width, acc_fmt, conv):
    xs, ws, stride, padding = conv
    rng = np.random.default_rng(10 * width + ws[0])
    x = rng.normal(0, 1, xs)
    w = rng.normal(0, 0.5, ws)
    bias = rng.normal(0, 0.1, ws[0])
    want = per_channel_conv(x, w, bias, stride, padding, width, acc_fmt)
    assert np.array_equal(emulated_conv2d(x, w, bias, stride, padding, width, acc_fmt), want)
    parallel = session.stats.parallel_batches
    got = emulated_conv2d(x, w, bias, stride, padding, width, acc_fmt, session=session)
    assert np.array_equal(got, want)
    assert session.stats.parallel_batches == parallel + (session.workers > 1)


def test_channel_mismatch_raises_like_float_conv():
    x = np.zeros((1, 2, 5, 5))
    w = np.zeros((4, 3, 3, 3))
    with pytest.raises(ValueError, match="input channels 2 != weight channels 3") as ref:
        conv2d(x, w, padding=1)
    with pytest.raises(ValueError, match=str(ref.value)):
        emulated_conv2d(x, w, None, 1, 1, 16)
    with EmulationSession() as s, pytest.raises(ValueError, match=str(ref.value)):
        s.conv2d(x, w, padding=1)
