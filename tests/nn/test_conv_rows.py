"""Stride-1 patch matrices on the padded-width grid.

``im2col_rows`` builds the ``(C*k*k, N*Ho*Wp)`` patch matrix whose
column ``(n, y, u)`` is the window at ``(y, u)`` for every ``u < Wp``:
its columns ``u < Wo`` must be ``im2col``'s, and the rest, which read
past the right border, must be finite (the backward multiplies them by
zeros).  A stride-1 ``Conv2D`` runs both passes on that grid; its
forward output and ``dx`` must equal, bit for bit, those of the compact
``(C*k*k, N*Ho*Wo)`` formulation kept here as the reference, and ``dW``
(summed over the grid's extra zero columns) must agree to rounding.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import Conv2D
from repro.nn.layers import conv_output_hw, im2col
from repro.nn.layers.conv import im2col_rows, per_image

LAYOUTS = ["contiguous", "channel-reversed", "row-stepped", "channels-last"]


def laid_out(values, layout):
    """*values* (N, C, H, W) as an array with the same contents in *layout*."""
    if layout == "channel-reversed":
        return np.ascontiguousarray(values[:, ::-1])[:, ::-1]
    if layout == "row-stepped":
        wide = np.zeros(values.shape[:2] + (2 * values.shape[2], values.shape[3]), values.dtype)
        wide[:, :, ::2] = values
        return wide[:, :, ::2]
    if layout == "channels-last":
        return np.ascontiguousarray(values.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
    return np.ascontiguousarray(values)


@st.composite
def cases(draw):
    k = draw(st.integers(1, 5))
    p = draw(st.integers(0, k - 1))
    n, c = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    h = draw(st.integers(max(1, k - 2 * p), 7))
    w = draw(st.integers(max(1, k - 2 * p), 7))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    layout = draw(st.sampled_from(LAYOUTS))
    seed = draw(st.integers(0, 2**16))
    return k, p, (n, c, h, w), dtype, layout, seed


@given(cases())
@settings(max_examples=300, deadline=None)
def test_every_valid_column_is_im2cols(case):
    k, p, shape, dtype, layout, seed = case
    n, c, h, w = shape
    values = np.random.default_rng(seed).standard_normal(shape).astype(dtype)
    x = laid_out(values, layout)
    ho, wo = conv_output_hw(h, w, k, 1, p)
    wp = w + 2 * p
    want = im2col(values, k, 1, p).reshape(c * k * k, n, ho, wo)
    # into a caller's buffer holding garbage: every element is written
    out = np.full((c * k * k, n * ho * wp), np.nan, dtype)
    assert im2col_rows(x, k, p, out=out) is out
    grid = out.reshape(c * k * k, n, ho, wp)
    np.testing.assert_array_equal(grid[..., :wo], want)
    # past the border: the next row's border or values, or the zeroed slack
    assert np.isfinite(grid[..., wo:]).all()
    np.testing.assert_array_equal(im2col_rows(x, k, p), out)


# ------------------------------------------------ the compact reference
def compact_forward(layer, x):
    """The forward on ``im2col``'s compact patch matrix: one batched GEMM
    per image into the NCHW output, then the bias."""
    n, cout = len(x), layer.out_channels
    ho, wo = conv_output_hw(x.shape[2], x.shape[3], layer.kernel, 1, layer.padding)
    cols = im2col(x, layer.kernel, 1, layer.padding)
    out = np.matmul(layer.weight.data.reshape(cout, -1), per_image(cols, n))
    out = out.reshape(n, cout, ho, wo)
    out += layer.bias.data[:, None, None]
    return out


def compact_backward(layer, x, dout):
    """The transposed backward on ``im2col(dout)``'s compact patch matrix,
    whose columns are the input's ``N*H*W`` pixels: ``(dx, dW)``."""
    k, (n, c, h, w), cout = layer.kernel, x.shape, dout.shape[1]
    d = im2col(dout, k, 1, k - 1 - layer.padding)
    wflip = layer.weight.data[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(c, -1)
    dx = np.matmul(wflip, per_image(d, n)).reshape(n, c, h, w)
    dw = (d @ x.transpose(1, 0, 2, 3).reshape(c, -1).T).reshape(cout, k, k, c)
    return dx, dw[:, ::-1, ::-1].transpose(0, 3, 1, 2)


#: (in channels, out channels, H = W) of the benchmark's VGG-16 convs,
#: all 3x3, stride 1, padding 1, on a 16-image batch
VGG = [(3, 8, 32), (8, 8, 32), (8, 16, 16), (16, 16, 16), (16, 32, 8), (32, 32, 8)]


@pytest.mark.parametrize("cin,cout,hw", VGG)
def test_vgg_convs_match_the_compact_path(rng, cin, cout, hw):
    layer = Conv2D(cin, cout, 3, padding=1, rng=1)
    layer.bias.data[:] = rng.standard_normal(cout)
    x = np.maximum(rng.standard_normal((16, cin, hw, hw)), 0).astype(np.float32)
    out = layer.forward(x)
    assert out.tobytes() == compact_forward(layer, x).tobytes()
    dout = rng.standard_normal(out.shape).astype(np.float32)
    dx = layer.backward(dout)
    dx_want, dw_want = compact_backward(layer, x, dout)
    assert dx.tobytes() == dx_want.tobytes()
    # the sum runs over the grid's zero columns too: BLAS groups it differently
    scale = np.abs(dw_want).max()
    np.testing.assert_allclose(layer.weight.grad, dw_want, rtol=1e-5, atol=1e-5 * scale)
