"""``im2col`` against a naive per-window reference, over random geometry.

The patch matrix is filled by one strided copy out of the padded buffer
(a window view of it); the reference gathers each window's elements one
``(i, j)`` offset at a time out of ``np.pad``.  Inputs come contiguous,
channel-reversed, row-stepped and channels-last, so the window view is
built both over the borrowed padded buffer and, at padding 0, over the
caller's array with its own strides.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.layers import conv_output_hw, im2col

LAYOUTS = ["contiguous", "channel-reversed", "row-stepped", "channels-last"]


def reference(x, k, s, p):
    """Window by window: output pixel ``(y, x)`` of every image and
    channel takes its ``k*k`` elements from ``np.pad``'s border, one
    offset ``(i, j)`` at a time."""
    n, c, h, w = x.shape
    ho, wo = conv_output_hw(h, w, k, s, p)
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
    cols = np.empty((c, k, k, n, ho, wo), x.dtype)
    for y in range(ho):
        for xo in range(wo):
            for i in range(k):
                for j in range(k):
                    cols[:, i, j, :, y, xo] = xp[:, :, y * s + i, xo * s + j].T
    return cols.reshape(c * k * k, n * ho * wo)


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
    s = draw(st.integers(1, 3))
    p = draw(st.integers(0, k - 1))
    n, c = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    h = draw(st.integers(max(1, k - 2 * p), 7))
    w = draw(st.integers(max(1, k - 2 * p), 7))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    layout = draw(st.sampled_from(LAYOUTS))
    seed = draw(st.integers(0, 2**16))
    return k, s, p, (n, c, h, w), dtype, layout, seed


@given(cases())
@settings(max_examples=300, deadline=None)
def test_im2col_equals_the_per_window_reference(case):
    k, s, p, shape, dtype, layout, seed = case
    values = np.random.default_rng(seed).standard_normal(shape).astype(dtype)
    x = laid_out(values, layout)
    assert (x == values).all()
    if layout != "contiguous":
        assert not x.flags.c_contiguous or 1 in shape
    want = reference(values, k, s, p)
    np.testing.assert_array_equal(im2col(x, k, s, p), want)
    # into a caller's buffer holding garbage: every element is written
    out = np.full(want.shape, np.nan, dtype)
    assert im2col(x, k, s, p, out=out) is out
    np.testing.assert_array_equal(out, want)
