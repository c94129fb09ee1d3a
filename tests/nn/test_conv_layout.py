"""Channel-major conv / pool data movement against independent oracles.

``Conv2D`` is checked against a direct-loop convolution (no patch matrix
at all), ``im2col`` / ``col2im`` against the row-major
``sliding_window_view`` formulation they replaced, and ``MaxPool2D``
against the flattened-window ``argmax`` + ``np.add.at`` formulation it
replaced.  Pure data movement must agree bit for bit; anything that goes
through a GEMM agrees to a tolerance fixed here from the result's dtype.
"""

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from repro.nn import AvgPool2D, Conv2D, MaxPool2D
from repro.nn.gradcheck import check_layer_gradients
from repro.nn.layers import col2im, conv_output_hw, im2col

TOL = {np.dtype(np.float32): dict(rtol=1e-4, atol=1e-4), np.dtype(np.float64): dict(rtol=1e-10, atol=1e-10)}

GEOMETRIES = [(k, s, p) for k in (1, 3, 5) for s in (1, 2) for p in (0, 1, 2)]


# ---------------------------------------------------------------- oracles
def conv_naive(x, w, b, stride, padding):
    """Direct-loop convolution and its three gradients, in float64."""
    n, c, h, wd = x.shape
    cout, _, k, _ = w.shape
    ho, wo = conv_output_hw(h, wd, k, stride, padding)
    xp = np.zeros((n, c, h + 2 * padding, wd + 2 * padding))
    xp[:, :, padding : padding + h, padding : padding + wd] = x
    w = w.astype(np.float64)
    out = np.zeros((n, cout, ho, wo))
    for i in range(n):
        for o in range(cout):
            for a in range(ho):
                for bb in range(wo):
                    patch = xp[i, :, a * stride : a * stride + k, bb * stride : bb * stride + k]
                    out[i, o, a, bb] = (patch * w[o]).sum() + b[o]

    def grads(dout):
        dw, dxp = np.zeros_like(w), np.zeros_like(xp)
        for i in range(n):
            for o in range(cout):
                for a in range(ho):
                    for bb in range(wo):
                        win = (i, slice(None), slice(a * stride, a * stride + k), slice(bb * stride, bb * stride + k))
                        dw[o] += dout[i, o, a, bb] * xp[win]
                        dxp[win] += dout[i, o, a, bb] * w[o]
        dx = dxp[:, :, padding : padding + h, padding : padding + wd]
        return dw, dout.sum(axis=(0, 2, 3)), dx

    return out, grads


def im2col_rowmajor(x, kernel, stride, padding):
    """The parent commit's patch matrix: ``(N*Ho*Wo, C*k*k)``."""
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    n, c = x.shape[:2]
    windows = sliding_window_view(x, (kernel, kernel), axis=(2, 3))[:, :, ::stride, ::stride]
    ho, wo = windows.shape[2], windows.shape[3]
    return windows.transpose(0, 2, 3, 1, 4, 5).reshape(n * ho * wo, c * kernel * kernel)


def maxpool_flat_argmax(x, kernel, stride, padding):
    """The parent commit's forward: argmax over each flattened window."""
    if padding:
        pad = ((0, 0), (0, 0), (padding, padding), (padding, padding))
        x = np.pad(x, pad, constant_values=-np.inf)
    w = sliding_window_view(x, (kernel, kernel), axis=(2, 3))[:, :, ::stride, ::stride]
    flat = w.reshape(*w.shape[:4], -1)
    idx = flat.argmax(axis=-1)
    return np.take_along_axis(flat, idx[..., None], axis=-1)[..., 0], idx


def maxpool_add_at(idx, dout, x_shape, kernel, stride, padding):
    """The parent commit's backward: one flat ``np.add.at``."""
    n, c, h, w = x_shape
    ho, wo = dout.shape[2:]
    hp, wp = h + 2 * padding, w + 2 * padding
    rows = (np.arange(ho) * stride)[:, None] + idx // kernel
    cols = np.arange(wo) * stride + idx % kernel
    plane = (np.arange(n * c) * (hp * wp)).reshape(n, c, 1, 1)
    dxp = np.zeros(n * c * hp * wp, dtype=dout.dtype)
    np.add.at(dxp, (plane + rows * wp + cols).reshape(-1), dout.reshape(-1))
    return dxp.reshape(n, c, hp, wp)[:, :, padding : padding + h, padding : padding + w]


def post_relu(rng, shape=(4, 6, 12, 10)):
    return np.maximum(rng.standard_normal(shape), 0).astype(np.float32)


# ------------------------------------------------------------------- conv
class TestConvAgainstDirectLoops:
    @pytest.mark.parametrize("contiguous", [True, False], ids=["contiguous", "strided-view"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
    @pytest.mark.parametrize("kernel,stride,padding", GEOMETRIES)
    def test_forward_and_all_three_gradients(self, rng, kernel, stride, padding, dtype, contiguous):
        n, c, h, w, cout = 2, 3, 9, 7, 4
        if contiguous:
            x = rng.standard_normal((n, c, h, w)).astype(dtype)
        else:  # channel-reversed, every other row and column of a larger buffer
            x = rng.standard_normal((n, c, 2 * h, 2 * w)).astype(dtype)[:, ::-1, ::2, 1::2]
            assert not x.flags.c_contiguous
        conv = Conv2D(c, cout, kernel, stride=stride, padding=padding, rng=5)
        conv.bias.data[:] = rng.standard_normal(cout)
        want, grads = conv_naive(x, conv.weight.data, conv.bias.data, stride, padding)

        out = conv.forward(x)
        assert out.dtype == dtype and out.shape == want.shape == conv.output_shape(x.shape)
        np.testing.assert_allclose(out, want, **TOL[out.dtype])

        dout = rng.standard_normal(out.shape).astype(dtype)
        dx = conv.backward(dout)
        dw, db, dx_want = grads(dout)
        assert dx.dtype == dtype and dx.shape == x.shape
        np.testing.assert_allclose(dx, dx_want, **TOL[dx.dtype])
        # parameter gradients accumulate in the parameters' float32
        np.testing.assert_allclose(conv.weight.grad, dw, rtol=1e-4, atol=1e-4)
        np.testing.assert_allclose(conv.bias.grad, db, rtol=1e-4, atol=1e-4)

    @pytest.mark.parametrize("kernel,stride,padding", [(3, 1, 1), (3, 2, 0), (1, 1, 0), (5, 2, 2)])
    def test_forward_output_is_c_contiguous_nchw(self, rng, kernel, stride, padding):
        x = rng.standard_normal((3, 2, 8, 11)).astype(np.float32)
        out = Conv2D(2, 5, kernel, stride=stride, padding=padding, rng=0).forward(x)
        assert out.flags.c_contiguous and out.shape[:2] == (3, 5)

    def test_gradcheck_strided_padded_nonsquare(self, rng):
        x = rng.standard_normal((2, 3, 7, 10)).astype(np.float32)
        check_layer_gradients(Conv2D(3, 4, 3, stride=2, padding=2, rng=1), x)

    def test_input_is_not_modified_and_saved_tensor_is_the_input(self, rng):
        x = rng.standard_normal((2, 3, 6, 6)).astype(np.float32)
        keep = x.copy()
        conv = Conv2D(3, 2, 3, padding=1, rng=0)
        conv.forward(x)
        assert conv._saved["x"] is x
        conv.backward(np.ones((2, 2, 6, 6), dtype=np.float32))
        np.testing.assert_array_equal(x, keep)


class TestPatchMatrixLayout:
    @pytest.mark.parametrize("kernel,stride,padding", GEOMETRIES)
    def test_im2col_is_the_transpose_of_the_rowmajor_matrix(self, rng, kernel, stride, padding):
        x = rng.standard_normal((2, 3, 9, 7)).astype(np.float32)
        cols = im2col(x, kernel, stride, padding)
        ho, wo = conv_output_hw(9, 7, kernel, stride, padding)
        assert cols.shape == (3 * kernel * kernel, 2 * ho * wo) and cols.flags.c_contiguous
        np.testing.assert_array_equal(cols, im2col_rowmajor(x, kernel, stride, padding).T)

    @pytest.mark.parametrize("kernel,stride,padding", GEOMETRIES)
    def test_col2im_is_the_adjoint_of_im2col(self, rng, kernel, stride, padding):
        """<im2col(x), d> == <x, col2im(d)> for every x, d."""
        x = rng.standard_normal((2, 3, 9, 7))
        d = rng.standard_normal(im2col(x, kernel, stride, padding).shape)
        dx = col2im(d, x.shape, kernel, stride, padding)
        assert dx.shape == x.shape
        assert (im2col(x, kernel, stride, padding) * d).sum() == pytest.approx((x * dx).sum(), rel=1e-10)


# ------------------------------------------------------------------- pool
class TestMaxPoolSlabs:
    @pytest.mark.parametrize("kernel,stride,padding", [(2, 2, 0), (3, 2, 0), (3, 2, 1), (2, 3, 0), (3, 1, 1)])
    def test_saved_index_equals_flat_argmax_on_post_relu(self, rng, kernel, stride, padding):
        x = post_relu(rng)
        assert (x == 0).mean() > 0.3  # plenty of tied windows
        mp = MaxPool2D(kernel, stride=stride, padding=padding)
        out = mp.forward(x)
        want, idx = maxpool_flat_argmax(x, kernel, stride, padding)
        assert mp._saved["idx"].dtype == np.uint8  # offsets 0 .. k*k-1 <= 8
        np.testing.assert_array_equal(mp._saved["idx"], idx)
        np.testing.assert_array_equal(out, want)
        assert out.flags.c_contiguous and out.dtype == x.dtype

        dout = rng.standard_normal(out.shape).astype(np.float32)
        dx = mp.backward(dout)
        assert dx.shape == x.shape and dx.dtype == dout.dtype
        np.testing.assert_allclose(dx, maxpool_add_at(idx, dout, x.shape, kernel, stride, padding), rtol=1e-6, atol=1e-6)

    def test_all_zero_window_routes_to_first_element(self):
        mp = MaxPool2D(2)
        mp.forward(np.zeros((1, 1, 4, 4), dtype=np.float32))
        assert not mp._saved["idx"].any()
        dx = mp.backward(np.arange(1, 5, dtype=np.float32).reshape(1, 1, 2, 2))
        want = np.zeros((1, 1, 4, 4), dtype=np.float32)
        want[0, 0, ::2, ::2] = [[1, 2], [3, 4]]
        np.testing.assert_array_equal(dx, want)

    def test_tied_maximum_routes_to_first_occurrence(self):
        x = np.array([[[[0, 7, 1], [7, 7, 0], [2, 0, 0]]]], dtype=np.float32)
        mp = MaxPool2D(3)
        assert mp.forward(x).item() == 7.0
        assert mp._saved["idx"].item() == 1  # (0, 1), not (1, 0) or (1, 1)
        dx = mp.backward(np.full((1, 1, 1, 1), 5.0, dtype=np.float32))
        assert dx[0, 0, 0, 1] == 5.0 and dx.sum() == 5.0

    def test_overlapping_windows_still_accumulate(self):
        """5x5, k=3, s=2: the centre cell is the max of all four windows."""
        x = np.zeros((1, 1, 5, 5), dtype=np.float32)
        x[0, 0, 2, 2] = 9.0
        mp = MaxPool2D(3, stride=2)
        mp.forward(x)
        dx = mp.backward(np.array([[[[1.0, 2.0], [3.0, 4.0]]]], dtype=np.float32))
        assert dx[0, 0, 2, 2] == 10.0 and dx.sum() == 10.0

    def test_stride_above_kernel_leaves_skipped_cells_zero(self, rng):
        x = rng.standard_normal((1, 2, 7, 7)).astype(np.float32)
        mp = MaxPool2D(2, stride=3)
        out = mp.forward(x)
        dx = mp.backward(np.ones_like(out))
        assert dx.sum() == out.size and not dx[:, :, 2::3].any() and not dx[:, :, :, 2::3].any()


class TestAvgPoolSlabs:
    @pytest.mark.parametrize("kernel,stride,padding", [(2, 2, 0), (3, 2, 1), (3, 1, 0)])
    def test_matches_window_mean(self, rng, kernel, stride, padding):
        x = rng.standard_normal((2, 3, 9, 7)).astype(np.float32)
        xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
        w = sliding_window_view(xp, (kernel, kernel), axis=(2, 3))[:, :, ::stride, ::stride]
        out = AvgPool2D(kernel, stride=stride, padding=padding).forward(x)
        assert out.dtype == x.dtype and out.flags.c_contiguous
        np.testing.assert_allclose(out, w.mean(axis=(-2, -1)), rtol=1e-5, atol=1e-6)
