"""Baseline codecs: JPEG-like (unbounded error) and lossless (<= ~2x)."""

import numpy as np
import pytest

from repro.compression import (
    DeflateCompressor,
    JpegLikeCompressor,
    SparseLosslessCompressor,
    max_abs_error,
    psnr,
)


class TestJpegLike:
    def test_roundtrip_shape_dtype(self, activation_tensor):
        j = JpegLikeCompressor(quality=50)
        y = j.roundtrip(activation_tensor)
        assert y.shape == activation_tensor.shape
        assert y.dtype == activation_tensor.dtype

    def test_non_multiple_of_8(self, rng):
        x = rng.standard_normal((2, 3, 13, 19)).astype(np.float32)
        y = JpegLikeCompressor(quality=75).roundtrip(x)
        assert y.shape == x.shape

    def test_quality_controls_fidelity(self, dense_tensor):
        e_low = max_abs_error(dense_tensor, JpegLikeCompressor(quality=10).roundtrip(dense_tensor))
        e_high = max_abs_error(dense_tensor, JpegLikeCompressor(quality=95).roundtrip(dense_tensor))
        assert e_high < e_low

    def test_quality_controls_ratio(self, dense_tensor):
        r_low = JpegLikeCompressor(quality=10).compress(dense_tensor).compression_ratio
        r_high = JpegLikeCompressor(quality=95).compress(dense_tensor).compression_ratio
        assert r_low > r_high

    def test_error_not_bounded(self, activation_tensor):
        """The paper's core criticism: no per-element error control."""
        j = JpegLikeCompressor(quality=50)
        err = max_abs_error(activation_tensor, j.roundtrip(activation_tensor))
        # error scales with data magnitude, far beyond any SZ-style bound
        assert err > 1e-3

    def test_zeros_not_preserved(self, activation_tensor):
        """JPEG smears zeros — exactly what Section 4.4 fixes in SZ."""
        y = JpegLikeCompressor(quality=50).roundtrip(activation_tensor)
        zeros = activation_tensor == 0
        assert np.any(y[zeros] != 0)

    def test_reasonable_psnr(self, dense_tensor):
        y = JpegLikeCompressor(quality=90).roundtrip(dense_tensor)
        assert psnr(dense_tensor, y) > 25

    def test_rejects_bad_quality(self):
        with pytest.raises(ValueError):
            JpegLikeCompressor(quality=0)
        with pytest.raises(ValueError):
            JpegLikeCompressor(quality=101)

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            JpegLikeCompressor().compress(np.zeros(10, dtype=np.float32))

    def test_rejects_int(self):
        with pytest.raises(TypeError):
            JpegLikeCompressor().compress(np.zeros((8, 8), dtype=np.int32))


class TestLossless:
    @pytest.mark.parametrize("cls", [DeflateCompressor, SparseLosslessCompressor])
    def test_exactly_lossless(self, activation_tensor, cls):
        c = cls()
        assert np.array_equal(c.roundtrip(activation_tensor), activation_tensor)

    @pytest.mark.parametrize("cls", [DeflateCompressor, SparseLosslessCompressor])
    def test_lossless_on_random_noise(self, rng, cls):
        x = rng.standard_normal((4, 4, 16, 16)).astype(np.float32)
        c = cls()
        assert np.array_equal(c.roundtrip(x), x)

    def test_deflate_ceiling_on_dense_floats(self, rng):
        """The <= ~2x lossless ceiling the paper cites (Section 2.2)."""
        x = np.random.default_rng(0).standard_normal((64, 64, 8)).astype(np.float32)
        ratio = DeflateCompressor().compress(x).compression_ratio
        assert ratio < 2.0

    def test_sparse_exploits_sparsity(self, rng):
        x = np.maximum(rng.standard_normal((32, 32, 8)), 1.2).astype(np.float32)
        x[x == 1.2] = 0  # ~88% zeros
        sparse = SparseLosslessCompressor().compress(x).compression_ratio
        plain = DeflateCompressor().compress(x).compression_ratio
        assert sparse > 1.0
        # bitmap overhead is 1/32 of fp32; dense payload shrinks with R
        assert sparse > 2.0

    def test_sparse_all_zero(self):
        x = np.zeros((16, 16), dtype=np.float32)
        c = SparseLosslessCompressor()
        ct = c.compress(x)
        assert np.array_equal(c.decompress(ct), x)
        assert ct.compression_ratio > 10

    def test_nbytes_fields(self, activation_tensor):
        ct = SparseLosslessCompressor().compress(activation_tensor)
        assert ct.nbytes == len(ct.payload) + len(ct.bitmap) + len(ct.planes) + 32
        assert ct.original_nbytes == activation_tensor.nbytes
