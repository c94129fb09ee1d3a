"""Dual-quantization: the error-bound guarantee lives here."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression.szlike import (
    codes_from_residuals,
    prequantize,
    reconstruct,
    residuals_from_codes,
)


class TestPrequantize:
    def test_error_bounded(self, rng):
        x = rng.standard_normal(1000).astype(np.float32) * 100
        for eb in (1e-4, 1e-2, 1.0):
            q = prequantize(x, eb)
            # compare in float64: the bound is exact in the quantizer's
            # arithmetic; casting the output to float32 adds at most one
            # ulp of the data magnitude on top (documented behaviour).
            err = np.abs(x.astype(np.float64) - reconstruct(q, eb, dtype=np.float64))
            assert err.max() <= eb * (1 + 1e-9)

    def test_zero_maps_to_zero(self):
        assert prequantize(np.zeros(5, dtype=np.float32), 1e-3).sum() == 0

    def test_grid_pitch_is_two_eb(self):
        eb = 0.5
        x = np.array([0.0, 0.999, 1.001, 2.0], dtype=np.float32)
        q = prequantize(x, eb)
        assert list(q) == [0, 1, 1, 2]

    def test_negative_symmetric(self, rng):
        x = rng.standard_normal(500).astype(np.float32)
        q_pos = prequantize(x, 1e-2)
        q_neg = prequantize(-x, 1e-2)
        # rint ties-to-even is symmetric
        assert np.array_equal(q_pos, -q_neg)

    @pytest.mark.parametrize("bound", [0.0, float("nan"), float("inf")])
    def test_rejects_bound_outside_zero_to_inf(self, bound):
        with pytest.raises(ValueError, match="positive and finite"):
            prequantize(np.ones(3), bound)

    def test_int64_for_small_bounds(self):
        """Tiny bounds on large values must not overflow."""
        x = np.array([1e7], dtype=np.float64)
        q = prequantize(x, 1e-6)
        assert q.dtype == np.int64
        assert abs(float(q[0]) * 2e-6 - 1e7) <= 1e-6 + 1e-4


class TestCodes:
    def test_roundtrip_inliers(self, rng):
        delta = rng.integers(-500, 500, size=(13, 17)).astype(np.int64)
        qr = codes_from_residuals(delta, radius=512)
        assert qr.outlier_count == 0
        assert np.array_equal(residuals_from_codes(qr), delta)

    def test_roundtrip_with_outliers(self, rng):
        delta = rng.integers(-500, 500, size=200).astype(np.int64)
        delta[::17] = 10_000  # force escapes
        delta[::23] = -10_000
        qr = codes_from_residuals(delta, radius=512)
        assert qr.outlier_count > 0
        assert np.array_equal(residuals_from_codes(qr), delta)

    def test_boundary_values(self):
        """+-(radius) escapes; +-(radius-1) stays inline."""
        delta = np.array([511, -511, 512, -512], dtype=np.int64)
        qr = codes_from_residuals(delta, radius=512)
        assert qr.outlier_count == 2
        assert np.array_equal(residuals_from_codes(qr), delta)

    def test_marker_zero_reserved(self, rng):
        delta = rng.integers(-100, 100, size=50).astype(np.int64)
        qr = codes_from_residuals(delta, radius=512)
        assert (qr.codes == 0).sum() == qr.outlier_count

    def test_outlier_ratio(self):
        delta = np.array([0, 0, 0, 99999], dtype=np.int64)
        qr = codes_from_residuals(delta, radius=512)
        assert qr.outlier_ratio == pytest.approx(0.25)

    def test_mismatched_outliers_detected(self, rng):
        delta = rng.integers(-100, 100, size=50).astype(np.int64)
        qr = codes_from_residuals(delta, radius=512)
        qr.outliers = np.array([1, 2, 3], dtype=np.int64)  # corrupt
        with pytest.raises(ValueError):
            residuals_from_codes(qr)

    def test_rejects_tiny_radius(self):
        with pytest.raises(ValueError):
            codes_from_residuals(np.zeros(4, dtype=np.int64), radius=1)

    def test_uint32_codes_for_large_radius(self):
        delta = np.zeros(4, dtype=np.int64)
        qr = codes_from_residuals(delta, radius=2**17)
        assert qr.codes.dtype == np.uint32


@given(
    st.lists(st.floats(-1e4, 1e4, allow_nan=False, width=32), min_size=1, max_size=200),
    st.floats(1e-5, 10.0),
)
@settings(max_examples=80, deadline=None)
def test_property_error_bound(values, eb):
    x = np.array(values, dtype=np.float32)
    x64 = x.astype(np.float64)
    q = prequantize(x, eb)
    # The contract is exact in the quantizer's float64 arithmetic: the
    # only slack is float64 rounding itself (a few ulps of the data
    # magnitude — orders of magnitude below any float32 ulp).
    ulp64 = float(np.spacing(np.abs(x64).max() + eb))
    err64 = np.abs(x64 - reconstruct(q, eb, dtype=np.float64))
    assert err64.max() <= eb + 4 * ulp64
    # Casting the reconstruction to the output dtype adds at most half an
    # ulp of the data magnitude on top (documented behaviour).
    half_ulp32 = 0.5 * float(np.spacing(np.float32(np.abs(x).max() + eb)))
    err32 = np.abs(x64 - reconstruct(q, eb).astype(np.float64))
    assert err32.max() <= eb + half_ulp32 + 4 * ulp64
