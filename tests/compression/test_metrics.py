"""Compression metrics and distribution tests."""

import warnings

import numpy as np
import pytest

from repro.compression import (
    compression_ratio,
    error_stats,
    max_abs_error,
    mse,
    normality_pvalue,
    psnr,
    uniformity_pvalue,
)
from repro.compression.metrics import ErrorStats


class TestBasicMetrics:
    def test_compression_ratio(self):
        x = np.zeros(1000, dtype=np.float32)
        assert compression_ratio(x, 1000) == pytest.approx(4.0)

    def test_compression_ratio_rejects_zero(self):
        with pytest.raises(ValueError):
            compression_ratio(np.zeros(4, dtype=np.float32), 0)

    def test_max_abs_error(self):
        a = np.array([1.0, 2.0, 3.0])
        b = np.array([1.0, 2.5, 2.0])
        assert max_abs_error(a, b) == pytest.approx(1.0)

    def test_mse(self):
        a = np.zeros(4)
        b = np.full(4, 2.0)
        assert mse(a, b) == pytest.approx(4.0)

    def test_psnr_identical_is_inf(self):
        x = np.linspace(0, 1, 100)
        assert psnr(x, x) == np.inf

    def test_psnr_of_a_range_wider_than_float32(self):
        x = np.array([-3e38, 3e38], dtype=np.float32)
        with np.errstate(over="raise"):
            assert np.isfinite(psnr(x, x * np.float32(0.5)))

    def test_psnr_decreases_with_error(self, rng):
        x = rng.standard_normal(1000)
        p1 = psnr(x, x + 0.01 * rng.standard_normal(1000))
        p2 = psnr(x, x + 0.1 * rng.standard_normal(1000))
        assert p1 > p2


class TestErrorStats:
    def test_moments(self, rng):
        e = rng.normal(0.5, 2.0, size=100_000)
        s = error_stats(e)
        assert s.mean == pytest.approx(0.5, abs=0.05)
        assert s.std == pytest.approx(2.0, rel=0.05)
        assert abs(s.kurtosis) < 0.2
        assert s.n == 100_000


    def test_skew_and_kurtosis_equal_scipy(self, rng):
        """The NumPy central moments against the implementation they replaced."""
        from scipy import stats

        for e in (rng.exponential(1e-3, 5000) + 5.0, rng.uniform(-1e-3, 1e-3, 777)):
            s = error_stats(e)
            assert s.skew == pytest.approx(stats.skew(e), abs=1e-12)
            assert s.kurtosis == pytest.approx(stats.kurtosis(e), abs=1e-12)
            assert (s.mean, s.std) == (e.mean(), e.std())


class TestDegenerateSamples:
    """Silent wrong values and warnings on degenerate input, every
    warning promoted to an error."""

    @pytest.fixture(autouse=True)
    def warnings_are_errors(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            yield

    def test_psnr_of_a_wrong_reconstruction_of_constant_data(self):
        assert psnr(np.zeros(4), np.ones(4)) == -np.inf
        assert psnr(np.zeros(4), np.zeros(4)) == np.inf

    @pytest.mark.parametrize("value", [0.0, 0.1, -3e7])
    def test_constant_sample_has_zero_skew_and_kurtosis(self, value):
        # all-zero errors are what every lossless codec produces; 0.1 is a
        # constant whose mean does not round back to it
        s = error_stats(np.full(1000, value))
        assert (s.skew, s.kurtosis, s.n) == (0.0, 0.0, 1000)
        assert s.mean == pytest.approx(value) and s.std < 1e-9 and s.max_abs == abs(value)

    def test_empty_sample(self):
        assert error_stats(np.array([])) == ErrorStats(0.0, 0.0, 0.0, 0.0, 0.0, 0)

    def test_tiny_samples_keep_zero_higher_moments(self):
        assert error_stats([2.0]).kurtosis == 0.0
        assert (error_stats([1.0, 2.0]).skew, error_stats([1.0, 2.0, 4.0]).kurtosis) == (0.0, 0.0)

    @pytest.mark.parametrize("bound", [0.0, -1e-3, float("nan")])
    def test_uniformity_needs_a_positive_bound(self, bound, rng):
        with pytest.raises(ValueError, match="positive"):
            uniformity_pvalue(rng.uniform(-1, 1, 100), bound)


class TestDistributionTests:
    def test_uniform_errors_pass_uniformity(self, rng):
        e = rng.uniform(-1e-3, 1e-3, size=5000)
        assert uniformity_pvalue(e, 1e-3) > 0.01

    def test_normal_errors_fail_uniformity(self, rng):
        e = np.clip(rng.normal(0, 3e-4, size=5000), -1e-3, 1e-3)
        assert uniformity_pvalue(e, 1e-3) < 0.01

    def test_normal_errors_pass_normality(self, rng):
        e = rng.normal(0, 1.0, size=3000)
        assert normality_pvalue(e) > 0.01

    def test_uniform_errors_fail_normality(self, rng):
        e = rng.uniform(-1, 1, size=5000)
        assert normality_pvalue(e) < 0.01

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            uniformity_pvalue(np.array([]), 1.0)
        with pytest.raises(ValueError):
            normality_pvalue(np.array([]))

    def test_constant_sample_not_normal(self):
        assert normality_pvalue(np.ones(100)) == 0.0


class TestSZErrorIsUniform:
    """Figure 3: the compressor's reconstruction error is uniform."""

    def test_error_uniformity_on_smooth_data(self, dense_tensor):
        from repro.compression import SZCompressor

        eb = 1e-3
        c = SZCompressor(eb, entropy="zlib", zero_filter=False)
        y = c.roundtrip(dense_tensor)
        err = (dense_tensor.astype(np.float64) - y).reshape(-1)
        # subsample to keep the KS test calibrated
        assert uniformity_pvalue(err[::7][:4000], eb) > 1e-4
        s = error_stats(err)
        # uniform(-eb, eb): std = eb/sqrt(3), mean 0
        assert s.std == pytest.approx(eb / np.sqrt(3), rel=0.1)
        assert abs(s.mean) < 0.1 * eb
