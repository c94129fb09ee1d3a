"""End-to-end SZ compressor: error bound, zero preservation, ratios."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression import SZCompressor, max_abs_error


class TestErrorBound:
    @pytest.mark.parametrize("eb", [1e-4, 1e-3, 1e-2, 0.1])
    def test_bound_honored(self, activation_tensor, eb):
        c = SZCompressor(eb, entropy="zlib")
        y = c.roundtrip(activation_tensor)
        ulp = float(np.spacing(np.float32(np.abs(activation_tensor).max())))
        assert max_abs_error(activation_tensor, y) <= eb * (1 + 1e-6) + ulp

    @pytest.mark.parametrize("entropy", ["huffman", "zlib", "none"])
    def test_all_entropy_stages_bitexact_same_codes(self, activation_tensor, entropy):
        c = SZCompressor(1e-3, entropy=entropy)
        y = c.roundtrip(activation_tensor)
        assert max_abs_error(activation_tensor, y) <= 1e-3 * (1 + 1e-6)

    def test_relative_mode(self, dense_tensor):
        c = SZCompressor(1e-3, mode="rel", entropy="zlib")
        ct = c.compress(dense_tensor)
        vrange = float(dense_tensor.max() - dense_tensor.min())
        assert ct.error_bound == pytest.approx(1e-3 * vrange)
        y = c.decompress(ct)
        assert max_abs_error(dense_tensor, y) <= ct.error_bound * (1 + 1e-6)

    def test_per_call_override(self, dense_tensor):
        c = SZCompressor(1e-3, entropy="zlib")
        ct = c.compress(dense_tensor, error_bound=0.05)
        assert ct.error_bound == 0.05
        y = c.decompress(ct)
        assert max_abs_error(dense_tensor, y) <= 0.05 * (1 + 1e-6)

    def test_1d_and_2d_inputs(self, rng):
        c = SZCompressor(1e-3, entropy="zlib")
        for shape in [(1000,), (40, 50)]:
            x = rng.standard_normal(shape).astype(np.float32)
            y = c.roundtrip(x)
            assert y.shape == x.shape
            assert max_abs_error(x, y) <= 1e-3 * (1 + 1e-6)

    def test_float64_input(self, rng):
        c = SZCompressor(1e-6, entropy="zlib")
        x = rng.standard_normal((32, 32)).astype(np.float64)
        y = c.roundtrip(x)
        assert y.dtype == np.float64
        assert max_abs_error(x, y) <= 1e-6 * (1 + 1e-6)


class TestZeroHandling:
    def test_zeros_preserved(self, activation_tensor):
        """Section 4.4: ReLU zeros must survive compression exactly."""
        c = SZCompressor(1e-2, entropy="zlib", zero_filter=True)
        y = c.roundtrip(activation_tensor)
        assert np.all(y[activation_tensor == 0] == 0)

    def test_zero_filter_restores_drifted_zeros(self, activation_tensor):
        """With emulated cuSZ zero drift, the filter recovers sparsity."""
        eb = 1e-2
        drifty = SZCompressor(eb, entropy="zlib", zero_filter=False,
                              emulate_zero_drift=True, rng=1)
        y_raw = drifty.roundtrip(activation_tensor)
        zeros = activation_tensor == 0
        assert np.any(y_raw[zeros] != 0)  # the pathology
        assert np.abs(y_raw[zeros]).max() <= eb  # bound still holds

        filtered = SZCompressor(eb, entropy="zlib", zero_filter=True,
                                emulate_zero_drift=True, rng=1)
        y_fix = filtered.roundtrip(activation_tensor)
        assert np.all(y_fix[zeros] == 0)  # the paper's fix

    def test_all_zero_tensor(self):
        c = SZCompressor(1e-3, entropy="zlib")
        x = np.zeros((4, 4, 8, 8), dtype=np.float32)
        ct = c.compress(x)
        assert np.array_equal(c.decompress(ct), x)
        assert ct.compression_ratio > 4  # runs of zeros compress very well

    def test_sparsity_improves_ratio(self, rng):
        from scipy.ndimage import gaussian_filter

        base = gaussian_filter(rng.standard_normal((8, 8, 32, 32)), (0, 0, 1.5, 1.5))
        dense = (base + 10).astype(np.float32)  # no zeros
        sparse = np.maximum(base, 0).astype(np.float32)  # ~50% zeros
        c = SZCompressor(1e-3, entropy="huffman")
        assert c.compress(sparse).compression_ratio > c.compress(dense).compression_ratio


class TestRatios:
    def test_ratio_grows_with_bound(self, activation_tensor):
        c = SZCompressor(entropy="huffman")
        ratios = [
            c.compress(activation_tensor, error_bound=eb).compression_ratio
            for eb in (1e-4, 1e-3, 1e-2)
        ]
        assert ratios[0] < ratios[1] < ratios[2]

    def test_beats_lossless_on_activations(self, activation_tensor):
        from repro.compression import DeflateCompressor

        sz = SZCompressor(1e-3, entropy="huffman").compress(activation_tensor)
        lossless = DeflateCompressor().compress(activation_tensor)
        assert sz.compression_ratio > 2 * lossless.compression_ratio

    def test_nbytes_accounts_everything(self, activation_tensor):
        ct = SZCompressor(1e-3, entropy="huffman").compress(activation_tensor)
        assert ct.nbytes >= len(ct.payload)
        assert ct.original_nbytes == activation_tensor.nbytes


class TestValidation:
    def test_rejects_integer_input(self):
        with pytest.raises(TypeError):
            SZCompressor(1e-3).compress(np.zeros((4, 4), dtype=np.int32))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            SZCompressor(1e-3).compress(np.zeros((0,), dtype=np.float32))

    def test_rejects_nan(self):
        x = np.ones((4, 4), dtype=np.float32)
        x[0, 0] = np.nan
        with pytest.raises(ValueError):
            SZCompressor(1e-3).compress(x)

    def test_rejects_bad_error_bound(self):
        with pytest.raises(ValueError):
            SZCompressor(-1.0)
        with pytest.raises(ValueError):
            SZCompressor(0.0)

    def test_rejects_bad_dict_size(self):
        with pytest.raises(ValueError):
            SZCompressor(1e-3, dict_size=1000)  # not a power of two

    def test_rejects_bad_entropy(self):
        with pytest.raises(ValueError):
            SZCompressor(1e-3, entropy="zstd")

    def test_rejects_bad_mode(self):
        with pytest.raises(ValueError):
            SZCompressor(1e-3, mode="pointwise")


class TestOutliers:
    def test_spiky_data_roundtrips(self, rng):
        """Values far outside the code range must escape correctly."""
        x = rng.standard_normal((16, 16)).astype(np.float32)
        x[::5, ::5] += 1e5  # massive spikes -> Lorenzo residual outliers
        c = SZCompressor(1e-3, entropy="zlib")
        ct = c.compress(x)
        assert ct.outliers.size > 0
        assert max_abs_error(x, c.decompress(ct)) <= 1e-3 * (1 + 1e-6)


@given(
    st.lists(st.floats(-100, 100, allow_nan=False, width=32), min_size=4, max_size=400),
    st.sampled_from([1e-3, 1e-2, 0.5]),
)
@settings(max_examples=50, deadline=None)
def test_property_bound_and_zero_preservation(values, eb):
    x = np.array(values, dtype=np.float32)
    x[x < 0] = 0  # ReLU-like
    c = SZCompressor(eb, entropy="zlib")
    y = c.roundtrip(x)
    # bound holds up to one output-dtype ulp of the data magnitude
    ulp = float(np.spacing(np.float32(np.abs(x).max() + eb)))
    assert np.abs(x - y).max() <= eb * (1 + 1e-6) + ulp
    assert np.all(y[x == 0] == 0)
