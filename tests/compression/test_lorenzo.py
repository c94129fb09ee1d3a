"""Lorenzo predictor: exact invertibility and structural properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.compression.szlike import lorenzo_decode, lorenzo_encode


class TestRoundtrip:
    @pytest.mark.parametrize("ndim", [1, 2, 3])
    def test_exact_inverse_3d_input(self, rng, ndim):
        q = rng.integers(-1000, 1000, size=(5, 7, 9)).astype(np.int64)
        assert np.array_equal(lorenzo_decode(lorenzo_encode(q, ndim), ndim), q)

    @pytest.mark.parametrize("ndim", [1, 2])
    def test_exact_inverse_batched_axes(self, rng, ndim):
        q = rng.integers(-50, 50, size=(2, 3, 8, 8)).astype(np.int64)
        assert np.array_equal(lorenzo_decode(lorenzo_encode(q, ndim), ndim), q)

    def test_single_element(self):
        q = np.array([[7]], dtype=np.int64)
        assert np.array_equal(lorenzo_decode(lorenzo_encode(q, 2), 2), q)

    def test_large_values_no_overflow(self):
        q = np.array([2**40, -(2**40), 2**40], dtype=np.int64)
        assert np.array_equal(lorenzo_decode(lorenzo_encode(q, 1), 1), q)


class TestStructure:
    def test_constant_field_residuals_sparse(self):
        """A constant plane predicts perfectly except the first element."""
        q = np.full((16, 16), 42, dtype=np.int64)
        d = lorenzo_encode(q, 2)
        assert d[0, 0] == 42
        assert np.count_nonzero(d) == 1

    def test_linear_ramp_residuals_small(self):
        """Smooth (linear) data compresses to small residuals."""
        q = (np.arange(32)[:, None] + np.arange(32)[None, :]).astype(np.int64)
        d = lorenzo_encode(q, 2)
        assert np.abs(d[1:, 1:]).max() == 0  # 2-D Lorenzo is exact on planes

    def test_1d_is_first_difference(self, rng):
        q = rng.integers(-10, 10, size=20).astype(np.int64)
        d = lorenzo_encode(q, 1)
        assert d[0] == q[0]
        assert np.array_equal(d[1:], np.diff(q))

    def test_2d_matches_manual_stencil(self, rng):
        q = rng.integers(-10, 10, size=(6, 6)).astype(np.int64)
        d = lorenzo_encode(q, 2)
        # interior: q[i,j] - q[i-1,j] - q[i,j-1] + q[i-1,j-1]
        i, j = 3, 4
        expected = q[i, j] - q[i - 1, j] - q[i, j - 1] + q[i - 1, j - 1]
        assert d[i, j] == expected

    def test_batch_independence(self, rng):
        """Leading axes are carried: each feature map transforms alone."""
        q = rng.integers(-10, 10, size=(3, 4, 4)).astype(np.int64)
        d = lorenzo_encode(q, 2)
        for b in range(3):
            assert np.array_equal(d[b], lorenzo_encode(q[b], 2))


class TestValidation:
    def test_rejects_float_input(self):
        with pytest.raises(TypeError):
            lorenzo_encode(np.zeros((4, 4), dtype=np.float32), 2)

    @pytest.mark.parametrize("ndim", [-1, 4])
    def test_rejects_bad_ndim(self, ndim):
        with pytest.raises(ValueError):
            lorenzo_encode(np.zeros((4, 4, 4, 4), dtype=np.int64), ndim)

    def test_zero_axes_is_no_prediction(self):
        q = np.arange(-30, 34, dtype=np.int64).reshape(4, 4, 4)
        np.testing.assert_array_equal(lorenzo_encode(q, 0), q)
        np.testing.assert_array_equal(lorenzo_decode(q, 0), q)

    def test_rejects_insufficient_axes(self):
        with pytest.raises(ValueError):
            lorenzo_encode(np.zeros(5, dtype=np.int64), 2)


@given(
    arrays(np.int64, st.tuples(st.integers(1, 6), st.integers(1, 6)),
           elements=st.integers(-(2**30), 2**30)),
    st.integers(1, 2),
)
@settings(max_examples=60, deadline=None)
def test_property_roundtrip_2d(q, ndim):
    assert np.array_equal(lorenzo_decode(lorenzo_encode(q, ndim), ndim), q)
