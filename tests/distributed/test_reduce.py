"""Deterministic weighted reduction: the coordinator's float addition."""

from __future__ import annotations

import numpy as np
import pytest

from repro.distributed import reduce_arrays


def arrays(n, shape=(5, 3), seed=0):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal(shape).astype(np.float32) for _ in range(n)]


class TestReduceArrays:
    def test_weighted_mean_matches_numpy(self):
        arrs = arrays(4)
        weights = [4.0, 4.0, 3.0, 5.0]
        out = reduce_arrays(arrs, weights)
        expect = np.average(
            np.stack([a.astype(np.float64) for a in arrs]),
            axis=0,
            weights=weights,
        )
        np.testing.assert_allclose(out, expect.astype(np.float32), rtol=1e-6)
        assert out.dtype == np.float32

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7])
    def test_bit_identical_across_repeats(self, n):
        arrs = arrays(n, seed=n)
        weights = [float(i + 1) for i in range(n)]
        a = reduce_arrays(arrs, weights)
        b = reduce_arrays([np.array(x) for x in arrs], list(weights))
        np.testing.assert_array_equal(a, b)

    def test_single_array_is_identity(self):
        (a,) = arrays(1)
        np.testing.assert_array_equal(reduce_arrays([a], [2.0]), a)

    def test_sums_over_the_fixed_rank_tree(self):
        """Five ranks pair as ((0+1) + (2+3)) + 4, terms and weights alike."""
        arrs = arrays(5, seed=3)
        weights = [1.0, 2.0, 3.0, 4.0, 5.0]
        t = [a.astype(np.float64) * w for a, w in zip(arrs, weights)]
        expect = (((t[0] + t[1]) + (t[2] + t[3])) + t[4]) / 15.0
        np.testing.assert_array_equal(reduce_arrays(arrs, weights), expect.astype(np.float32))

    @pytest.mark.parametrize(
        "n,tree",
        [
            (2, lambda t: t[0] + t[1]),
            (3, lambda t: (t[0] + t[1]) + t[2]),
            (6, lambda t: ((t[0] + t[1]) + (t[2] + t[3])) + (t[4] + t[5])),
            (7, lambda t: ((t[0] + t[1]) + (t[2] + t[3])) + ((t[4] + t[5]) + t[6])),
        ],
    )
    def test_odd_rank_carries_up_a_level(self, n, tree):
        """An unpaired last rank joins the next level as it is."""
        arrs = arrays(n, seed=n)
        weights = [float(i + 1) for i in range(n)]
        terms = [a.astype(np.float64) * w for a, w in zip(arrs, weights)]
        total = tree([np.float64(w) for w in weights])
        expect = (tree(terms) / total).astype(np.float32)
        np.testing.assert_array_equal(reduce_arrays(arrs, weights), expect)

    def test_validation_errors(self):
        arrs = arrays(2)
        with pytest.raises(ValueError):
            reduce_arrays([], [])
        with pytest.raises(ValueError):
            reduce_arrays(arrs, [1.0])
        with pytest.raises(ValueError):
            reduce_arrays(arrs, [1.0, 0.0])
        with pytest.raises(ValueError):
            reduce_arrays([arrs[0], arrs[1][:2]], [1.0, 1.0])
