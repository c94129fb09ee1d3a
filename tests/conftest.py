"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from scipy.ndimage import gaussian_filter


@pytest.fixture
def rng():
    return np.random.default_rng(20210227)  # PPoPP'21 week


@pytest.fixture
def activation_tensor(rng):
    """A realistic post-ReLU conv activation: smooth fields with sparsity."""
    x = rng.standard_normal((4, 8, 24, 24))
    x = gaussian_filter(x, sigma=(0, 0, 1.5, 1.5))
    return np.maximum(x, 0).astype(np.float32)


@pytest.fixture
def dense_tensor(rng):
    """A dense (no zeros) smooth float tensor."""
    x = rng.standard_normal((2, 4, 32, 32))
    x = gaussian_filter(x, sigma=(0, 0, 2.0, 2.0))
    return (x + 0.1).astype(np.float32)


@pytest.fixture
def deep_codebook():
    """A complete canonical Huffman book over the 1024-code alphabet whose
    longest codewords have the maximum 16 bits (Kraft: 2^-1 + ... + 2^-6
    + 6 * 2^-15 + 1012 * 2^-16 == 1); symbol 1023 is the all-ones word."""
    from repro.compression.szlike import HuffmanCodebook

    book = HuffmanCodebook.from_lengths(np.array([1, 2, 3, 4, 5, 6] + [15] * 6 + [16] * 1012))
    assert book.max_length == 16 and book.kraft_sum() == 1.0 and int(book.codes[1023]) == 0xFFFF
    return book
