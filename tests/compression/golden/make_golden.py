"""Generator of the committed format-v3 golden blobs (run by hand).

    PYTHONPATH=src python tests/compression/golden/make_golden.py

writes, per case in :data:`CASES`, ``<name>.blob`` (``serialize.dumps``
of the compressed tensor) and ``<name>.npy`` (its reconstruction) next
to this file.  ``test_golden_blobs.py`` re-derives both from the same
seeded inputs on every backend and compares byte for byte / bit for
bit, so the files are rewritten only when a format or arithmetic change
is *meant* — regenerate, review the diff, and say so in CHANGES.md.
The ``.npy`` reconstructions were written by the commit before the
codec's hot path moved to narrow dtypes (PR 21's parent) and have not
changed since.  The ``.blob`` files were rewritten once, on purpose, for
format v3 (PR 24: 64-symbol decode chunks, a bit-packed chunk table, a
deflated codebook section): the container moved, the payload section of
every case is byte-identical to its v2 blob — ``test_golden_blobs.py``
re-encodes each code stream at the v2 chunk geometry to pin that.
They were rewritten a second time when the codec began to choose its
predictor per tensor: eight cases flipped to no prediction and record
``lorenzo_ndim`` 0, with their ``.npy`` reconstructions byte-identical.

Each case is ``(codec options, [(x, error_bound), ...])``: the **last**
tensor is the golden.  A one-call case compresses it unkeyed, under a
fresh codebook; a case of several calls compresses them in order under
one cache key, so the earlier ones warm the codebook cache.

:data:`BASELINE_CASES` pin the baseline codecs' formats the same way, one
ReLU activation each, serialized by ``registry.dumps``: ``lossless``
(the parameter store's codec), ``sparse-lossless`` (the default gradient
codec) and ``jpeg``.  The two lossless blobs are re-encoded byte for
byte; the ``jpeg`` blob is pinned by its decode only, because its
forward DCT comes from scipy.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent


def _relu(seed: int, shape: tuple, scale: float = 1.0) -> np.ndarray:
    """A post-ReLU activation: ~half zeros, smooth-ish positives."""
    x = np.random.default_rng(seed).standard_normal(shape) * scale
    return np.maximum(x, 0).astype(np.float32)


def _cached_book_demoted():
    # the second tensor is 1.3x wider than the one the cached book was
    # built on: 36 symbols without a codeword are demoted to outliers
    # (under the cache's 2% escape ceiling and 10% staleness tolerance,
    # so the book is reused)
    return {}, [(_relu(10, (2, 8, 16, 16)), 0.04), (_relu(11, (2, 8, 16, 16), 1.3), 0.04)]


def _smooth(seed: int, shape: tuple) -> np.ndarray:
    """Noise integrated along both map axes: 2-D Lorenzo turns it back
    into the noise, so the codec keeps predicting."""
    x = np.random.default_rng(seed).standard_normal(shape)
    return np.cumsum(np.cumsum(x, axis=-2), axis=-1).astype(np.float32)


def _wide_grid():
    # |x| / eb ~ 2^33: grid indices overflow int32, the int64 path is mandatory
    x = np.random.default_rng(12).standard_normal((2, 3, 8, 8)) * 1e6
    return {}, [(x, 1e-4)]


CASES = {
    # the three spatial classes of the train_sz activations (32 / 16 / 8)
    "relu_f32_32x32": lambda: ({}, [(_relu(1, (4, 8, 32, 32)), 0.045)]),
    "relu_f32_16x16": lambda: ({}, [(_relu(2, (4, 16, 16, 16), 8.0), 0.035)]),  # a few outliers
    "relu_f32_8x8": lambda: ({}, [(_relu(3, (4, 32, 8, 8)), 0.032)]),
    "dense_f64": lambda: (
        {}, [(np.random.default_rng(4).standard_normal((2, 4, 12, 12)), 1e-3)]
    ),
    # odd symbol count that also straddles an encode-block boundary
    "odd_count": lambda: ({}, [(_relu(5, (3, 7, 33, 29)), 0.02)]),
    "one_element": lambda: ({}, [(np.array([0.3], dtype=np.float32), 1e-2)]),
    "constant": lambda: ({}, [(np.full((2, 3, 8, 8), 1.5, dtype=np.float32), 1e-3)]),
    "all_zero": lambda: ({}, [(np.zeros((2, 4, 8, 8), dtype=np.float32), 1e-3)]),
    "outlier_heavy_r8": lambda: (
        {"dict_size": 16},
        [((np.random.default_rng(8).standard_normal((2, 4, 10, 10)) * 5).astype(np.float32), 1e-2)],
    ),
    "lorenzo3_none": lambda: (
        {"lorenzo_ndim": 3, "entropy": "none"}, [(_relu(9, (2, 3, 6, 6)), 1e-2)]
    ),
    # the one case whose blob records Lorenzo (lorenzo_ndim 2) beside the
    # constant: every other tensor here is white noise, stored unpredicted
    "smooth_f32_lorenzo": lambda: ({}, [(_smooth(13, (2, 4, 16, 16)), 1e-2)]),
    "cached_book_demoted": _cached_book_demoted,
    "wide_grid_int64": _wide_grid,
}


#: case -> (registry key, constructor options, input)
BASELINE_CASES = {
    "lossless_relu": lambda: ("lossless", {}, _relu(14, (2, 4, 16, 16))),
    "sparse_lossless_relu": lambda: ("sparse-lossless", {}, _relu(15, (2, 4, 16, 16))),
    "jpeg_relu": lambda: ("jpeg", {}, _relu(16, (2, 4, 16, 16))),
}


def compress_case(name: str, codec_factory):
    """The golden compressed tensor of case *name*; *codec_factory* builds
    the codec from the case's options (the test injects its backend)."""
    options, calls = CASES[name]()
    codec = codec_factory(**options)
    key = "golden" if len(calls) > 1 else None
    for x, eb in calls:
        ct = codec.compress(x, error_bound=eb, cache_key=key)
    return codec, ct


def main() -> None:
    from repro.compression import registry
    from repro.compression.szlike import SZCompressor
    from repro.compression.szlike.serialize import dumps, loads

    for name in CASES:
        codec, ct = compress_case(name, lambda **kw: SZCompressor(kernel_backend="numpy", **kw))
        blob = dumps(ct)
        (HERE / f"{name}.blob").write_bytes(blob)
        np.save(HERE / f"{name}.npy", codec.decompress(loads(blob)))
        print(f"{name}: {len(blob)} B blob, nbytes {ct.nbytes}, {ct.outliers.size} outliers")
    for name, case in BASELINE_CASES.items():
        key, options, x = case()
        codec = registry.get_codec(key, **options)
        blob = registry.dumps(codec.compress(x))
        (HERE / f"{name}.blob").write_bytes(blob)
        np.save(HERE / f"{name}.npy", codec.decompress(registry.loads(blob)))
        print(f"{name}: {len(blob)} B blob")


if __name__ == "__main__":
    main()
