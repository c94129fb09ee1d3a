"""Tour of the compression landscape on a realistic activation tensor.

Reproduces the Section 2 argument in one script: lossless compression
caps near 2x, the JPEG-class baseline reaches ~7x but with uncontrolled
error and smeared zeros, while the SZ-style error-bounded compressor
reaches ~10x with a hard per-element bound and exact zero preservation.

    python examples/compressor_tour.py
"""

import numpy as np
from scipy.ndimage import gaussian_filter

from repro.compression import SZCompressor, get_codec, max_abs_error, psnr


def make_activation(seed=0, shape=(8, 64, 28, 28)):
    """Band-limited post-ReLU feature maps (what conv layers produce)."""
    rng = np.random.default_rng(seed)
    x = gaussian_filter(rng.standard_normal(shape), sigma=(0, 0, 1.3, 1.3))
    x /= x.std()
    return np.maximum(x - 0.2, 0).astype(np.float32)


def main():
    x = make_activation()
    nz = np.count_nonzero(x) / x.size
    print(f"activation tensor {x.shape}, {x.nbytes / 1e6:.1f} MB, nonzero ratio {nz:.2f}\n")
    header = f"{'codec':26s} {'ratio':>7s} {'max err':>10s} {'psnr':>7s} {'zeros kept':>11s}"
    print(header)
    print("-" * len(header))

    def report(name, ratio, y):
        err = max_abs_error(x, y)
        kept = bool(np.all(y[x == 0] == 0))
        p = psnr(x, y)
        ps = f"{p:7.1f}" if np.isfinite(p) else "    inf"
        print(f"{name:26s} {ratio:>6.1f}x {err:>10.2e} {ps} {str(kept):>11s}")

    # every codec now comes from the unified registry
    for level_name, codec in (
        ("deflate (lossless)", get_codec("lossless")),
        ("sparse-lossless (CDMA)", get_codec("sparse-lossless")),
        ("jpeg-like q50 (JPEG-ACT)", get_codec("jpeg", quality=50)),
    ):
        ct = codec.compress(x)
        report(level_name, ct.compression_ratio, codec.decompress(ct))

    for eb in (1e-4, 1e-3, 1e-2):
        sz = get_codec("szlike", error_bound=eb, entropy="huffman", zero_filter=True)
        ct = sz.compress(x)
        report(f"sz  eb={eb:g}", ct.compression_ratio, sz.decompress(ct))

    print("\nSZ reconstruction error is uniform (Figure 3):")
    sz = SZCompressor(1e-3, entropy="zlib", zero_filter=False)
    y = sz.roundtrip(x)
    err = (x.astype(np.float64) - y)[x != 0]
    print(f"  mean {err.mean():+.2e}   std {err.std():.2e} "
          f"(uniform expectation {1e-3 / np.sqrt(3):.2e})")
    hist, _ = np.histogram(err, bins=9, range=(-1e-3, 1e-3))
    print("  histogram:", " ".join(f"{h / hist.sum():.3f}" for h in hist))


if __name__ == "__main__":
    main()
