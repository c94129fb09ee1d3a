"""The codec predicts only where it pays, and no decoded value moves.

``SZCompressor`` stores a tensor's grid indices unpredicted when 2-D
Lorenzo would cost more bits (the ReLU-sparse activations of the
benchmark's ``train_sz`` workload).  The predictor is a lossless
transform of the grid, so a session trains bit-identically with and
without the choice; what moves is the bytes the tracker counts.

Under a keyed Huffman stream the choice is amortized with the book: a key
prices it on its first call and on the call after its book was
(re)built, and otherwise runs under the predictor its reused book
codes.  Pinned here: when pricing runs, that the blobs are those of a
codec pricing every call, that a drifting key follows its data at the
next rebuild, and that ``lorenzo_ndim`` is checked and 0 prices nothing.
"""

from __future__ import annotations

import json
import os
from collections import defaultdict

import numpy as np
import pytest

from repro.api import ConfigError, SessionConfig, build_session
from repro.compression.szlike import CodebookCache, SZCompressor, dumps
from repro.models.registry import build_scaled_model
from repro.nn.data import SyntheticImageDataset, batches

E2E = os.path.join(os.path.dirname(__file__), "..", "..", "benchmarks", "e2e", "configs")

#: ``tracker.peak_stored_bytes`` after step 0 of ``train_sz`` at data
#: seed 3, measured: 184 379 B with the choice, 276 976 B under 2-D
#: Lorenzo everywhere (the five convs whose input needs a gradient)
STEP0_STORED_BYTES = 184_379


def _train_sz(steps: int, config: str = "train_sz.json"):
    """Losses of *steps* ``train_sz`` steps on the benchmark's task, and
    the tracker's stored-bytes peak after the first."""
    with open(os.path.join(E2E, "workloads.json")) as f:
        task = json.load(f)["task"]
    dataset = SyntheticImageDataset(
        num_classes=task["num_classes"], image_size=task["image_size"], signal=task["signal"], seed=3
    )
    net = build_scaled_model(
        task["model"],
        num_classes=task["num_classes"],
        image_size=task["image_size"],
        batch=task["batch_size"],
        rng=np.random.default_rng(task["weight_seed"]),
    )
    losses, step0 = [], None
    config = SessionConfig.from_json(os.path.join(E2E, config))
    with build_session(net, config) as session:
        for images, labels in batches(dataset, task["batch_size"], steps, seed=3):
            losses.append(session.train_step(images, labels).loss)
            if step0 is None:
                step0 = session.tracker.peak_stored_bytes
    return losses, step0


def test_train_sz_trains_bit_identically_and_stores_less(monkeypatch):
    chosen, stored = _train_sz(10)
    monkeypatch.setattr(SZCompressor, "_bits", lambda self, codes, outliers: 0.0)  # Lorenzo always
    forced, stored_forced = _train_sz(10)
    assert chosen == forced and all(np.isfinite(chosen))
    assert stored <= 1.02 * STEP0_STORED_BYTES
    assert stored_forced > 1.3 * stored


@pytest.mark.parametrize("lorenzo_ndim", [1, 2, 3])
def test_sparse_noise_goes_unpredicted_and_a_smooth_field_keeps_lorenzo(lorenzo_ndim):
    rng = np.random.default_rng(0)
    relu = np.maximum(rng.standard_normal((4, 8, 16, 16)), 0).astype(np.float32)
    smooth = np.cumsum(np.cumsum(rng.standard_normal((4, 8, 16, 16)), axis=-1), axis=-2)
    codec = SZCompressor(0.02, lorenzo_ndim=lorenzo_ndim)
    assert codec.compress(relu).lorenzo_ndim == 0
    assert codec.compress(smooth.astype(np.float32)).lorenzo_ndim == lorenzo_ndim


def _spied_train_sz(monkeypatch, steps: int):
    """:func:`_train_sz` with every ``compress`` call recorded, per cache
    key, as ``(priced, built, blob bytes)``: whether the call ran the
    predictor's pricing, and whether its codebook lookup (re)built."""
    calls, state = defaultdict(list), {}
    bits, lookup, compress = SZCompressor._bits, CodebookCache.lookup, SZCompressor.compress

    def spy_bits(self, codes, outliers):
        state["priced"] = True
        return bits(self, codes, outliers)

    def spy_lookup(self, key, hist, predictor=None):
        book, reused = lookup(self, key, hist, predictor)
        state["built"] = not reused
        return book, reused

    def spy_compress(self, x, error_bound=None, *, cache_key=None):
        state.clear()
        ct = compress(self, x, error_bound, cache_key=cache_key)
        calls[cache_key].append((state.get("priced", False), state["built"], dumps(ct)))
        return ct

    with monkeypatch.context() as mp:
        mp.setattr(SZCompressor, "_bits", spy_bits)
        mp.setattr(CodebookCache, "lookup", spy_lookup)
        mp.setattr(SZCompressor, "compress", spy_compress)
        losses, step0 = _train_sz(steps)
    return losses, step0, calls


def test_train_sz_prices_only_after_a_build_and_stores_what_pricing_every_call_does(monkeypatch):
    losses, stored, calls = _spied_train_sz(monkeypatch, 10)
    # six convs, less the one fed the data batch, which packs nothing
    assert len(calls) == 5 and all(len(c) == 10 for c in calls.values())
    for key, seq in calls.items():
        priced = [p for p, _, _ in seq]
        after_build = [True] + [built for _, built, _ in seq[:-1]]
        assert priced == after_build, key
    # the steady state: most calls reuse their book and price nothing
    assert sum(p for seq in calls.values() for p, _, _ in seq) <= 2 * len(calls) + 6

    monkeypatch.setattr(CodebookCache, "predictor", lambda self, key: None)
    every_losses, every_stored, every_calls = _spied_train_sz(monkeypatch, 10)
    assert all(p for seq in every_calls.values() for p, _, _ in seq)
    assert losses == every_losses and stored == every_stored
    blobs = {key: [blob for *_, blob in seq] for key, seq in calls.items()}
    assert blobs == {key: [blob for *_, blob in seq] for key, seq in every_calls.items()}


def _relu_and_smooth(shape=(4, 8, 16, 16)):
    rng = np.random.default_rng(0)
    relu = np.maximum(rng.standard_normal(shape), 0).astype(np.float32)
    smooth = np.cumsum(np.cumsum(rng.standard_normal(shape), axis=-1), axis=-2)
    return relu, smooth.astype(np.float32)


def test_a_drifting_key_moves_to_lorenzo_on_the_call_after_its_next_rebuild(settings, monkeypatch):
    # only the refresh schedule rebuilds: a book is reused three times
    settings(refresh_interval=3, delta=1e9, max_escape_ratio=1.0)
    chosen, priced = [], []
    bits = SZCompressor._bits
    monkeypatch.setattr(
        SZCompressor, "_bits", lambda self, c, o: priced.append(len(chosen)) or bits(self, c, o)
    )
    relu, smooth = _relu_and_smooth()
    codec = SZCompressor(0.02)
    for x in [relu] * 2 + [smooth] * 6:
        ct = codec.compress(x, cache_key="l")
        chosen.append(ct.lorenzo_ndim)
        assert np.abs(codec.decompress(ct) - x).max() <= 0.02 * (1 + 1e-6)
    # calls 2-4 reuse the book built at call 0 for none, call 4's lookup
    # refreshes it; call 5 prices Lorenzo, whose book call 6 reuses
    assert chosen == [0, 0, 0, 0, 0, 2, 2, 2]
    assert sorted(set(priced)) == [0, 1, 5, 6]
    cache = codec.codebook_cache
    assert (cache.builds, cache.rebuilds_refresh, cache.rebuilds_predictor) == (1, 1, 1)


@pytest.mark.parametrize(
    "entropy, key", [("huffman", None), ("zlib", "l")], ids=["unkeyed", "keyed-zlib"]
)
def test_without_a_cached_book_every_call_prices(entropy, key, monkeypatch):
    priced = []
    bits = SZCompressor._bits
    monkeypatch.setattr(
        SZCompressor, "_bits", lambda self, c, o: priced.append(1) or bits(self, c, o)
    )
    relu, _ = _relu_and_smooth()
    codec = SZCompressor(0.02, entropy=entropy)
    for _ in range(4):
        assert codec.compress(relu, cache_key=key).lorenzo_ndim == 0
    assert len(priced) == 2 * 4


@pytest.mark.parametrize("lorenzo_ndim", [-3, -1, 4, 7, 2.0, True, None, "2"])
def test_lorenzo_ndim_outside_0_to_3_is_refused(lorenzo_ndim):
    with pytest.raises(ValueError, match="lorenzo_ndim"):
        SZCompressor(0.02, lorenzo_ndim=lorenzo_ndim)


def test_a_config_with_lorenzo_ndim_9_is_a_config_error():
    config = SessionConfig.from_dict(
        {"codec": {"name": "szlike", "options": {"lorenzo_ndim": 9}}}
    )
    net = build_scaled_model("alexnet", num_classes=8, image_size=16, rng=1)
    with pytest.raises(ConfigError, match="codec 'szlike': .*lorenzo_ndim"):
        build_session(net, config)


@pytest.mark.parametrize("key", [None, "l"], ids=["unkeyed", "keyed"])
def test_lorenzo_ndim_0_stores_unpredicted_and_prices_nothing(key, monkeypatch):
    monkeypatch.setattr(SZCompressor, "_bits", lambda self, c, o: pytest.fail("priced"))
    _, smooth = _relu_and_smooth()
    codec = SZCompressor(0.02, lorenzo_ndim=0)
    for x in (smooth, smooth, np.float32(3.0), smooth[0, 0, 0]):
        ct = codec.compress(x, cache_key=key)
        assert ct.lorenzo_ndim == 0
        assert np.abs(codec.decompress(ct) - x).max() <= 0.02 * (1 + 1e-6)


def test_a_zero_axis_tensor_is_stored_unpredicted():
    codec = SZCompressor(0.02)
    ct = codec.compress(np.float32(3.0))
    assert (ct.shape, ct.lorenzo_ndim, float(codec.decompress(ct))) == ((), 0, 3.0)
