"""Kernel backend registry: selection semantics, degradation discipline,
and bit-identity of the compiled-loop algorithms against the reference.

The numba loops are testable without numba: ``python_loops()`` returns
the same algorithms uncompiled, so every environment pins the
bit-identity contract; the CI numba leg re-runs the codec contract
suite over the *compiled* loops.
"""

from __future__ import annotations

import logging
import sys
from contextlib import ExitStack

import numpy as np
import pytest

from repro.kernels import (
    KERNEL_BACKENDS,
    available_backends,
    get_backend,
    kernel_stats,
)
from repro.kernels.backends import (
    KernelBackend,
    _note_runtime_fallback,
    _reset_probe_for_tests,
    warmup_backend,
)
from repro.kernels import numba_backend
from repro.utils.scratch import ScratchPool


@pytest.fixture
def fresh_probe():
    """Forget the process-wide probe result around a test (and after,
    so later tests re-probe cleanly)."""
    _reset_probe_for_tests()
    yield
    _reset_probe_for_tests()


def python_backend(fallbacks=None, loops=None):
    """The numba algorithms, uncompiled, as a KernelBackend."""
    sink = fallbacks.append if fallbacks is not None else (lambda name: None)
    fns = numba_backend.make_kernel_functions(
        loops or numba_backend.python_loops(), sink
    )
    return KernelBackend(name="python-loops", **fns)


def encode_with(backend, x, eb=1e-3, radius=512, ndim=2):
    pool = ScratchPool()
    with ExitStack() as stack:
        codes, outliers, flat = backend.quantize_encode(x, eb, radius, ndim, pool, stack)
        return codes.copy(), outliers.copy(), flat.copy()


class TestRegistry:
    def test_numpy_always_available(self):
        b = get_backend("numpy")
        assert b.name == "numpy"
        assert get_backend("numpy") is b  # singleton reference backend
        assert "numpy" in available_backends()

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="must be one of"):
            get_backend("cuda")
        assert set(KERNEL_BACKENDS) == {"numpy", "numba", "auto"}

    def test_explicit_numba_resolves_or_raises(self):
        if "numba" in available_backends():
            assert get_backend("numba").name == "numba"
        else:
            with pytest.raises(ValueError, match="unavailable"):
                get_backend("numba")

    def test_auto_matches_availability(self):
        expected = "numba" if "numba" in available_backends() else "numpy"
        assert get_backend("auto").name == expected

    def test_auto_degrades_counted_when_numba_import_poisoned(
        self, fresh_probe, monkeypatch
    ):
        # None in sys.modules makes ``import numba`` raise ImportError —
        # the closest stand-in for a broken install.
        monkeypatch.setitem(sys.modules, "numba", None)
        b = get_backend("auto")
        assert b.name == "numpy"
        stats = kernel_stats()
        assert stats["numba_probed"] is True
        assert stats["numba_available"] is False
        assert "numba" in stats["probe_error"]
        assert stats["auto_fallbacks"] == 1
        assert stats["auto_selects"] == "numpy"
        # explicit numba surfaces the same probe error instead of degrading
        with pytest.raises(ValueError, match="unavailable"):
            get_backend("numba")

    def test_warmup_passes_for_python_loops(self, fresh_probe):
        warmup_backend(python_backend())  # raises on any bit mismatch
        assert kernel_stats()["warmups"] == 1

    def test_warmup_rejects_miscompiled_kernel(self, fresh_probe):
        loops = numba_backend.python_loops()
        good = loops["quantize_grid"]

        def off_by_one(x, denom, out):
            good(x, denom, out)
            out[0] += 1

        loops["quantize_grid"] = off_by_one
        fallbacks = []
        with pytest.raises(ValueError, match="warmup mismatch"):
            warmup_backend(python_backend(fallbacks, loops))


class TestBitIdentity:
    """The uncompiled numba algorithms against the reference backend."""

    @pytest.mark.parametrize("ndim", [1, 2, 3])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_quantize_encode_decode(self, ndim, dtype):
        rng = np.random.default_rng(7 + ndim)
        x = (rng.standard_normal((3, 4, 6, 5)) * 5).astype(dtype)
        x.reshape(-1)[::5] = 0.0
        ref, alt = get_backend("numpy"), python_backend()
        # radius 8 forces genuine outliers through the escape channel
        for radius in (8, 512):
            c1, o1, f1 = encode_with(ref, x, radius=radius, ndim=ndim)
            c2, o2, f2 = encode_with(alt, x, radius=radius, ndim=ndim)
            np.testing.assert_array_equal(c1, c2)
            np.testing.assert_array_equal(o1, o2)
            np.testing.assert_array_equal(f1, f2)
            q1 = ref.quantize_decode(c1, o1, radius, x.shape, ndim)
            q2 = alt.quantize_decode(c2, o2, radius, x.shape, ndim)
            np.testing.assert_array_equal(q1, q2)

    @pytest.mark.parametrize("ndim", [1, 2, 3])
    def test_lorenzo_predict(self, ndim):
        rng = np.random.default_rng(11)
        q = rng.integers(-1000, 1000, size=(2, 3, 7, 4), dtype=np.int64)
        ref, alt = get_backend("numpy"), python_backend()
        np.testing.assert_array_equal(
            ref.lorenzo_predict(q, ndim), alt.lorenzo_predict(q, ndim)
        )

    @pytest.mark.parametrize("chunk_size", [7, 16, 1000])
    def test_huffman_pack_unpack(self, chunk_size):
        # a mixed-length canonical-style book: symbol i gets 4 or 8 bits
        rng = np.random.default_rng(13)
        n_sym = 16
        lengths = np.where(np.arange(n_sym) < 8, 4, 8).astype(np.uint8)
        # canonical codeword assignment: shorter codes first
        codes = np.zeros(n_sym, dtype=np.uint32)
        next_code, prev_len = 0, 0
        for s in np.argsort(lengths, kind="stable"):
            next_code <<= int(lengths[s]) - prev_len
            prev_len = int(lengths[s])
            codes[s] = next_code
            next_code += 1
        symbols = rng.integers(0, n_sym, size=333).astype(np.uint16)
        ref, alt = get_backend("numpy"), python_backend()
        p1, t1, off1 = ref.huffman_pack_words(symbols, lengths, codes, chunk_size)
        p2, t2, off2 = alt.huffman_pack_words(symbols, lengths, codes, chunk_size)
        assert (p1, t1) == (p2, t2)
        np.testing.assert_array_equal(off1, off2)
        # dense decode tables for the max length
        L = int(lengths.max())
        tsym = np.zeros(1 << L, dtype=np.uint32)
        tlen = np.zeros(1 << L, dtype=np.int64)
        for s in range(n_sym):
            l = int(lengths[s])
            base = int(codes[s]) << (L - l)
            tsym[base : base + (1 << (L - l))] = s
            tlen[base : base + (1 << (L - l))] = l
        s1 = ref.huffman_unpack_window(p1, t1, symbols.size, tsym, tlen, L, off1, chunk_size)
        s2 = alt.huffman_unpack_window(p2, t2, symbols.size, tsym, tlen, L, off2, chunk_size)
        np.testing.assert_array_equal(s1, symbols.astype(np.uint32))
        np.testing.assert_array_equal(s2, symbols.astype(np.uint32))


class _CountingTable(np.ndarray):
    """A decode table that counts how often the kernel gathers from it
    (one gather per vectorized step)."""

    gathers = 0

    def __getitem__(self, index):
        type(self).gathers += 1
        return np.asarray(self.view(np.ndarray)[index])


class TestUnpackLoopShape:
    def test_small_stream_decodes_in_sqrt_count_steps(self, deep_codebook):
        """A 216-code gradient tensor used to cost 4096 Python-level
        steps; the per-tensor geometry makes it 16."""
        from repro.compression.szlike.huffman import chunk_size_for, huffman_encode

        book = deep_codebook
        symbols = np.random.default_rng(1).integers(0, 1024, size=216).astype(np.uint16)
        payload, total_bits, offsets = huffman_encode(symbols, book)
        tsym, tlen = book.decode_tables()
        _CountingTable.gathers = 0
        out = get_backend("numpy").huffman_unpack_window(
            payload, total_bits, 216, tsym, tlen.view(_CountingTable), 16,
            offsets, chunk_size_for(216),
        )
        np.testing.assert_array_equal(out, symbols)
        assert 0 < _CountingTable.gathers <= 16
        # an explicit oversized chunk iterates over the symbols, not the chunk
        payload, total_bits, offsets = huffman_encode(symbols[:5], book, 1000)
        _CountingTable.gathers = 0
        out = get_backend("numpy").huffman_unpack_window(
            payload, total_bits, 5, tsym, tlen.view(_CountingTable), 16, offsets, 1000
        )
        np.testing.assert_array_equal(out, symbols[:5])
        assert _CountingTable.gathers == 5

    def test_largest_train_sz_activation_decodes_in_64_steps(self, deep_codebook):
        """131 072 codes were 512 lanes x 256 steps; the step's fixed
        cost (~3.8 us) outweighed its lane work, so it is 2 048 x 64."""
        from repro.compression.szlike.huffman import huffman_decode, huffman_encode

        book = deep_codebook
        symbols = np.random.default_rng(2).integers(0, 1024, size=131_072).astype(np.uint16)
        payload, total_bits, offsets = huffman_encode(symbols, book)
        assert offsets.size == 2048
        tsym, tlen = book.decode_tables()
        book._tables = (tsym, tlen.view(_CountingTable))
        _CountingTable.gathers = 0
        try:
            out = huffman_decode(payload, total_bits, symbols.size, book, offsets)
        finally:
            book._tables = (tsym, tlen)
        np.testing.assert_array_equal(out, symbols)
        assert 0 < _CountingTable.gathers <= 64

    @pytest.mark.parametrize("chunk_size", [16, 256])
    def test_hostile_offset_never_reads_out_of_bounds(self, chunk_size, deep_codebook):
        """Chunks that start at the head, the middle and the last bit of
        an all-ones payload (16-bit codewords throughout) all over-run
        the stream; the cursors stay inside the guard bytes and both
        backends decode the same symbols."""
        tsym, tlen = deep_codebook.decode_tables()
        count = 3 * chunk_size
        payload = b"\xff" * 64
        total_bits = 8 * len(payload)
        offsets = np.array([0, total_bits // 2, total_bits - 1], dtype=np.int64)
        outs = [
            b.huffman_unpack_window(payload, total_bits, count, tsym, tlen, 16, offsets, chunk_size)
            for b in (get_backend("numpy"), python_backend())
        ]
        assert outs[0].shape == (count,)
        np.testing.assert_array_equal(outs[0], outs[1])
        assert outs[0][0] == 1023 and offsets[0] == 0  # caller's array untouched


class TestDegradation:
    def test_contract_errors_raise_identically_without_fallback(self):
        fallbacks = []
        alt = python_backend(fallbacks)
        ref = get_backend("numpy")
        # a marker with no stored outlier: bookkeeping mismatch on both
        codes = np.array([0, 5, 6], dtype=np.uint32)
        empty = np.empty(0, dtype=np.int64)
        for b in (ref, alt):
            with pytest.raises(ValueError, match="outlier bookkeeping mismatch"):
                b.quantize_decode(codes, empty, 4, (3,), 1)
        # a symbol without a codeword: same contract error on both
        lengths = np.zeros(8, dtype=np.uint8)
        lengths[1] = 2
        cw = np.zeros(8, dtype=np.uint32)
        sym = np.array([1, 3], dtype=np.uint16)
        for b in (ref, alt):
            with pytest.raises(ValueError, match="symbol 3 has no codeword"):
                b.huffman_pack_words(sym, lengths, cw, 16)
        assert fallbacks == []  # contract errors never count as fallbacks

    def test_runtime_error_falls_back_to_reference(self):
        loops = numba_backend.python_loops()

        def boom(x, denom, out):
            raise RuntimeError("simulated miscompile")

        loops["quantize_grid"] = boom
        fallbacks = []
        alt = python_backend(fallbacks, loops)
        rng = np.random.default_rng(3)
        x = rng.standard_normal((2, 4, 4)).astype(np.float32)
        c_alt, o_alt, _ = encode_with(alt, x)
        c_ref, o_ref, _ = encode_with(get_backend("numpy"), x)
        np.testing.assert_array_equal(c_alt, c_ref)
        np.testing.assert_array_equal(o_alt, o_ref)
        assert fallbacks == ["quantize_encode"]


class TestLogging:
    """Degradations are counted *and* logged on ``repro.kernels``."""

    def test_auto_degradation_logged_once_at_info(self, fresh_probe, monkeypatch, caplog):
        monkeypatch.setitem(sys.modules, "numba", None)
        with caplog.at_level(logging.INFO, logger="repro.kernels"):
            assert get_backend("auto").name == "numpy"
            assert get_backend("auto").name == "numpy"
        (record,) = [r for r in caplog.records if r.name == "repro.kernels"]
        assert record.levelno == logging.INFO
        assert kernel_stats()["probe_error"] in record.getMessage()
        assert kernel_stats()["auto_fallbacks"] == 2  # counted every time

    def test_runtime_fallback_logged_at_warning_with_kernel_name(self, fresh_probe, caplog):
        loops = numba_backend.python_loops()

        def boom(x, denom, out):
            raise RuntimeError("simulated miscompile")

        loops["quantize_grid"] = boom
        fns = numba_backend.make_kernel_functions(loops, _note_runtime_fallback)
        alt = KernelBackend(name="python-loops", **fns)
        x = np.random.default_rng(3).standard_normal((2, 4, 4)).astype(np.float32)
        with caplog.at_level(logging.WARNING, logger="repro.kernels"):
            encode_with(alt, x)
            encode_with(alt, x)
        records = [r for r in caplog.records if r.name == "repro.kernels"]
        assert [r.levelno for r in records] == [logging.WARNING] * 2
        assert all("quantize_encode" in r.getMessage() for r in records)
        assert records[0].exc_info[0] is RuntimeError
        assert kernel_stats()["runtime_fallbacks"] == 2

    def test_wide_grid_counted_every_time_logged_once_at_info(self, fresh_probe, caplog):
        """A tensor whose grid indices need int64 costs ~2x in both
        halves: counted per kernel call, announced once per process."""
        ref = get_backend("numpy")
        narrow = np.linspace(-1, 1, 64, dtype=np.float32).reshape(4, 16)
        wide = narrow.astype(np.float64) * 1e7  # |x| / (2 eb) ~ 5e9 > 2^31
        with caplog.at_level(logging.INFO, logger="repro.kernels"):
            c, o, f = encode_with(ref, narrow, eb=1e-3)
            assert f.dtype == np.int32
            assert ref.quantize_decode(c, o, 512, narrow.shape, 2).dtype == np.int32
            assert kernel_stats()["wide_grid_calls"] == 0 and not caplog.records
            c, o, f = encode_with(ref, wide, eb=1e-3)
            assert f.dtype == np.int64 and o.size
            q = ref.quantize_decode(c, o, 512, wide.shape, 2)  # the outliers are wide too
            assert q.dtype == np.int64
            np.testing.assert_array_equal(q, np.rint(wide / 2e-3).astype(np.int64))
            encode_with(ref, wide, eb=1e-3)
        assert kernel_stats()["wide_grid_calls"] == 3
        (record,) = [r for r in caplog.records if r.name == "repro.kernels"]
        assert record.levelno == logging.INFO
        message = record.getMessage()
        assert "quantize_encode" in message and "(4, 16)" in message and "0.001" in message

    def test_library_configures_no_handler_or_level(self):
        for name in ("repro", "repro.kernels"):
            logger = logging.getLogger(name)
            assert logger.handlers == [] and logger.level == logging.NOTSET


class TestCompressorIntegration:
    @pytest.mark.parametrize("backend", available_backends())
    def test_szlike_roundtrip_per_backend(self, backend):
        from repro.compression.registry import get_codec

        codec = get_codec(
            "szlike", error_bound=1e-3, entropy="huffman", kernel_backend=backend
        )
        assert codec.kernel_backend_selected == backend
        rng = np.random.default_rng(5)
        x = np.maximum(rng.standard_normal((2, 4, 12, 12)), 0).astype(np.float32)
        y = codec.decompress(codec.compress(x))
        assert np.abs(x.astype(np.float64) - y).max() <= 1e-3 * (1 + 1e-6)

    def test_bad_backend_name_rejected_at_construction(self):
        from repro.compression.registry import get_codec

        with pytest.raises(ValueError, match="must be one of"):
            get_codec("szlike", kernel_backend="cuda")

    def test_pickled_codec_reresolves_backend(self):
        import pickle

        from repro.compression.registry import get_codec

        codec = get_codec("szlike", kernel_backend="auto")
        clone = pickle.loads(pickle.dumps(codec))
        assert clone.kernel_backend == "auto"
        assert clone.kernel_backend_selected in ("numpy", "numba")
        rng = np.random.default_rng(9)
        x = rng.standard_normal((2, 3, 8, 8)).astype(np.float32)
        np.testing.assert_array_equal(
            codec.decompress(codec.compress(x)), clone.decompress(clone.compress(x))
        )


class TestTrainingBitIdentity:
    """Every available kernel backend trains bit-identically: the same
    losses and the same per-iteration compression ratios."""

    @staticmethod
    def train_with_backend(backend):
        from repro.compression.registry import get_codec
        from repro.core import AdaptiveConfig, CompressedTraining
        from repro.nn import (
            SGD,
            Conv2D,
            Flatten,
            Linear,
            MaxPool2D,
            ReLU,
            Sequential,
            SyntheticImageDataset,
            Trainer,
            batches,
        )

        net = Sequential([
            Conv2D(3, 6, 3, padding=1, rng=1, name="c1"), ReLU(), MaxPool2D(2),
            Conv2D(6, 8, 3, padding=1, rng=2, name="c2"), ReLU(), MaxPool2D(2),
            Flatten(), Linear(8 * 4 * 4, 4, rng=3),
        ])
        opt = SGD(net.parameters(), lr=0.01, momentum=0.9)
        tr = Trainer(net, opt)
        sess = CompressedTraining(
            net, opt,
            compressor=get_codec("szlike", entropy="huffman", kernel_backend=backend),
            config=AdaptiveConfig(W=5, warmup_iterations=2),
        ).attach(tr)
        ds = SyntheticImageDataset(num_classes=4, image_size=16, channels=3, seed=3)
        tr.train(batches(ds, 8, 6, seed=0))
        tr.close()
        return tr.history.losses, sess.tracker.iteration_ratios

    def test_backends_train_bit_identically(self):
        results = {b: self.train_with_backend(b) for b in available_backends()}
        ref_losses, ref_ratios = results["numpy"]
        for losses, ratios in results.values():
            np.testing.assert_array_equal(losses, ref_losses)
            assert ratios == ref_ratios
