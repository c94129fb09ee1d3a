"""Huffman codec: prefix property, roundtrips, the chunked decoder."""

import heapq

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression.szlike import (
    HuffmanCodebook,
    build_codebook,
    entropy_bits_from_hist,
    histogram,
    huffman_decode,
    huffman_encode,
)
from repro.compression.szlike.huffman import (
    DEFAULT_CHUNK,
    MAX_CODE_LENGTH,
    _encode_bitplane,
    _huffman_lengths,
    chunk_layout,
    chunk_meta_nbytes,
    chunk_size_for,
)
from repro.kernels import available_backends, get_backend
from repro.kernels.backends import KernelBackend
from repro.kernels.numba_backend import make_kernel_functions, python_loops


def _roundtrip(symbols, alphabet, kernels=None):
    cb = build_codebook(symbols, alphabet)
    payload, bits, chunks = huffman_encode(symbols, cb, kernels=kernels)
    decoded = huffman_decode(payload, bits, symbols.size, cb, chunks, kernels=kernels)
    return decoded.astype(symbols.dtype)


def _kernels(backend):
    return _python_loops_backend() if backend == "python-loops" else get_backend(backend)


class TestCodebook:
    def test_kraft_equality(self, rng):
        syms = rng.integers(0, 64, size=5000).astype(np.uint16)
        cb = build_codebook(syms, 64)
        assert cb.kraft_sum() == pytest.approx(1.0)

    def test_frequent_symbols_shorter(self, rng):
        syms = np.concatenate([np.zeros(10_000), rng.integers(1, 32, size=100)]).astype(np.uint16)
        cb = build_codebook(syms, 32)
        assert cb.lengths[0] <= cb.lengths[1:][cb.lengths[1:] > 0].min()

    def test_single_symbol_alphabet(self):
        syms = np.full(100, 7, dtype=np.uint16)
        cb = build_codebook(syms, 16)
        assert cb.lengths[7] == 1
        assert np.count_nonzero(cb.lengths) == 1

    def test_length_limit_enforced(self, rng):
        # Exponential frequencies force deep trees without limiting.
        freqs = np.array([2**i for i in range(40)], dtype=np.int64)
        cb = HuffmanCodebook.from_frequencies(freqs)
        assert cb.max_length <= MAX_CODE_LENGTH
        assert cb.kraft_sum() <= 1.0 + 1e-12

    def test_from_lengths_rejects_lengths_above_the_limit(self, deep_codebook):
        """The decode tables have 2^L entries, so every way of building a
        book from stored lengths (a blob's own, a direct caller) must
        refuse L > MAX_CODE_LENGTH."""
        assert deep_codebook.max_length == MAX_CODE_LENGTH  # the limit itself is fine
        for bad in (MAX_CODE_LENGTH + 1, 24, 255):
            hostile = deep_codebook.lengths.copy()
            hostile[3] = bad
            with pytest.raises(ValueError, match="MAX_CODE_LENGTH"):
                HuffmanCodebook.from_lengths(hostile)
        for unrepresentable in ([1, 1, 300], [1, -1]):  # would wrap in uint8
            with pytest.raises(ValueError, match="MAX_CODE_LENGTH"):
                HuffmanCodebook.from_lengths(np.array(unrepresentable))
        assert HuffmanCodebook.from_lengths(np.zeros(0, dtype=np.uint8)).max_length == 0

    def test_prefix_free(self, rng):
        syms = rng.integers(0, 100, size=2000).astype(np.uint16)
        cb = build_codebook(syms, 128)
        present = np.nonzero(cb.lengths)[0]
        words = [
            format(int(cb.codes[s]), f"0{int(cb.lengths[s])}b") for s in present
        ]
        for i, a in enumerate(words):
            for j, b in enumerate(words):
                if i != j:
                    assert not b.startswith(a)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            HuffmanCodebook.from_frequencies(np.zeros(8, dtype=np.int64))

    def test_codebook_nbytes_positive(self, rng):
        syms = rng.integers(0, 16, size=100).astype(np.uint16)
        assert build_codebook(syms, 16).nbytes > 0


class TestRoundtrip:
    @pytest.mark.parametrize("backend", ["numpy", "python-loops"])
    def test_uniform_symbols(self, rng, backend):
        syms = rng.integers(0, 256, size=10_000).astype(np.uint16)
        assert np.array_equal(_roundtrip(syms, 256, _kernels(backend)), syms)

    @pytest.mark.parametrize("backend", ["numpy", "python-loops"])
    def test_skewed_symbols(self, rng, backend):
        syms = np.minimum(rng.geometric(0.3, size=20_000), 63).astype(np.uint16)
        assert np.array_equal(_roundtrip(syms, 64, _kernels(backend)), syms)

    @pytest.mark.parametrize("backend", ["numpy", "python-loops"])
    def test_single_distinct_symbol(self, backend):
        syms = np.full(500, 3, dtype=np.uint16)
        assert np.array_equal(_roundtrip(syms, 8, _kernels(backend)), syms)

    def test_one_symbol_stream(self):
        syms = np.array([5], dtype=np.uint16)
        assert np.array_equal(_roundtrip(syms, 8), syms)

    def test_exact_chunk_multiple(self, rng):
        syms = rng.integers(0, 16, size=2 * DEFAULT_CHUNK).astype(np.uint16)
        assert np.array_equal(_roundtrip(syms, 16), syms)

    def test_decoders_agree(self, rng):
        """The NumPy reference and the per-chunk loops write the same
        bytes and read them back to the same symbols."""
        syms = rng.integers(0, 512, size=30_000).astype(np.uint16)
        cb = build_codebook(syms, 512)
        numpy, loops = get_backend("numpy"), _python_loops_backend()
        encoded = huffman_encode(syms, cb, kernels=numpy)
        assert encoded[:2] == huffman_encode(syms, cb, kernels=loops)[:2]
        a = huffman_decode(*encoded[:2], syms.size, cb, encoded[2], kernels=numpy)
        b = huffman_decode(*encoded[:2], syms.size, cb, encoded[2], kernels=loops)
        assert np.array_equal(a, b) and np.array_equal(a, syms)

    def test_empty_stream(self):
        cb = HuffmanCodebook.from_frequencies(np.array([1, 1]))
        payload, bits, chunks = huffman_encode(np.zeros(0, dtype=np.uint16), cb)
        assert payload == b""
        out = huffman_decode(payload, bits, 0, cb, chunks)
        # one symbol dtype on both paths: an empty stream and a decoded one
        payload, bits, offsets = huffman_encode(np.array([0, 1, 1], dtype=np.uint16), cb)
        decoded = huffman_decode(payload, bits, 3, cb, offsets)
        assert out.size == 0 and out.dtype == decoded.dtype == cb.symbol_dtype
        assert cb.symbol_dtype == cb.decode_tables()[0].dtype == np.uint16


class TestCompression:
    def test_beats_fixed_width_on_skewed(self, rng):
        syms = np.minimum(rng.geometric(0.5, size=50_000), 255).astype(np.uint16)
        cb = build_codebook(syms, 256)
        payload, bits, _ = huffman_encode(syms, cb)
        assert bits < 8 * syms.size  # 8 bits/symbol fixed width

    def test_near_entropy(self, rng):
        syms = np.minimum(rng.geometric(0.4, size=50_000), 63).astype(np.uint16)
        cb = build_codebook(syms, 64)
        _, bits, _ = huffman_encode(syms, cb)
        h = entropy_bits_from_hist(histogram(syms, 64))
        assert bits <= h + syms.size  # within 1 bit/symbol of entropy

    def test_entropy_bits_uniform(self):
        syms = np.arange(16, dtype=np.uint16).repeat(100)
        assert entropy_bits_from_hist(histogram(syms, 16)) == pytest.approx(4.0 * syms.size)

    def test_entropy_bits_constant_is_zero(self):
        assert entropy_bits_from_hist(histogram(np.zeros(100, dtype=np.uint16), 16)) == 0.0
        assert entropy_bits_from_hist(np.zeros(16, dtype=np.int64)) == 0.0


class TestErrors:
    def test_symbol_without_code_rejected(self, rng):
        syms = rng.integers(0, 8, size=100).astype(np.uint16)
        cb = build_codebook(syms, 16)
        bad = np.array([15], dtype=np.uint16)
        with pytest.raises(ValueError):
            huffman_encode(bad, cb)

    def test_truncated_payload_detected(self, rng):
        syms = rng.integers(0, 8, size=100).astype(np.uint16)
        cb = build_codebook(syms, 8)
        payload, bits, chunks = huffman_encode(syms, cb)
        with pytest.raises(ValueError, match="payload holds"):
            huffman_decode(payload[: len(payload) // 2], bits, 100, cb, chunks)


class TestWordPackedEncoder:
    """The low-allocation word-packed kernel against the bit-plane oracle."""

    @pytest.mark.parametrize("size", [1, 100, 4096, 4097, 70_000])
    def test_packers_bit_identical(self, rng, size):
        syms = np.minimum(rng.geometric(0.3, size=size), 255).astype(np.uint16)
        cb = build_codebook(syms, 256)
        words = huffman_encode(syms, cb)
        bitplane = _encode_bitplane(syms, cb, chunk_size_for(size))
        assert words[0] == bitplane[0]
        assert words[1] == bitplane[1]
        assert np.array_equal(words[2], bitplane[2])

    def test_packers_match_across_block_boundary(self, rng):
        from repro.compression.szlike.huffman import ENCODE_BLOCK

        syms = rng.integers(0, 512, size=ENCODE_BLOCK + 123).astype(np.uint16)
        cb = build_codebook(syms, 512)
        assert huffman_encode(syms, cb)[0] == \
            _encode_bitplane(syms, cb, chunk_size_for(syms.size))[0]

    @pytest.mark.parametrize("packer", ["words", "bitplane"])
    def test_packer_switch_is_gone(self, rng, packer):
        """One encoder kernel: the bit-plane oracle is called directly."""
        syms = rng.integers(0, 8, size=10).astype(np.uint16)
        cb = build_codebook(syms, 8)
        with pytest.raises(TypeError, match="packer"):
            huffman_encode(syms, cb, packer=packer)

    def test_decode_tables_are_built_per_call_and_borrowed_by_the_decoder(self, rng, monkeypatch):
        """Nothing is kept on the book: ``decode_tables`` returns fresh
        arrays every call, and ``huffman_decode`` fills two workspace
        takes (``2^L`` symbols and ``2^L`` lengths) that end with it."""
        from repro.compression.szlike import huffman
        from repro.utils.scratch import ScratchPool

        syms = rng.integers(0, 64, size=1000).astype(np.uint16)
        cb = build_codebook(syms, 64)
        (s1, l1), (s2, l2) = cb.decode_tables(), cb.decode_tables()
        assert s1 is not s2 and l1 is not l2
        np.testing.assert_array_equal(s1, s2)
        np.testing.assert_array_equal(l1, l2)
        assert "_tables" not in vars(cb)

        taken = []

        class Spy(ScratchPool):
            def take(self, shape, dtype):
                taken.append((shape, np.dtype(dtype)))
                return super().take(shape, dtype)

        monkeypatch.setattr(huffman, "WORKSPACE", Spy())
        payload, total_bits, offsets = huffman_encode(syms, cb)
        np.testing.assert_array_equal(huffman_decode(payload, total_bits, syms.size, cb, offsets), syms)
        size = 1 << cb.max_length
        assert taken == [((size,), cb.symbol_dtype), ((size,), np.dtype(np.uint8))]


GEOMETRY_COUNTS = [
    1, 15, 16, 17, 255, 256, 257, 4095, 4096, 4097, 70_000, 2**17, 2**17 + 1, 2**20,
]
#: the uncompiled numba loops cost ~1 us per symbol per pass: they stop at
#: 70 000 symbols, which has the 64-symbol chunk of every stream from
#: 4 096 to 2**17 symbols and crosses an ENCODE_BLOCK boundary; the
#: 128- and 256-symbol chunks beyond run on NumPy alone
SLOW_PATH_MAX = 70_000
COUNT_X_BACKEND = [
    (count, backend)
    for count in GEOMETRY_COUNTS
    for backend in (*available_backends(), "python-loops")  # numba on the CI leg that has it
    if backend != "python-loops" or count <= SLOW_PATH_MAX
]


def _alphabet(kind, count, deep_codebook):
    """``(symbols, codebook)`` for one of the three geometry alphabets."""
    rng = np.random.default_rng(count)
    if kind == "single":
        syms = np.full(count, 7, dtype=np.uint16)
        return syms, build_codebook(syms, 16)
    if kind == "relu":  # one dominant symbol -> one 1-bit code
        syms = np.where(
            rng.random(count) < 0.8, 512, rng.integers(480, 544, size=count)
        ).astype(np.uint16)
        cb = HuffmanCodebook.from_frequencies(
            np.bincount(syms, minlength=1024) + (np.arange(1024) == 512) * (count + 64)
        )
        assert cb.lengths[512] == 1
        return syms, cb
    # uniform over 1024 symbols under a complete book with L = 16
    return rng.integers(0, 1024, size=count).astype(np.uint16), deep_codebook


def _python_loops_backend():
    fns = make_kernel_functions(python_loops(), lambda name: pytest.fail(f"fallback in {name}"))
    return KernelBackend(name="python-loops", **fns)


class TestChunkGeometry:
    """Per-tensor chunk geometry: one rule shared by encoder, decoder
    and the byte accounting, identical on every backend."""

    def test_chunk_size_rule(self):
        counts = [*range(70_000), *(2**k + d for k in range(17, 41) for d in (-1, 0, 1))]
        sizes = [chunk_size_for(n) for n in counts]
        assert all(16 <= s <= DEFAULT_CHUNK == 256 and s & (s - 1) == 0 for s in sizes)
        assert sizes == sorted(sizes)  # non-decreasing in count
        # the sqrt rule below 4 096 symbols ...
        for n in range(1, 4097):
            s = chunk_size_for(n)
            assert s * s >= n and (s == 16 or (s // 2) ** 2 < n)
        assert [chunk_size_for(n) for n in (0, 1, 216, 256, 257, 1024, 1025, 4096)] == [
            16, 16, 16, 16, 32, 32, 64, 64,
        ]
        # ... 64 up to 2**17, which covers the six train_sz activations ...
        assert {chunk_size_for(n) for n in range(4096, 70_000)} == {64}
        train_sz = (49_152, 131_072, 32_768, 65_536, 16_384, 32_768)
        assert {chunk_size_for(n) for n in train_sz} == {64}
        # ... then at most 2 048 lanes until the chunk is DEFAULT_CHUNK
        assert [chunk_size_for(n) for n in (2**17 + 1, 2**18, 2**18 + 1, 2**19, 2**40)] == [
            128, 128, 256, 256, 256,
        ]
        assert all(-(-n // chunk_size_for(n)) <= 2048 for n in counts if n <= 2**19)

    def test_layout_is_the_bit_width_of_a_full_chunk(self):
        """One table entry holds ``bits - 1`` of a chunk of maximal
        codewords and not one bit more: 8 bits at 16 symbols, 10 at 64."""
        for n, size, width in ((1, 16, 8), (216, 16, 8), (1000, 32, 9), (16_384, 64, 10),
                               (131_072, 64, 10), (2**18, 128, 11), (2**19, 256, 12)):
            n_chunks = -(-n // size)
            assert chunk_layout(n) == (size, n_chunks, width)
            assert (1 << width) == size * MAX_CODE_LENGTH
            assert chunk_meta_nbytes(n) == -(-n_chunks * width // 8)
        # four times the chunks of format v2's 256-symbol geometry in 5/8 of
        # the bytes per chunk
        assert chunk_meta_nbytes(131_072) == 2560 and 2 * (131_072 // 256) == 1024

    @pytest.mark.parametrize("kind", ["single", "relu", "uniform16"])
    @pytest.mark.parametrize("count,backend", COUNT_X_BACKEND)
    def test_roundtrip_matches_oracles(self, count, kind, backend, deep_codebook):
        kernels = _python_loops_backend() if backend == "python-loops" else get_backend(backend)
        syms, cb = _alphabet(kind, count, deep_codebook)
        payload, bits, offsets = huffman_encode(syms, cb, kernels=kernels)
        oracle = _encode_bitplane(syms, cb, chunk_size_for(count))
        assert (payload, bits) == oracle[:2]
        np.testing.assert_array_equal(offsets, oracle[2])
        assert offsets.size == chunk_layout(count)[1]
        decoded = huffman_decode(payload, bits, count, cb, chunk_offsets=offsets, kernels=kernels)
        np.testing.assert_array_equal(decoded, syms)

    @pytest.mark.parametrize("backend", ["numpy", "python-loops"])
    @pytest.mark.parametrize("chunk_size", [1, 7, 16, 1000])
    @pytest.mark.parametrize("count", [1, 17, 1000, 4097])
    def test_explicit_chunk_size_still_roundtrips(self, count, chunk_size, backend, deep_codebook):
        kernels = get_backend("numpy") if backend == "numpy" else _python_loops_backend()
        syms, cb = _alphabet("uniform16", count, deep_codebook)
        payload, bits, offsets = huffman_encode(syms, cb, chunk_size, kernels=kernels)
        assert offsets.size == -(-count // chunk_size)
        decoded = huffman_decode(payload, bits, count, cb, offsets, chunk_size, kernels=kernels)
        np.testing.assert_array_equal(decoded, syms)

    def test_mismatched_geometry_rejected(self):
        syms, cb = _alphabet("relu", 5000, None)
        payload, bits, offsets = huffman_encode(syms, cb)
        with pytest.raises(ValueError, match="chunk metadata inconsistent"):
            huffman_decode(payload, bits, syms.size, cb, offsets, chunk_size=4096)

    @pytest.mark.parametrize("chunk_size", [0, -16])
    def test_chunkless_geometry_rejected(self, chunk_size):
        """A chunk holds at least one symbol, on the way in and out."""
        syms, cb = _alphabet("relu", 5000, None)
        with pytest.raises(ValueError, match=f"chunk_size must be >= 1, got {chunk_size}"):
            huffman_encode(syms, cb, chunk_size)
        payload, bits, offsets = huffman_encode(syms, cb)
        with pytest.raises(ValueError, match=f"chunk_size must be >= 1, got {chunk_size}"):
            huffman_decode(payload, bits, syms.size, cb, offsets, chunk_size)


@given(st.lists(st.integers(0, 31), min_size=1, max_size=3000))
@settings(max_examples=60, deadline=None)
def test_property_roundtrip(values):
    syms = np.array(values, dtype=np.uint16)
    assert np.array_equal(_roundtrip(syms, 32), syms)


@given(st.lists(st.integers(0, 31), min_size=1, max_size=3000))
@settings(max_examples=60, deadline=None)
def test_property_packers_agree(values):
    syms = np.array(values, dtype=np.uint16)
    cb = build_codebook(syms, 32)
    w = huffman_encode(syms, cb)
    b = _encode_bitplane(syms, cb, chunk_size_for(syms.size))
    assert w[0] == b[0] and w[1] == b[1]


# ---------------------------------------------------------------------------
# Two-queue code lengths against the heap construction
# ---------------------------------------------------------------------------


def _heap_lengths(freqs):
    """The heap construction the two queues replaced: a leaf's tiebreak
    is its symbol, an internal node's its creation count past every
    symbol, and every merge deepens the leaves under it by one."""
    present = np.nonzero(freqs)[0]
    lengths = np.zeros(freqs.size, dtype=np.uint8)
    if present.size == 1:
        lengths[present[0]] = 1
        return lengths
    heap = [(int(freqs[s]), int(s), [int(s)]) for s in present]
    heapq.heapify(heap)
    counter = int(freqs.size)
    while len(heap) > 1:
        f1, _, s1 = heapq.heappop(heap)
        f2, _, s2 = heapq.heappop(heap)
        for s in s1 + s2:
            lengths[s] += 1
        counter += 1
        heapq.heappush(heap, (f1 + f2, counter, s1 + s2))
    return lengths


@pytest.mark.parametrize(
    "freqs",
    [
        [5],  # one symbol
        [0, 0, 7, 0],
        [1, 1],
        [3, 3, 3, 3, 3, 3, 3],  # ties everywhere: leaves before internal nodes
        [2, 1, 1, 2, 4, 4, 8, 8],  # sums that tie with leaves
        [1, 2, 3, 5, 8, 13, 21, 34, 55, 89],  # Fibonacci: the deepest tree
        [10**9, 1, 1, 1, 0, 1, 10**6],  # skewed
    ],
)
def test_two_queue_lengths_equal_the_heap(freqs):
    freqs = np.array(freqs, dtype=np.int64)
    np.testing.assert_array_equal(_huffman_lengths(freqs), _heap_lengths(freqs))


@pytest.mark.parametrize("seed", range(12))
def test_two_queue_lengths_equal_the_heap_on_wide_alphabets(seed):
    """1 024-symbol alphabets: quantization-code-shaped (peaked at the
    radius, sparse tails), uniform with many ties, and mostly absent."""
    rng = np.random.default_rng(seed)
    peaked = np.bincount(np.clip(rng.laplace(512, 1 + seed, 50_000), 1, 1023).astype(int), minlength=1024)
    ties = rng.integers(1, 4, 1024)
    sparse = np.where(rng.random(1024) < 0.05, rng.integers(1, 10**6, 1024), 0)
    sparse[seed] = 1
    for freqs in (peaked, ties, sparse):
        np.testing.assert_array_equal(_huffman_lengths(freqs), _heap_lengths(freqs))


@given(st.lists(st.integers(0, 50), min_size=1, max_size=300).filter(any))
@settings(max_examples=200, deadline=None)
def test_property_two_queue_lengths_equal_the_heap(freqs):
    freqs = np.array(freqs, dtype=np.int64)
    np.testing.assert_array_equal(_huffman_lengths(freqs), _heap_lengths(freqs))


# ---------------------------------------------------------------------------
# Vectorized canonical codes and decode tables against the reference loops
# ---------------------------------------------------------------------------


def _loop_codes(lengths):
    """Reference canonical codes: one symbol at a time in (length, symbol)
    order, shifting the running code left as the length grows."""
    codes = np.zeros(lengths.size, dtype=np.uint32)
    syms = np.nonzero(lengths)[0]
    if syms.size == 0:
        return codes
    code, prev = 0, None
    for s in syms[np.lexsort((syms, lengths[syms]))]:
        length = int(lengths[s])
        code <<= length - (length if prev is None else prev)
        codes[s] = code
        code += 1
        prev = length
    return codes


def _loop_tables(book):
    """Reference dense tables: each codeword's ``2^(L - l)`` prefixes
    filled one slice at a time; unused prefixes stay (symbol 0, length 1)."""
    L = book.max_length
    tsym = np.zeros(1 << L, dtype=book.symbol_dtype)
    tlen = np.ones(1 << L, dtype=np.uint8)
    for s in np.nonzero(book.lengths)[0]:
        length, code = int(book.lengths[s]), int(book.codes[s])
        tsym[code << (L - length) : (code + 1) << (L - length)] = s
        tlen[code << (L - length) : (code + 1) << (L - length)] = length
    return tsym, tlen


def _assert_matches_loops(book):
    np.testing.assert_array_equal(book.codes, _loop_codes(book.lengths))
    tsym, tlen = book.decode_tables()
    want_sym, want_len = _loop_tables(book)
    assert tsym.dtype == want_sym.dtype and tlen.dtype == want_len.dtype
    np.testing.assert_array_equal(tsym, want_sym)
    np.testing.assert_array_equal(tlen, want_len)
    # the decoder fills borrowed buffers holding anything: every entry is written
    tsym.fill(np.iinfo(tsym.dtype).max)
    tlen.fill(0xFF)
    book._fill_decode_tables(tsym, tlen)
    np.testing.assert_array_equal(tsym, want_sym)
    np.testing.assert_array_equal(tlen, want_len)
    # a book rebuilt from its stored lengths (what loads does) is the same book
    again = HuffmanCodebook.from_lengths(book.lengths)
    np.testing.assert_array_equal(again.codes, book.codes)


@given(st.lists(st.integers(0, 1000), min_size=2, max_size=1100).filter(any))
@settings(max_examples=80, deadline=None)
def test_property_codes_and_tables_match_the_loops(freqs):
    _assert_matches_loops(HuffmanCodebook.from_frequencies(np.array(freqs)))


@given(st.lists(st.integers(0, 2**40), min_size=17, max_size=64).filter(lambda f: sum(f) > 0))
@settings(max_examples=40, deadline=None)
def test_property_deep_books_match_the_loops(freqs):
    """Exponentially spread frequencies push the code to the 16-bit cap."""
    _assert_matches_loops(HuffmanCodebook.from_frequencies(np.array(freqs, dtype=np.int64)))


@given(st.integers(1, 2048), st.data())
@settings(max_examples=40, deadline=None)
def test_property_single_symbol_books_match_the_loops(alphabet, data):
    """One 1-bit code: the table pads its unused upper half exactly as
    the loop left it, (symbol 0, length 1)."""
    freqs = np.zeros(alphabet, dtype=np.int64)
    freqs[data.draw(st.integers(0, alphabet - 1))] = 5
    book = HuffmanCodebook.from_frequencies(freqs)
    assert book.max_length == 1 and book.decode_tables()[0].size == 2
    _assert_matches_loops(book)


def test_sixteen_bit_book_matches_the_loops(deep_codebook):
    _assert_matches_loops(deep_codebook)
    assert deep_codebook.decode_tables()[0].size == 1 << MAX_CODE_LENGTH


class TestCompleteCodes:
    """A book from stored lengths is accepted only if it is what
    ``from_frequencies`` builds: a complete prefix code, one symbol of
    length 1, or no symbol at all."""

    @pytest.mark.parametrize(
        "lengths",
        [[1, 1], [1, 2, 2], [2, 2, 2, 2], [0, 1, 0], [0, 0, 0], [], [1, 2, 3, 3, 0]],
    )
    def test_complete_codes_accepted(self, lengths):
        HuffmanCodebook.from_lengths(np.array(lengths, dtype=np.uint8))

    @pytest.mark.parametrize(
        "lengths",
        [[1, 1, 1], [2, 2, 2], [1, 2], [0, 2], [3], [1, 1, 16], [1, 2, 3]],
        ids=["overfull", "incomplete", "short", "single-len2", "single-len3", "one-extra", "gap"],
    )
    def test_other_codes_rejected(self, lengths):
        with pytest.raises(ValueError, match="complete prefix code"):
            HuffmanCodebook.from_lengths(np.array(lengths, dtype=np.uint8))

    def test_every_single_byte_edit_of_a_raw_book_raises_or_decodes_bit_equal(self):
        """``outlier_heavy_r8``'s 16-symbol book is stored raw (deflate does
        not shrink it), so no checksum covers it: every one-byte edit of
        the section must be refused, never decode to other values."""
        from pathlib import Path

        from repro.compression import SZCompressor
        from repro.compression.errors import CorruptBlobError
        from repro.compression.szlike.serialize import loads

        blob = (Path(__file__).parent / "golden" / "outlier_heavy_r8.blob").read_bytes()
        ct = loads(blob)
        section = len(ct.codebook.section())
        assert section == ct.codebook.lengths.size == 16  # raw: one byte per symbol
        codec = SZCompressor(dict_size=16)
        want = codec.decompress(ct).tobytes()
        edited = bytearray(blob)
        accepted = 0
        for pos in range(len(blob) - section, len(blob)):
            for value in range(256):
                if value == blob[pos]:
                    continue
                edited[pos] = value
                try:
                    got = codec.decompress(loads(bytes(edited)))
                except CorruptBlobError:
                    continue
                accepted += 1
                assert got.tobytes() == want
            edited[pos] = blob[pos]
        assert accepted == 0
