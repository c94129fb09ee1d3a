"""What the non-conv layers save for backward: the narrowest exact form.

``ReLU`` and ``Dropout`` save packed bits, ``MaxPool2D`` its window
offsets in ``uint8``.  Each is checked bit for bit against an in-test
reference of the wider form it replaced (a ``bool`` mask, ``int16``
offsets, a ``float32`` scaled mask), for the outputs and for the input
gradients.
"""

import numpy as np
import pytest

from repro.models import build_scaled_model
from repro.nn import Dropout, MaxPool2D, ReLU, iter_layers
from repro.nn.layers import SavedTensorContext, conv_output_hw


def assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    as_bytes = [np.ascontiguousarray(a).view(np.uint8) for a in (got, want)]
    np.testing.assert_array_equal(*as_bytes)


class CountingContext(SavedTensorContext):
    """Hands out one token per save and knows which are still live."""

    def __init__(self):
        self.live, self._next = {}, 0

    def pack(self, layer, key, arr):
        self._next += 1
        self.live[self._next] = arr
        return self._next

    def unpack(self, layer, key, handle):
        return self.live.pop(handle)

    def discard(self, layer, key, handle):
        del self.live[handle]


def saved(layer):
    (entry,) = layer._saved.values()
    return entry


# ------------------------------------------------------------------- ReLU
def relu_input(rng, shape):
    """Normal values with NaN, +-inf, -0.0 and +0.0 scattered through."""
    x = rng.standard_normal(shape).astype(np.float32)
    flat = x.reshape(-1)
    specials = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0], dtype=np.float32)
    at = rng.choice(flat.size, size=min(flat.size, 3 * specials.size), replace=False)
    flat[at] = np.resize(specials, at.size)
    return x


RELU_SHAPES = [(16, 576), (3, 7), (1, 1), (5, 13), (2, 3, 5, 7), (16, 8, 32, 32), (1, 1, 3, 3)]


@pytest.mark.parametrize("shape", RELU_SHAPES, ids=str)
def test_relu_saves_packed_bits_and_matches_the_bool_mask(rng, shape):
    x = relu_input(rng, shape)
    dout = rng.standard_normal(shape).astype(np.float32)
    dout.reshape(-1)[:4] = np.array([np.nan, np.inf, -np.inf, -0.0], dtype=np.float32)[: dout.size]
    mask = x > 0  # the bool formulation
    layer = ReLU()
    out = layer.forward(x)
    entry = saved(layer)
    assert entry.dtype == np.uint8 and entry.nbytes == -(-x.size // 8) == -(-mask.nbytes // 8)
    assert_same_bits(out, np.maximum(x, 0))
    with np.errstate(invalid="ignore"):
        want = dout * mask
        got = layer.backward(dout)
    assert_same_bits(got, want)
    assert not layer._saved


# -------------------------------------------------------------- MaxPool2D
def pool_reference(x, dout, k, s, p):
    """The ``int16`` formulation: the first maximum of each window, and a
    backward that writes (``s >= k``) or adds offset ``t``'s slab of
    gradients for ``t = 0 .. k*k-1`` in turn."""
    n, c, h, w = x.shape
    ho, wo = conv_output_hw(h, w, k, s, p)
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)), constant_values=-np.inf)
    rows = [slice(i, i + s * (ho - 1) + 1, s) for i in range(k)]
    cols = [slice(j, j + s * (wo - 1) + 1, s) for j in range(k)]
    cells = [(r, q) for r in rows for q in cols]
    windows = np.stack([xp[:, :, r, q] for r, q in cells])
    idx = np.argmax(windows, axis=0).astype(np.int16)
    out = np.take_along_axis(windows, idx[None].astype(np.intp), 0)[0]
    dxp = np.zeros(xp.shape, dtype=dout.dtype)
    for t, (r, q) in enumerate(cells):
        if s >= k:
            dxp[:, :, r, q] = dout * (idx == t)
        else:
            dxp[:, :, r, q] += dout * (idx == t)
    return idx, out, dxp[:, :, p : p + h, p : p + w]


@pytest.mark.parametrize(
    "kernel,stride,padding,shape",
    [
        (2, 2, 0, (16, 8, 32, 32)),
        (2, 2, 0, (3, 5, 7, 9)),
        (3, 3, 0, (2, 3, 9, 9)),
        (3, 2, 1, (2, 3, 11, 7)),
        (3, 1, 1, (2, 4, 6, 6)),
        (2, 1, 0, (1, 3, 5, 8)),
    ],
)
@pytest.mark.parametrize("relu_first", [False, True], ids=["dense", "post_relu"])
def test_pool_saves_uint8_offsets_and_matches_the_int16_ones(
    rng, kernel, stride, padding, shape, relu_first
):
    x = rng.standard_normal(shape).astype(np.float32)
    if relu_first:
        x = np.maximum(x, 0)  # mostly tied windows
    layer = MaxPool2D(kernel, stride=stride, padding=padding)
    out = layer.forward(x)
    dout = rng.standard_normal(out.shape).astype(np.float32)
    idx, want_out, want_dx = pool_reference(x, dout, kernel, stride, padding)
    entry = saved(layer)
    assert entry.dtype == np.uint8 and entry.nbytes == out.size == idx.nbytes // 2
    np.testing.assert_array_equal(entry, idx)
    if not relu_first:
        # every offset occurs
        np.testing.assert_array_equal(np.unique(entry), np.arange(kernel * kernel))
    assert_same_bits(out, want_out)
    assert_same_bits(layer.backward(dout), want_dx)


# ---------------------------------------------------------------- Dropout
@pytest.mark.parametrize("p", [0.1, 0.5])
@pytest.mark.parametrize(
    "shape,dtype", [((16, 64), np.float32), ((3, 13), np.float32), ((2, 3, 5, 7), np.float64)]
)
def test_dropout_saves_packed_bits_and_matches_the_scaled_mask(rng, p, shape, dtype):
    x = rng.standard_normal(shape).astype(dtype)
    dout = rng.standard_normal(shape).astype(dtype)
    keep = 1.0 - p
    # the float formulation
    mask = (np.random.default_rng(5).random(shape) < keep).astype(dtype) / keep
    layer = Dropout(p, rng=5)
    out = layer.forward(x)
    entry = saved(layer)
    assert entry.dtype == np.uint8 and entry.nbytes == -(-x.size // 8)
    assert_same_bits(out, x * mask)
    assert_same_bits(layer.backward(dout), dout * mask)
    assert not layer._saved


# ------------------------------------------------ a forward with no backward
@pytest.mark.parametrize(
    "make,shape",
    [
        (ReLU, (2, 3, 5, 5)),
        (lambda: MaxPool2D(3, stride=2, padding=1), (2, 3, 7, 7)),
        (lambda: Dropout(0.5, rng=0), (4, 9)),
    ],
)
def test_a_forward_without_a_backward_leaks_no_handle(rng, make, shape):
    layer = make()
    ctx = layer.saved_ctx = CountingContext()
    x = rng.standard_normal(shape).astype(np.float32)
    layer.forward(x)
    first = dict(ctx.live)
    out = layer.forward(x)
    assert len(ctx.live) == 1 and ctx.live.keys().isdisjoint(first)
    layer.backward(np.ones_like(out))
    assert not ctx.live and not layer._saved


# ------------------------------------------------ one scaled VGG-16 step
def test_a_scaled_vgg16_step_saves_151808_bytes_outside_the_convs():
    """The ``train_*`` task's network and batch: 57 472 B of ReLU bits,
    57 344 B of pool offsets, the 36 864 B ``Linear`` input and 128 B of
    dropout bits (615 424 B as bool / int16 / float32)."""
    net = build_scaled_model("vgg16", num_classes=8, image_size=32, batch=16, rng=7)
    net.forward(np.random.default_rng(3).standard_normal((16, 3, 32, 32)).astype(np.float32))
    nbytes = {}
    for layer in iter_layers(net):
        kind = "conv" if layer.compressible else type(layer).__name__
        nbytes[kind] = nbytes.get(kind, 0) + sum(v.nbytes for v in layer._saved.values())
    assert nbytes == {
        "conv": 1_310_720,
        "ReLU": 57_472,
        "MaxPool2D": 57_344,
        "Linear": 36_864,
        "Dropout": 128,
        "Flatten": 0,
    }
    assert sum(nbytes.values()) - nbytes["conv"] == 151_808
