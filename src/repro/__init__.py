"""repro — reproduction of "A Novel Memory-Efficient Deep Learning Training
Framework via Error-Bounded Lossy Compression" (Jin et al., PPoPP 2021).

Subpackages
-----------
``repro.api``
    The declarative front door: :class:`~repro.api.config.SessionConfig`
    (serializable codec / per-layer policy-rule / storage / engine /
    adaptive / profiler / optimizer specs) and
    :func:`~repro.api.session.build_session`, which composes the whole
    stack into one :class:`~repro.api.session.Session`.
``repro.compression``
    SZ/cuSZ-style error-bounded lossy compressor (Lorenzo + dual
    quantization + Huffman) plus JPEG-like and lossless baselines.
``repro.nn``
    From-scratch NumPy DNN training substrate with a pluggable
    saved-tensor context (the compression interception point).
``repro.models``
    AlexNet / VGG-16 / ResNet-18 / ResNet-50: full-scale specs for
    memory accounting and scaled trainable variants.
``repro.core``
    The paper's contribution: error-propagation model (Eqs. 6-9),
    gradient assessment, adaptive error-bound controller, and the
    :class:`~repro.core.framework.CompressedTraining` wiring that
    ``build_session`` installs.
``repro.simulator``
    Roofline GPU cost model, interconnect models, and the throughput
    simulator behind Figure 11 and the overhead analysis.
``repro.analysis``
    Error-injection methodology and distribution diagnostics
    (Figures 3, 6, 8, 9).

Quick start::

    from repro.api import SessionConfig, build_session
    from repro.nn import SyntheticImageDataset, batches
    from repro.models import build_scaled_model

    net = build_scaled_model("alexnet", num_classes=8)
    ds = SyntheticImageDataset(num_classes=8)
    with build_session(net, SessionConfig()) as session:
        session.train(batches(ds, batch_size=32, num_batches=100))
        print(session.tracker.overall_ratio)  # activation memory reduction

``SessionConfig.from_json`` makes any run reproducible from a committed
file.
"""

import os

__version__ = "1.0.0"

__all__ = ["__version__"]

if os.environ.get("REPRO_SANITIZE"):
    # read when the sanitizer is imported: load it before anything is constructed
    import repro.core.sanitizer  # noqa: F401
