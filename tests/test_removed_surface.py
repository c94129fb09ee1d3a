"""Library surface that only tests reached is gone, and stays gone.

Snapshots, the per-parameter write path, the LR-schedule hook,
``CompressedTraining.detach``, the recompute-policy flags and the
per-session sanitizer switch had no caller outside the test suite.
Neither had the Huffman decoder that worked without a chunk table.
The V100 performance simulator measured nothing: every input was a
constant.  Nothing passed a jpeg DEFLATE level or a scratch pool's caps,
and nothing called ``StepScheduler.drain`` or
``SoftmaxCrossEntropy.predictions``.  The core's ``AdaptiveConfig`` and
``PolicyTable`` mirrored the ``adaptive`` section and the policy rules:
``build_session`` resolves each layer's policy once, and
``CompressedTraining`` takes the ``AdaptiveSpec`` itself.
``LayerReport.flops`` lost its one reader with the simulator.  The
``"chunked"`` codec split tensors no workload ever sent it; its thread
pool, its ``CKRP`` container and the close hook that stopped the pools
went with it.  ``Session.close()`` closes the stack ``build_session``
fills, so the trainer's close hooks, ``CompressedTraining``'s param-store
wiring and ``close()``, and the ``ParamStore`` arena and codec-key
shortcuts nothing used are gone; so are ``Session.from_json`` (a second
front door), ``Session.sanitizer_report`` and the codebook cache's
per-instance settings and ``invalidate()``, which no caller set or
called.  ``SZCompressor(codebook_cache=...)`` went when every keyed
Huffman stream took the cached book, and the ``huffman+zlib`` entropy
stage, whose DEFLATE pass bought 0.6% of ``train_sz``'s bytes for
3.9 ms a step, with it.  The baseline codecs implement the codec
contract themselves, so their registry adapter classes, the open
``register_codec`` and the ``supports_cache_key`` flag are gone; so are
the codebook cache's LRU bound, which no model's layer count came near,
and ``PackedActivation.nonzero_ratio``, which nothing read.  A Huffman
codebook no longer keeps its decode tables (``HuffmanCodebook._tables``):
each decode builds them in the workspace, cheaper than holding them for
the run.  Per-layer policy rules (``SessionConfig.rules``, ``PolicyRule``,
the core's ``ResolvedPolicy`` records and the tracker's per-rule groups)
had no committed workload: a session packs every layer with one codec
under one bound regime, and the fixed-bound ablation is a codec
``error_bound`` with the controller off.  No workload trained with Adam
or set ``optimizer.options``: SGD with momentum, whose velocity Eq. 8
budgets against, is the one optimizer, so the ``Optimizer`` base and its
named slots are gone, and the Eq. 8 budget lives in the
``AdaptiveController`` instead of a ``GradientAssessor``.  Eq. 9's
coefficient, the bound clamps and the nonzero-ratio floor are constants
of ``repro.core.adaptive``, not ``adaptive`` keys; ``reduce_order`` has
one schedule, the rank-tree.  reprolint runs every rule over every file:
no inline suppression, ``--rules`` or ``--json``.  Nothing used the
``Tanh`` / ``Sigmoid`` layers, the normal and Xavier initializers, or
``StageProfiler.reset`` / ``total_seconds``.
"""

import json
import os
import struct
import subprocess
import sys

import numpy as np
import pytest

from repro.api import (
    AdaptiveSpec,
    CodecSpec,
    ConfigError,
    OptimizerSpec,
    Session,
    SessionConfig,
    StorageSpec,
)
from repro.api.config import DistributedSpec
from repro.compression import CorruptBlobError, SZCompressor, get_codec
from repro.compression.registry import dumps, loads, wire_header_nbytes
from repro.compression.szlike import (
    CodebookCache,
    CodebookTable,
    HuffmanCodebook,
    SharedCodebookCache,
    build_codebook,
    huffman_decode,
    huffman_encode,
)
from repro.core.activation_store import CompressingContext, PackedActivation
from repro.core.framework import CompressedTraining
from repro.core.memory_tracker import MemoryTracker
from repro.core.param_store import ParamStore, StoreSlots
from repro.distributed import reduce_arrays
from repro.lint import LintModule, Violation, lint_paths
from repro.models.specs import ConvS, LayerReport, walk_shapes
from repro.compression.jpeg_like import JpegLikeCompressor
from repro.nn import SGD, Layer, Linear, ResidentSlots, SlotState, Trainer
from repro.nn.layers.loss import SoftmaxCrossEntropy
from repro.server.scheduler import StepScheduler
from repro.utils import ScratchPool, StageProfiler


def _context(**kwargs):
    return CompressingContext(adaptive=AdaptiveSpec(), **kwargs)


def _training(**kwargs):
    net = Linear(2, 2, rng=0)
    return CompressedTraining(net, SGD(net.parameters(), lr=0.1), config=AdaptiveSpec(), **kwargs)


class TestRemovedSurface:
    @pytest.mark.parametrize(
        "module,name",
        [
            ("repro.nn", "save_snapshot"),
            ("repro.nn", "load_snapshot"),
            ("repro.nn", "StepLR"),
            ("repro.nn", "ConstantLR"),
            ("repro.nn.optim", "StepLR"),
            ("repro.api.config", "SanitizerSpec"),
            ("repro.core", "AdaptiveConfig"),
            ("repro.core", "PolicyTable"),
            ("repro.core", "compile_matcher"),
            ("repro.core.adaptive", "AdaptiveConfig"),
            ("repro.api", "build_policy_table"),
            ("repro.api.session", "build_policy_table"),
            ("repro.compression", "ChunkedCodec"),
            ("repro.compression", "ChunkedCompressedTensor"),
            ("repro.compression.registry", "ChunkedCodec"),
            ("repro.compression.registry", "ChunkedCompressedTensor"),
            ("repro.compression.registry", "CHUNK_HEADER_BYTES"),
            ("repro.api.session", "close_codecs"),
            ("repro.compression", "register_codec"),
            ("repro.compression.registry", "register_codec"),
            ("repro.compression.registry", "JpegCodec"),
            ("repro.compression.registry", "DeflateCodec"),
            ("repro.compression.registry", "SparseLosslessCodec"),
            ("repro.compression.szlike.codebook_cache", "MAX_ENTRIES"),
            ("repro.api", "PolicyRule"),
            ("repro.api.config", "PolicyRule"),
            ("repro.core", "ResolvedPolicy"),
            ("repro.core.activation_store", "ResolvedPolicy"),
            ("repro.core.memory_tracker", "DEFAULT_GROUP"),
            ("repro.api.config", "DEFAULT_GROUP"),
            ("repro.api.session", "DEFAULT_GROUP"),
            ("repro.api.session", "_first_matches"),
            ("repro.api.session", "_build_compressed"),
            ("repro.nn", "Adam"),
            ("repro.nn", "Optimizer"),
            ("repro.nn.optim", "Adam"),
            ("repro.nn.optim", "Optimizer"),
            ("repro.core", "GradientAssessor"),
            ("repro.nn", "Tanh"),
            ("repro.nn", "Sigmoid"),
            ("repro.nn.layers", "Tanh"),
            ("repro.nn.layers", "Sigmoid"),
            ("repro.nn.init", "kaiming_normal"),
            ("repro.nn.init", "xavier_uniform"),
            ("repro.api.config", "REDUCE_ORDERS"),
            ("repro.distributed", "REDUCE_ORDERS"),
            ("repro.lint", "render_json"),
            ("repro.lint.engine", "render_json"),
        ],
    )
    def test_import_is_an_import_error(self, module, name):
        with pytest.raises(ImportError):
            exec(f"from {module} import {name}", {})

    def test_snapshot_module_is_gone(self):
        with pytest.raises(ImportError):
            import repro.nn.snapshot  # noqa: F401

    def test_policy_table_module_is_gone(self):
        with pytest.raises(ModuleNotFoundError):
            import repro.core.policy_table  # noqa: F401

    def test_gradient_assessment_module_is_gone(self):
        with pytest.raises(ModuleNotFoundError):
            import repro.core.gradient_assessment  # noqa: F401

    def test_adam_is_a_config_error_listing_the_choices(self):
        with pytest.raises(ConfigError, match=r"^optimizer: kind must be one of 'sgd', got 'adam'"):
            OptimizerSpec(kind="adam").validate()
        with pytest.raises(ConfigError, match="one of 'sgd'"):
            SessionConfig.from_dict({"optimizer": {"kind": "adam"}})

    def test_optimizer_options_key_is_a_config_error(self):
        with pytest.raises(ConfigError, match=r"^optimizer: unknown key.*'options'"):
            SessionConfig.from_dict({"optimizer": {"options": {}}})
        with pytest.raises(TypeError, match="options"):
            OptimizerSpec(options={})

    def test_sgd_counts_no_iterations(self):
        net = Linear(2, 2, rng=0)
        opt = SGD(net.parameters(), lr=0.1)
        opt.step()
        assert not hasattr(opt, "iteration")

    def test_simulator_package_is_gone(self):
        with pytest.raises(ModuleNotFoundError):
            import repro.simulator  # noqa: F401

    def test_huffman_decode_requires_the_chunk_table(self):
        syms = np.array([0, 1, 1, 2], dtype=np.uint16)
        cb = build_codebook(syms, 4)
        payload, bits, _ = huffman_encode(syms, cb)
        with pytest.raises(TypeError, match="chunk_offsets"):
            huffman_decode(payload, bits, syms.size, cb)

    @pytest.mark.parametrize(
        "rules",
        [
            [{"match": "*", "error_bound": 1e-2}],
            [{"match": "l0", "codec": {"name": "lossless"}}],
            [],
        ],
        ids=["fixed-bound", "codec", "empty"],
    )
    def test_rules_config_key_is_a_config_error(self, rules):
        with pytest.raises(ConfigError, match=r"^session: unknown key.*'rules'"):
            SessionConfig.from_dict({"rules": rules})
        with pytest.raises(TypeError, match="rules"):
            SessionConfig(rules=rules)

    def test_tenant_session_rules_are_a_config_error(self):
        from repro.server import load_server_config

        fleet = {"tenants": [{"name": "t", "session": {"rules": [{"match": "l0"}]}}]}
        with pytest.raises(ConfigError, match=r"^tenants\[0\]\.session: unknown key.*'rules'"):
            load_server_config(json.dumps(fleet))

    @pytest.mark.parametrize(
        "make,attr",
        [
            (_context, "policies"),
            (_context, "default_policy"),
            (MemoryTracker, "per_group"),
        ],
        ids=["context-policies", "context-default_policy", "tracker-per_group"],
    )
    def test_instance_attribute_is_gone(self, make, attr):
        assert not hasattr(make(), attr)

    def test_lr_schedule_is_not_a_trainer_keyword(self):
        net = Linear(2, 2, rng=0)
        with pytest.raises(TypeError, match="lr_schedule"):
            Trainer(net, SGD(net.parameters(), lr=0.1), lr_schedule=None)

    @pytest.mark.parametrize(
        "value", [{"enabled": True}, {"poison": False}, {"lock_order": False}, {}]
    )
    def test_sanitizer_config_key_is_a_config_error(self, value):
        with pytest.raises(ConfigError, match=r"^session: unknown key.*'sanitizer'"):
            SessionConfig.from_dict({"sanitizer": value})
        with pytest.raises(TypeError, match="sanitizer"):
            SessionConfig(sanitizer=value)

    @pytest.mark.parametrize(
        "cls,attr",
        [
            (ParamStore, "read_param"),
            (ParamStore, "write_param"),
            (ParamStore, "_write_part"),
            (SGD, "write_slot"),
            (SGD, "read_slot"),
            (SGD, "slot_names"),
            (SGD, "momentum_slot"),
            (SGD, "init_slots"),
            (SGD, "apply_update"),
            (SGD, "average_momentum_magnitude"),
            (SlotState, "write"),
            (ResidentSlots, "write"),
            (StoreSlots, "write"),
            (CompressedTraining, "detach"),
            (Layer, "recomputable"),
            (StepScheduler, "drain"),
            (SoftmaxCrossEntropy, "predictions"),
            (AdaptiveSpec, "to_adaptive_config"),
            (Session, "policy_table"),
            (Session, "from_json"),
            (Session, "sanitizer_report"),
            (Trainer, "close"),
            (Trainer, "__enter__"),
            (CompressedTraining, "close"),
            (CodebookCache, "invalidate"),
            (CodebookTable, "invalidate"),
            (SharedCodebookCache, "from_cache"),
            (SZCompressor, "supports_cache_key"),
            (CompressingContext, "policy"),
            (MemoryTracker, "group_summary"),
            (StageProfiler, "reset"),
            (StageProfiler, "total_seconds"),
            (Violation, "to_dict"),
            (LintModule, "is_suppressed"),
        ],
    )
    def test_attribute_is_gone(self, cls, attr):
        assert not hasattr(cls, attr)

    @pytest.mark.parametrize(
        "make,keyword",
        [
            (lambda: JpegLikeCompressor(zlib_level=6), "zlib_level"),
            (lambda: ScratchPool(max_per_dtype=2), "max_per_dtype"),
            (lambda: ScratchPool(max_total_bytes=1 << 20), "max_total_bytes"),
            (lambda: _context(policy_table=None), "policy_table"),
            (lambda: _context(initial_rel_eb=1e-3), "initial_rel_eb"),
            (lambda: _training(policy_table=None), "policy_table"),
            (lambda: _training(adaptive=True), "adaptive"),
            (lambda: _training(param_storage=None), "param_storage"),
            (lambda: ParamStore(storage=None), "storage"),
            (lambda: CodebookCache(delta=0.5), "delta"),
            (lambda: SharedCodebookCache(CodebookTable(), refresh_interval=3), "refresh_interval"),
            (lambda: SZCompressor(1e-3, codebook_cache=True), "codebook_cache"),
            (lambda: _context(policies={}), "policies"),
            (lambda: _training(policies={}), "policies"),
            (lambda: MemoryTracker().record_pack("l0", 2, 1, group="g"), "group"),
            (lambda: lint_paths([], rules=[]), "rules"),
        ],
        ids=[
            "jpeg-zlib_level", "scratch-max_per_dtype", "scratch-max_total_bytes",
            "context-policy_table", "context-initial_rel_eb",
            "training-policy_table", "training-adaptive", "training-param_storage",
            "param_store-storage", "codebook_cache-delta", "shared_cache-refresh_interval",
            "szlike-codebook_cache", "context-policies", "training-policies",
            "tracker-record_pack-group", "lint_paths-rules",
        ],
    )
    def test_constructor_option_is_a_type_error(self, make, keyword):
        with pytest.raises(TypeError, match=keyword):
            make()

    def test_instance_state_is_gone(self):
        net = Linear(2, 2, rng=0)
        assert not hasattr(Trainer(net, SGD(net.parameters(), lr=0.1)), "last_loss_value")
        assert not hasattr(_context(), "enabled")
        assert not hasattr(Trainer(net, SGD(net.parameters(), lr=0.1)), "close_hooks")
        assert not hasattr(_training(), "param_store")
        assert not hasattr(_training(), "assessor")
        assert "recomputable" not in LayerReport.__dataclass_fields__
        assert "nonzero_ratio" not in PackedActivation.__dataclass_fields__
        assert "policy_label" not in PackedActivation.__dataclass_fields__
        assert not hasattr(CodebookCache(), "evictions")
        assert "evictions" not in CodebookCache().stats()
        assert "_tables" not in HuffmanCodebook.__dataclass_fields__
        symbols = np.arange(200, dtype=np.uint16) % 8
        book = build_codebook(symbols, 8)
        payload, total_bits, offsets = huffman_encode(symbols, book)
        huffman_decode(payload, total_bits, symbols.size, book, offsets)
        book.decode_tables()
        assert not hasattr(book, "_tables")

    @pytest.mark.parametrize(
        "key,value",
        [("coefficient", 0.5), ("eb_min", 1e-6), ("eb_max", 1.0), ("min_nonzero_ratio", 0.01)],
    )
    def test_adaptive_constant_is_not_a_key(self, key, value):
        with pytest.raises(ConfigError, match=rf"^adaptive: unknown key.*'{key}'"):
            SessionConfig.from_json(json.dumps({"adaptive": {key: value}}))
        with pytest.raises(TypeError, match=key):
            AdaptiveSpec(**{key: value})

    def test_linear_reduce_order_is_a_config_error_naming_tree(self):
        with pytest.raises(ConfigError, match=r"^distributed: reduce_order must be one of 'tree'"):
            SessionConfig.from_dict({"distributed": {"world_size": 2, "reduce_order": "linear"}})

    def test_reduce_arrays_takes_no_order(self):
        a = np.ones(3, np.float32)
        with pytest.raises(TypeError, match="order"):
            reduce_arrays([a, a], [1.0, 1.0], order="tree")

    def test_lint_module_keeps_no_suppressions(self):
        fields = LintModule.__dataclass_fields__
        assert "line_suppressions" not in fields and "block_suppressions" not in fields

    @pytest.mark.parametrize("option", [["--json"], ["--rules", "LCK001"]], ids=["json", "rules"])
    def test_lint_cli_option_is_a_usage_error(self, option):
        src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
        env = {**os.environ, "PYTHONPATH": os.path.abspath(src)}
        proc = subprocess.run(
            [sys.executable, "-m", "repro.lint", *option, src],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 2
        assert "unrecognized arguments" in proc.stderr

    def test_layer_report_has_no_flops(self):
        (report,) = walk_shapes([ConvS(8, 3, padding=1)], (1, 4, 8, 8))
        assert not hasattr(report, "flops")
        assert "flops" not in LayerReport.__dataclass_fields__


class TestChunkedCodecIsGone:
    def test_registry_key_is_a_value_error(self):
        with pytest.raises(ValueError, match="unknown codec 'chunked'"):
            get_codec("chunked", inner="szlike", workers=2)

    @pytest.mark.parametrize(
        "make",
        [
            lambda spec: SessionConfig(codec=spec),
            lambda spec: SessionConfig(storage=StorageSpec(params="arena", param_codec=spec)),
            lambda spec: SessionConfig(distributed=DistributedSpec(world_size=2, grad_codec=spec)),
        ],
        ids=["session", "param", "grad"],
    )
    def test_config_naming_it_is_a_config_error(self, make):
        spec = CodecSpec("chunked", {"inner": "szlike", "workers": 2})
        with pytest.raises(ConfigError, match="unknown codec 'chunked'"):
            make(spec).validate()

    def test_ckrp_blob_is_corrupt(self):
        chunk = dumps(SZCompressor(1e-3).compress(np.ones((2, 3, 4, 4), np.float32)))
        header = json.dumps(
            {"shape": [2, 3, 4, 4], "dtype": "float32", "axis": 0, "chunk_lengths": [len(chunk)]}
        ).encode()
        blob = b"CKRP" + struct.pack("<I", len(header)) + header + chunk
        with pytest.raises(CorruptBlobError, match="bad magic"):
            loads(blob)
        with pytest.raises(CorruptBlobError, match="bad magic"):
            wire_header_nbytes(blob)


class TestHuffmanZlibStageIsGone:
    def test_constructor_refuses_it(self):
        with pytest.raises(ValueError, match="entropy"):
            SZCompressor(1e-3, entropy="huffman+zlib")

    def test_a_blob_naming_it_is_corrupt(self):
        blob = dumps(SZCompressor(1e-3).compress(np.ones((2, 3, 4, 4), np.float32)))
        (hlen,) = struct.unpack_from("<I", blob, 4)
        header = {**json.loads(blob[8 : 8 + hlen]), "entropy": "huffman+zlib"}
        hbytes = json.dumps(header, separators=(",", ":")).encode()
        loads(blob)  # the edit alone is what fails
        with pytest.raises(CorruptBlobError):
            loads(blob[:4] + struct.pack("<I", len(hbytes)) + hbytes + blob[8 + hlen :])
