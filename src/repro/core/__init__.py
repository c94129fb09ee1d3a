"""The paper's contribution: adaptive error-bounded activation compression."""

from repro.core.error_model import (
    PAPER_COEFFICIENT_A,
    THEORY_COEFFICIENT_A,
    error_bound_for_sigma,
    fit_coefficient,
    predict_sigma,
)
from repro.core.gradient_assessment import GradientAssessor
from repro.core.memory_tracker import LayerMemoryRecord, MemoryTracker
from repro.core.arena import ByteArena
from repro.core.engine import SyncEngine
from repro.core.activation_store import CompressingContext, PackedActivation
from repro.core.param_store import ParamStore, StoredEntry, StoreSlots
from repro.core.policy_table import PolicyTable, ResolvedPolicy, compile_matcher
from repro.core.adaptive import AdaptiveConfig, AdaptiveController
from repro.core.framework import CompressedTraining

__all__ = [
    "PAPER_COEFFICIENT_A",
    "THEORY_COEFFICIENT_A",
    "error_bound_for_sigma",
    "fit_coefficient",
    "predict_sigma",
    "GradientAssessor",
    "LayerMemoryRecord",
    "MemoryTracker",
    "ByteArena",
    "SyncEngine",
    "CompressingContext",
    "PackedActivation",
    "ParamStore",
    "StoredEntry",
    "StoreSlots",
    "PolicyTable",
    "ResolvedPolicy",
    "compile_matcher",
    "AdaptiveConfig",
    "AdaptiveController",
    "CompressedTraining",
]
