"""REG001 — codecs are constructed through the registry, nowhere else.

**Rule.** Outside ``compression/`` modules (where the codec classes
live) and test files (``test_*.py`` / ``conftest.py``), direct
construction of a codec class — ``SZCompressor(...)``,
``ChunkedCodec(...)``, ``JpegCodec(...)``, ... — is a violation.
Sessions must obtain codecs via
:func:`repro.compression.registry.get_codec` (and describe them via
``spec_of``), because only registry-keyed construction round-trips
through :class:`~repro.api.config.SessionConfig`: a session's codecs
are its ``CodecSpec`` entries, which is what ``Session.capture()``
re-serializes — a codec instantiated by class has no spec there and
breaks the "committed JSON reproduces the run" contract.

The class-name list mirrors the registry's registrations; adding a
codec means registering it, at which point its name belongs here too.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.lint.engine import LintModule, LintRun, Rule, Violation

__all__ = ["RegistryHygieneRule"]

#: every registered codec class plus the compressor base classes they wrap
_CODEC_CLASSES = {
    "SZCompressor",
    "ChunkedCodec",
    "JpegCodec",
    "DeflateCodec",
    "SparseLosslessCodec",
    "JpegLikeCompressor",
    "DeflateCompressor",
    "SparseLosslessCompressor",
}


class RegistryHygieneRule(Rule):
    id = "REG001"
    name = "registry-hygiene"
    rationale = (
        "Codec objects outside compression/ must come from get_codec()/"
        "spec_of(); class-constructed codecs cannot round-trip through "
        "SessionConfig."
    )

    def check(self, module: LintModule, run: LintRun) -> Iterable[Violation]:
        if "compression" in module.parts:
            return
        if module.filename.startswith("test_") or module.filename == "conftest.py":
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = None
            if isinstance(func, ast.Name):
                name = func.id
            elif isinstance(func, ast.Attribute):
                name = func.attr
            if name in _CODEC_CLASSES:
                yield self.violation(
                    module,
                    node,
                    f"direct {name}(...) construction outside compression/; use "
                    f"get_codec(...) so the codec round-trips through SessionConfig",
                )
