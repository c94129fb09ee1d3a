"""reprolint — project-specific static analysis for the repro codebase.

Run it as ``python -m repro.lint src/``; every rule runs over every
file, and no finding can be silenced inline (``--list-rules`` prints
the catalog).

Rule catalog
============

========  ======================  ==============================================
ID        Name                    Checks
========  ======================  ==============================================
LCK001    lock-discipline         Attributes mutated under a class's own
                                  ``with self._lock:`` must never be touched
                                  outside it (see :mod:`.rules_locks`).
REL001    resource-lifecycle      Arena/param-store acquisitions bound to a
                                  local must be released exactly once on every
                                  path, never used after release
                                  (see :mod:`.rules_lifecycle`).
EBD001    error-bound-exactness   No float32 truncation of error-bound
                                  expressions inside ``compression/``
                                  (see :mod:`.rules_bounds`).
DET001    determinism             No wall-clock, global-RNG, or set-ordered
                                  iteration in code reachable from
                                  ``build_session`` (see :mod:`.rules_determinism`).
REG001    registry-hygiene        Codecs outside ``compression/`` are built
                                  only via ``get_codec``: a class-built codec
                                  has no ``CodecSpec`` naming it, so no
                                  committed config reproduces it
                                  (see :mod:`.rules_registry`).
BKD001    backend-discipline      ``compression/szlike/`` reaches the hot
                                  kernels via ``get_backend(...)``, never the
                                  private ``_numpy_*`` implementations
                                  (see :mod:`.rules_backend`).
IMP001    heavy-import            ``scipy`` is imported inside the function
                                  that uses it, never at module level
                                  (see :mod:`.rules_imports`).
ALLOC001  layer-allocation        In ``nn/layers/``, an array allocated in
                                  ``forward`` / ``backward`` is returned or
                                  saved; temporaries come from the workspace
                                  (see :mod:`.rules_alloc`).
LINT000   parse-error             The file failed to parse at all.
========  ======================  ==============================================
"""

from repro.lint.engine import (
    LintModule,
    LintRun,
    Rule,
    Violation,
    collect_files,
    default_rules,
    lint_paths,
    render_text,
)

__all__ = [
    "LintModule",
    "LintRun",
    "Rule",
    "Violation",
    "collect_files",
    "default_rules",
    "lint_paths",
    "render_text",
]
