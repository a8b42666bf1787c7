"""Static analysis and machine-checked IR invariants.

This package is the project's audit layer: it checks what the rest of
the system *claims* rather than trusting it.

* :mod:`repro.analysis.diagnostics` — stable ``DDxxx`` diagnostic codes,
  :class:`Diagnostic` and :class:`VerificationError`.
* :mod:`repro.analysis.netcheck` — Boolean-network invariants (DD1xx).
* :mod:`repro.analysis.bddcheck` — BDD-manager invariants (DD2xx).
* :mod:`repro.analysis.covercheck` — LUT-cover legality, independent
  depth audit and spot equivalence (DD3xx).
* :mod:`repro.analysis.failcheck` — diagnostics over recovered runtime
  failures: degraded covers, budget breaches, pool recoveries (DD4xx).
* :mod:`repro.analysis.hooks` — :class:`StageVerifier`, the flow's
  stage-boundary verification driven by ``DDBDDConfig.verify_level``.
* :mod:`repro.analysis.repolint` — the one source lint gate
  (``ddbdd lint`` / ``python -m repro.analysis.repolint src/``): the
  ``RLxxx`` coding rules and the ``DD5xx`` determinism rules (hash-order
  leaks, nondeterminism sources, float-sum convention and fork-unsafe
  worker code) in one pass.
* :mod:`repro.analysis.astutil` — the AST visitor toolkit (findings,
  suppression comments, import resolution) the linter is built on.
* :mod:`repro.analysis.purity` — best-effort function purity facts and
  the static call graph (feeds the fork-safety rule).
"""

from repro.analysis.bddcheck import check_bdd_manager
from repro.analysis.covercheck import check_lut_cover
from repro.analysis.diagnostics import (
    DIAGNOSTIC_CODES,
    Diagnostic,
    VerificationError,
    errors_of,
    has_code,
    raise_on_errors,
)
from repro.analysis.hooks import StageVerifier, verify_synthesis_result
from repro.analysis.netcheck import check_network

# Imported last: failcheck reaches into repro.runtime.stats, whose
# import chain touches repro.analysis submodules (hooks) — those must
# already be bound above.
from repro.analysis.failcheck import check_failure_reports

__all__ = [
    "DIAGNOSTIC_CODES",
    "Diagnostic",
    "VerificationError",
    "StageVerifier",
    "check_bdd_manager",
    "check_failure_reports",
    "check_lut_cover",
    "check_network",
    "errors_of",
    "has_code",
    "raise_on_errors",
    "verify_synthesis_result",
]
