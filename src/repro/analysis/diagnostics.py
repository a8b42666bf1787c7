"""Structured diagnostics for the IR invariant checkers.

Every checker in :mod:`repro.analysis` reports findings as
:class:`Diagnostic` objects with *stable* codes, so tests, the CLI and
the stage-boundary hooks can match on the code rather than on message
text.  Code families:

* ``DD1xx`` — Boolean-network invariants (:mod:`repro.analysis.netcheck`)
* ``DD2xx`` — BDD-manager invariants (:mod:`repro.analysis.bddcheck`)
* ``DD3xx`` — LUT-cover invariants (:mod:`repro.analysis.covercheck`)
* ``DD4xx`` — runtime resilience events (:mod:`repro.analysis.failcheck`)

Severity is ``"error"`` (a violated invariant: the IR is corrupt) or
``"warning"`` (legal but suspicious, e.g. unreachable logic before a
sweep).  :func:`raise_on_errors` turns error diagnostics into a
:class:`VerificationError`, which is how the flow hooks abort a run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence

ERROR = "error"
WARNING = "warning"

#: Registry of every stable diagnostic code with a one-line description.
DIAGNOSTIC_CODES = {
    # DD1xx — Boolean network
    "DD101": "node fanin references an undefined signal",
    "DD102": "primary output bound to an undefined or swept-away signal",
    "DD103": "combinational cycle",
    "DD104": "PI/node name collision or duplicate declaration",
    "DD105": "unreachable logic (node drives no primary output)",
    "DD106": "node function support disagrees with its fanin list",
    "DD107": "duplicate fanin entries on one node",
    "DD108": "node function depends on the node's own signal variable",
    # DD2xx — BDD manager
    "DD201": "corrupted terminal node",
    "DD202": "variable-order violation on an edge (child level <= parent)",
    "DD203": "unreduced node (lo == hi) survived hash-consing",
    "DD204": "unique-table entry disagrees with the node store",
    "DD205": "compute-cache entry is structurally inconsistent",
    "DD206": "variable order / level maps are not inverse permutations",
    "DD207": "node-store column shape or complement-edge canonical form violated",
    # DD3xx — LUT cover
    "DD301": "cell exceeds K inputs",
    "DD302": "claimed mapping depth disagrees with recomputation",
    "DD303": "claimed per-PO depth disagrees with recomputation",
    "DD304": "claimed area disagrees with the emitted network",
    "DD305": "cover is not functionally equivalent to its source",
    # DD4xx — runtime resilience (:mod:`repro.analysis.failcheck`)
    "DD401": "LUT cover produced by a degradation-ladder rung",
    "DD402": "degraded cover failed re-verification",
    "DD403": "supernode job exceeded its execution budget",
    "DD404": "worker-pool failure recovered by retry or serial fallback",
}


class AnalysisError(Exception):
    """Base class for :mod:`repro.analysis` errors."""


class VerificationError(AnalysisError):
    """One or more error-severity diagnostics were found.

    Attributes
    ----------
    diagnostics:
        Every diagnostic of the failed check (warnings included).
    stage:
        The flow stage at which the check ran (empty outside the flow).
    """

    def __init__(self, diagnostics: Sequence["Diagnostic"], stage: str = "") -> None:
        self.diagnostics: List[Diagnostic] = list(diagnostics)
        self.stage = stage
        errors = [d for d in self.diagnostics if d.severity == ERROR]
        head = ", ".join(d.code for d in errors[:5]) or "no errors?"
        where = f" after stage {stage!r}" if stage else ""
        super().__init__(
            f"{len(errors)} invariant violation(s){where}: {head}"
            + ("" if len(errors) <= 5 else ", ...")
        )


@dataclass(frozen=True)
class Diagnostic:
    """One checker finding.

    Attributes
    ----------
    code:
        Stable code from :data:`DIAGNOSTIC_CODES` (``DD1xx``/``DD2xx``/
        ``DD3xx``).
    message:
        Human-readable detail for this specific finding.
    severity:
        ``"error"`` or ``"warning"``.
    where:
        The offending object (signal name, node id, PO name, ...).
    stage:
        Flow stage that produced the finding (filled by the hooks).
    """

    code: str
    message: str
    severity: str = ERROR
    where: str = ""
    stage: str = ""

    def __post_init__(self) -> None:
        if self.code not in DIAGNOSTIC_CODES:
            raise ValueError(f"unknown diagnostic code {self.code!r}")
        if self.severity not in (ERROR, WARNING):
            raise ValueError(f"unknown severity {self.severity!r}")

    def describe(self) -> str:
        """``CODE [severity] message (at where)`` one-liner."""
        at = f" (at {self.where})" if self.where else ""
        stage = f" [{self.stage}]" if self.stage else ""
        return f"{self.code}{stage} {self.severity}: {self.message}{at}"


def errors_of(diagnostics: Iterable[Diagnostic]) -> List[Diagnostic]:
    """The error-severity subset, in order."""
    return [d for d in diagnostics if d.severity == ERROR]


def has_code(diagnostics: Iterable[Diagnostic], code: str) -> bool:
    """True when any diagnostic carries ``code``."""
    return any(d.code == code for d in diagnostics)


def raise_on_errors(diagnostics: Sequence[Diagnostic], stage: str = "") -> None:
    """Raise :class:`VerificationError` if any diagnostic is an error."""
    if errors_of(diagnostics):
        raise VerificationError(diagnostics, stage=stage)


def with_stage(diagnostics: Iterable[Diagnostic], stage: str) -> List[Diagnostic]:
    """Copy of ``diagnostics`` tagged with ``stage``."""
    return [
        Diagnostic(d.code, d.message, d.severity, d.where, stage) for d in diagnostics
    ]
