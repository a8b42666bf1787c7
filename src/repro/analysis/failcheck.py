"""Diagnostics over runtime failure reports (``DD4xx``).

The resilience layer (:mod:`repro.resilience`) records every recovered
failure as a :class:`~repro.runtime.stats.FailureReport` row on
:class:`~repro.runtime.stats.RuntimeStats`.  This module converts those
rows into the project's structured :class:`Diagnostic` vocabulary so
the flow's :class:`~repro.analysis.hooks.StageVerifier`, the CLI and
tests can treat "the run degraded" exactly like any other auditable
finding:

* ``DD403`` (warning) — a supernode job breached its execution budget
  and was resynthesized;
* ``DD401`` (warning) — the resynthesis landed on a genuinely degraded
  ladder rung (``tighten`` / ``plain`` / ``shannon``; a clean ``retry``
  is not degraded);
* ``DD404`` (warning) — a worker-pool failure was recovered by
  respawn/retry or in-process serial fallback;
* ``DD402`` (error) — a recovered cover failed re-verification.  The
  ladder raises this case itself before the cover can be spliced; the
  code is checked here too as defense in depth.
"""

from __future__ import annotations

from typing import Iterable, List

from repro.analysis.diagnostics import Diagnostic, ERROR, WARNING
from repro.runtime.stats import FailureReport

#: Ladder rungs that actually degrade the cover (a clean retry does not).
DEGRADED_RUNGS = ("tighten", "plain", "shannon")


def check_failure_reports(reports: Iterable[FailureReport]) -> List[Diagnostic]:
    """Structured diagnostics for a run's recovered failures.

    Trigger conditions (evaluated per :class:`FailureReport` row):

    * ``DD402`` (error) — triggers when ``report.verified`` is false:
      a recovered cover failed re-verification, whatever the failure
      kind.  Checked first; such a row produces no other code.
    * ``DD403`` (warning) — triggers when ``report.kind == "budget"``:
      a supernode job breached its deadline or node budget
      (``report.reason`` names the axis) and was resynthesized.
    * ``DD401`` (warning) — triggers when a budget row additionally
      landed on a genuinely degraded ladder rung, i.e.
      ``report.rung in DEGRADED_RUNGS`` (``tighten``/``plain``/
      ``shannon``); a clean ``retry`` rung does not trigger it.
      Always accompanies a ``DD403`` for the same job.
    * ``DD404`` (warning) — triggers when ``report.kind == "pool"``:
      a worker-pool failure (crash, lost result, executor error) was
      recovered by respawn/retry or the in-process serial fallback.
    """
    diags: List[Diagnostic] = []
    for report in reports:
        if not report.verified:
            diags.append(Diagnostic(
                "DD402",
                f"recovered cover for {report.job!r} (rung {report.rung!r}) "
                "failed re-verification",
                severity=ERROR,
                where=report.job,
            ))
            continue
        if report.kind == "budget":
            diags.append(Diagnostic(
                "DD403",
                f"supernode job {report.job!r} (seq {report.seq}) breached its "
                f"{report.reason} budget after {report.spent_s:.3f}s / "
                f"{report.spent_nodes} BDD nodes",
                severity=WARNING,
                where=report.job,
            ))
            if report.rung in DEGRADED_RUNGS:
                diags.append(Diagnostic(
                    "DD401",
                    f"supernode {report.job!r} carries a LUT cover from "
                    f"degradation-ladder rung {report.rung!r} "
                    f"({report.retries} rung(s) tried)",
                    severity=WARNING,
                    where=report.job,
                ))
        elif report.kind == "pool":
            diags.append(Diagnostic(
                "DD404",
                f"worker-pool failure on job(s) {report.job} recovered via "
                f"{report.rung or 'respawn'} after {report.retries} attempt(s): "
                f"{report.reason}",
                severity=WARNING,
                where=report.job,
            ))
    return diags
