"""Stage-boundary verification hooks for the DDBDD flow.

:class:`StageVerifier` is instantiated by
:func:`repro.core.ddbdd.ddbdd_synthesize` when
``DDBDDConfig.verify_level > 0`` and invoked at the Algorithm 1 stage
boundaries:

====================  =====================================================
hook                  runs (by level)
====================  =====================================================
``after_sweep``       L1+: ``check_network`` (strict: sweep guarantees no
                      dangling logic)
``after_collapse``    L1+: ``check_network`` (strict);
                      L2+: ``check_bdd_manager`` on the work manager over
                      the live supernode functions
``after_supernode``   L2+: ``check_network`` on the partially built LUT
                      network, plus the ``check_bdd_manager`` audit of the
                      supernode's private DP manager that its job ran
``after_po_binding``  L1+: ``check_network`` on the emitted network
``final``             L1+: ``check_lut_cover`` against the result's claims;
                      L2+: adds the spot simulation against the source
                      network and a mapped-manager audit
====================  =====================================================

Each hook raises :class:`~repro.analysis.diagnostics.VerificationError`
on any error-severity diagnostic; warnings accumulate in
:attr:`StageVerifier.warnings`.

Levels
------
* ``0`` — hooks disabled (the default; zero overhead).
* ``1`` — structural checks at stage boundaries plus the final cover
  audit; linear in network size, cheap enough for production runs.
* ``2`` — everything in level 1 plus BDD-manager audits, per-supernode
  re-checks and simulation-based equivalence spot checks (and the DP's
  exact per-supernode emission verification, see
  :class:`repro.core.dp.BDDSynthesizer`).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.analysis.bddcheck import check_bdd_manager
from repro.analysis.covercheck import check_lut_cover
from repro.analysis.diagnostics import (
    Diagnostic,
    VerificationError,
    errors_of,
    with_stage,
)
from repro.analysis.netcheck import check_network
from repro.network.netlist import BooleanNetwork


class StageVerifier:
    """Runs the relevant IR checkers after each flow stage.

    Parameters
    ----------
    level:
        The ``verify_level`` (0 disables every hook; see module docs).
    k:
        LUT input size, for the final cover audit.
    """

    def __init__(self, level: int, k: int) -> None:
        self.level = int(level)
        self.k = k
        #: Warning-severity diagnostics accumulated across all stages.
        self.warnings: List[Diagnostic] = []
        #: Stage names that ran (for introspection and tests).
        self.stages_run: List[str] = []

    def enabled(self, level: int = 1) -> bool:
        """True when hooks at ``level`` should run."""
        return self.level >= level

    # ------------------------------------------------------------------
    # Hooks (in Algorithm 1 order)
    # ------------------------------------------------------------------
    def after_sweep(self, work: BooleanNetwork) -> None:
        if not self.enabled(1):
            return
        self._report("sweep", check_network(work, strict_unreachable=True))

    def after_collapse(self, work: BooleanNetwork) -> None:
        if not self.enabled(1):
            return
        diags = check_network(work, strict_unreachable=True)
        if self.enabled(2):
            roots = [node.func for node in work.nodes.values()]
            diags += check_bdd_manager(work.mgr, roots=roots)
        self._report("collapse", diags)

    def after_supernode(
        self,
        mapped: BooleanNetwork,
        name: str,
        dp_audit: Sequence[Diagnostic] = (),
    ) -> None:
        """After one supernode's emission is spliced into ``mapped``.
        ``dp_audit`` is the ``check_bdd_manager`` audit of the
        supernode's private DP manager, which the job ran where the DP
        ran (empty for a cache hit)."""
        if not self.enabled(2):
            return
        # The LUT network is mid-construction: POs are not bound yet, so
        # reachability (DD105) is meaningless here and stays a warning.
        diags = check_network(mapped, strict_unreachable=False) + list(dp_audit)
        self._report(f"supernode:{name}", diags, keep_warnings=False)

    def after_po_binding(self, mapped: BooleanNetwork) -> None:
        if not self.enabled(1):
            return
        self._report("po_binding", check_network(mapped, strict_unreachable=False))

    def final(
        self,
        net: BooleanNetwork,
        depth: int,
        po_depths: dict,
        area: int,
        source: Optional[BooleanNetwork] = None,
    ) -> None:
        """After post-processing, on the claims of the final result."""
        if not self.enabled(1):
            return
        diags = check_network(net, strict_unreachable=True)
        diags += check_lut_cover(
            net,
            self.k,
            claimed_depth=depth,
            claimed_po_depths=po_depths,
            claimed_area=area,
            source=source if self.enabled(2) else None,
        )
        if self.enabled(2):
            diags += check_bdd_manager(
                net.mgr, roots=[node.func for node in net.nodes.values()]
            )
        self._report("final", diags)

    # ------------------------------------------------------------------
    def _report(
        self, stage: str, diagnostics: Sequence[Diagnostic], keep_warnings: bool = True
    ) -> None:
        self.stages_run.append(stage)
        tagged = with_stage(diagnostics, stage)
        if errors_of(tagged):
            raise VerificationError(tagged, stage=stage)
        if keep_warnings:
            self.warnings.extend(tagged)


def verify_synthesis_result(result: object, source: Optional[BooleanNetwork] = None,
                            level: int = 2) -> List[Diagnostic]:
    """Standalone audit of a finished ``SynthesisResult``.

    Duck-typed (``result.network`` / ``depth`` / ``po_depths`` / ``area``
    / ``config``) to stay import-cycle-free with :mod:`repro.core`.
    Returns all diagnostics instead of raising, so callers can decide
    severity policy themselves.
    """
    net: BooleanNetwork = result.network  # type: ignore[attr-defined]
    diags = check_network(net)
    diags += check_lut_cover(
        net,
        result.config.k,  # type: ignore[attr-defined]
        claimed_depth=result.depth,  # type: ignore[attr-defined]
        claimed_po_depths=result.po_depths,  # type: ignore[attr-defined]
        claimed_area=result.area,  # type: ignore[attr-defined]
        source=source if level >= 2 else None,
    )
    if level >= 2:
        diags += check_bdd_manager(
            net.mgr, roots=[node.func for node in net.nodes.values()]
        )
    return diags
