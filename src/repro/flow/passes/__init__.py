"""The standard DDBDD passes.

Importing this package registers every built-in pass with the
:mod:`repro.flow.registry`; that registry is the only supported way to
reach a stage from outside ``repro.flow`` (enforced by repolint rule
RL005).  The modules here hold the Algorithm 1 stage bodies that
historically lived inline in ``repro.core.ddbdd.ddbdd_synthesize``:

* :mod:`repro.flow.passes.sweep` — ``sweep``: constant/buffer/dangling
  cleanup of the working network.
* :mod:`repro.flow.passes.collapse` — ``collapse``: Algorithm 2
  gain-based partial collapsing into supernodes.
* :mod:`repro.flow.passes.synth` — ``synth``: the per-supernode
  Algorithm 3 dynamic program, run by the ``repro.runtime`` wavefront
  engine (pass options set its jobs and cache).
* :mod:`repro.flow.passes.finish` — ``map``: PO binding, duplicate
  merging, K-LUT covering/packing and the final audits.
"""

from repro.flow.passes import collapse, finish, sweep, synth

__all__ = ["collapse", "finish", "sweep", "synth"]
