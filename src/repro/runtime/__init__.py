"""repro.runtime: parallel wavefront synthesis and the persistent DP cache.

Execution layer for the DDBDD flow: the one engine of Algorithm 1
step 3, which

* groups supernodes into topological wavefronts and runs each wavefront
  on a process pool (:mod:`repro.runtime.schedule`,
  :mod:`repro.runtime.pool`),
* pools the wavefront batches of any number of concurrent requests into
  one process-wide worker fleet with fair-share admission and
  singleflight dedup per content signature
  (:mod:`repro.runtime.fleet`),
* memoizes supernode DP emissions in a tiered content-addressed store —
  an in-process LRU over a cross-process-safe sqlite file
  (:mod:`repro.runtime.tiers`, :mod:`repro.runtime.signature`),
* coordinates whole *fleets* of daemons sharing one cache root through
  generation-stamped sqlite claim leases, so each content signature is
  computed exactly once fleet-wide even across process boundaries
  (:mod:`repro.runtime.fleet`, :mod:`repro.runtime.tiers`), and
* reports per-stage/per-wavefront telemetry and recovered-failure rows
  (:mod:`repro.runtime.stats`), and
* survives worker death, budget breaches and cache corruption: jobs run
  under :class:`repro.resilience.Budget` guards, the pool respawns and
  retries (ultimately falling back to in-process serial execution), and
  breached jobs are resynthesized via the degradation ladder
  (:mod:`repro.resilience.ladder`).

The ``synth`` stage of :mod:`repro.flow` runs the engine
at every job count and cache mode; a ``jobs=1`` request computes each
wavefront in-process.  It is contractually deterministic: its output
network — names, fanins, functions — does not depend on the job count
or the cache state.
"""

from repro.runtime.fleet import (
    FleetRequest,
    FleetScheduler,
    WaveItem,
    get_fleet,
    reset_fleet,
)
from repro.runtime.tiers import (
    DEFAULT_MAX_ENTRIES,
    CacheTelemetry,
    MemoryTier,
    SqliteTier,
    TieredEmissionCache,
    TIER_NAMES,
    TIER_OPS,
)
from repro.runtime.emission import (
    EmissionCell,
    EmissionRecord,
    RecordError,
    export_emission,
    replay_record,
    verify_record,
)
from repro.runtime.pool import (
    JobOutcome,
    JobRunner,
    SupernodeJob,
    run_supernode_job,
    run_supernode_job_guarded,
)
from repro.runtime.schedule import (
    WaveLevel,
    WavePlan,
    plan_wavefronts,
    wavefront_supernodes,
)
from repro.runtime.signature import (
    SIGNATURE_VERSION,
    CanonicalDAG,
    dag_size,
    export_dag,
    rebuild_dag,
    signature,
)
from repro.runtime.stats import FailureReport, RuntimeStats

__all__ = [
    "DEFAULT_MAX_ENTRIES",
    "CacheTelemetry",
    "FleetRequest",
    "FleetScheduler",
    "MemoryTier",
    "SqliteTier",
    "TieredEmissionCache",
    "TIER_NAMES",
    "TIER_OPS",
    "WaveItem",
    "get_fleet",
    "reset_fleet",
    "EmissionCell",
    "EmissionRecord",
    "FailureReport",
    "RecordError",
    "export_emission",
    "replay_record",
    "verify_record",
    "JobOutcome",
    "JobRunner",
    "SupernodeJob",
    "run_supernode_job",
    "run_supernode_job_guarded",
    "WaveLevel",
    "WavePlan",
    "plan_wavefronts",
    "wavefront_supernodes",
    "SIGNATURE_VERSION",
    "CanonicalDAG",
    "dag_size",
    "export_dag",
    "rebuild_dag",
    "signature",
    "RuntimeStats",
]
