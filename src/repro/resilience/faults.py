"""Deterministic fault injection for the synthesis runtime.

A :class:`FaultPlan` is a parsed ``DDBDD_FAULTS`` specification — a
seeded, reproducible list of faults to fire at well-defined injection
points in :mod:`repro.runtime.pool`, :mod:`repro.runtime.tiers` and the
DP budget meter.  Grammar (whitespace-insensitive)::

    plan  := fault (';' fault)*
    fault := kind '@' site '=' N ['x' COUNT] [':' ARG]

``N`` addresses the site's deterministic counter: supernode jobs carry a
1-based ``seq`` assigned in wavefront order, cache puts are counted
1-based per activation.  ``COUNT`` (default 1) is how many times the
fault fires before disarming itself.  Examples::

    crash_worker@job=3                 # worker running job 3 exits hard
    stall@job=7:2.5s                   # job 7 sleeps 2.5s before the DP
    raise@job=2                        # job 2 raises InjectedFault
    blowup@job=5                       # job 5's meter reports a node blow-up
    corrupt_shard@put=5                # the 5th cache put is truncated
    crash_worker@job=1x5               # job 1 crashes its worker 5 times

Kinds and sites:

=================  ====  ==================================================
kind               site  effect at the injection point
=================  ====  ==================================================
``crash_worker``   job   ``os._exit(13)`` — but only inside a worker
                         process (the parent ignores it), modelling an
                         OOM-killed or segfaulted worker
``stall``          job   sleep ``ARG`` seconds (default 1.0) before the
                         DP starts, modelling a hung job; pairs with
                         ``DDBDDConfig.job_deadline_s``
``raise``          job   raise :class:`InjectedFault`, modelling a
                         transient in-worker error
``blowup``         job   force the job's :class:`~repro.resilience.budget.
                         BudgetMeter` to report a ``"nodes"`` breach,
                         modelling a BDD blow-up
``corrupt_shard``  put   truncate the just-written sqlite cache row,
                         modelling a torn write
=================  ====  ==================================================

The plan is process-global state, installed with :func:`activated` for
the duration of one synthesis run.  Worker processes inherit the plan at
``fork`` time; a fault fired in a worker decrements the *worker's* copy,
which is why the parent explicitly disarms faults whose outcome it has
observed (:func:`disarm_job` after a budget breach,
:func:`notify_pool_failure` plus a pool respawn after a worker death) —
fresh forks then inherit the disarmed plan and the retry runs clean.

Stdlib-only on purpose: imported by the pool/cache hot paths and by
worker processes.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence, Tuple, Union

_JOB_KINDS = ("crash_worker", "stall", "raise", "blowup")
_PUT_KINDS = ("corrupt_shard",)
_SITE_OF = {kind: "job" for kind in _JOB_KINDS}
_SITE_OF.update({kind: "put" for kind in _PUT_KINDS})


class FaultPlanError(ValueError):
    """A malformed fault-plan specification."""


class InjectedFault(RuntimeError):
    """The error raised by a ``raise@job`` fault."""


@dataclass
class Fault:
    """One parsed fault: fires at ``site`` counter value ``n``,
    ``remaining`` more times, with optional ``arg`` (stall seconds)."""

    kind: str
    site: str
    n: int
    remaining: int = 1
    arg: float = 0.0

    def describe(self) -> str:
        suffix = f"x{self.remaining}" if self.remaining != 1 else ""
        arg = f":{self.arg}s" if self.kind == "stall" else ""
        return f"{self.kind}@{self.site}={self.n}{suffix}{arg}"


@dataclass
class FaultPlan:
    """A parsed, mutable fault plan (counters live on the instance)."""

    spec: str
    faults: List[Fault] = field(default_factory=list)
    puts: int = 0  # 1-based put counter, bumped by note_put()

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Parse a ``DDBDD_FAULTS`` string; raises :class:`FaultPlanError`."""
        plan = cls(spec=spec)
        for part in spec.split(";"):
            part = part.strip()
            if not part:
                continue
            plan.faults.append(cls._parse_fault(part))
        if not plan.faults:
            raise FaultPlanError(f"fault plan {spec!r} contains no faults")
        return plan

    @staticmethod
    def _parse_fault(text: str) -> Fault:
        head, sep, arg_text = text.partition(":")
        kind, sep2, target = head.partition("@")
        kind = kind.strip()
        if not sep2 or kind not in _SITE_OF:
            known = ", ".join(sorted(_SITE_OF))
            raise FaultPlanError(
                f"bad fault {text!r}: expected kind@site=N with kind in ({known})"
            )
        site, sep3, n_text = target.partition("=")
        site = site.strip()
        if not sep3 or site != _SITE_OF[kind]:
            raise FaultPlanError(
                f"bad fault {text!r}: {kind} fires at site "
                f"{_SITE_OF[kind]!r} (as {kind}@{_SITE_OF[kind]}=N)"
            )
        n_text, sep4, count_text = n_text.strip().partition("x")
        try:
            n = int(n_text)
            count = int(count_text) if sep4 else 1
        except ValueError:
            raise FaultPlanError(
                f"bad fault {text!r}: N (and the optional xCOUNT) must be integers"
            ) from None
        if n < 1 or count < 1:
            raise FaultPlanError(f"bad fault {text!r}: N and COUNT must be >= 1")
        takes_arg = kind == "stall"
        arg = 0.0
        if sep:
            if not takes_arg:
                raise FaultPlanError(f"bad fault {text!r}: only stall takes an :ARG")
            try:
                arg = float(arg_text.strip().rstrip("s"))
            except ValueError:
                raise FaultPlanError(
                    f"bad fault {text!r}: {kind} ARG must be seconds, e.g. :2.5s"
                ) from None
            if arg < 0:
                raise FaultPlanError(f"bad fault {text!r}: {kind} ARG must be >= 0")
        elif takes_arg:
            arg = 1.0
        return Fault(kind=kind, site=site, n=n, remaining=count, arg=arg)

    # ------------------------------------------------------------------
    def _armed(self, site: str, n: int) -> Iterator[Fault]:
        for fault in self.faults:
            if fault.site == site and fault.n == n and fault.remaining > 0:
                yield fault

    def fire_job_faults(self, seq: int) -> None:
        """Fire every armed ``@job`` fault addressed at ``seq`` except
        ``blowup`` (queried separately via :meth:`forced_blowup` so the
        breach surfaces through the budget meter, not as an exception).

        ``crash_worker`` only fires inside a worker process — and does
        not decrement in the parent, so a serial fallback run simply
        steps over it.
        """
        for fault in self._armed("job", seq):
            if fault.kind == "crash_worker":
                if multiprocessing.parent_process() is None:
                    continue
                fault.remaining -= 1
                os._exit(13)
            elif fault.kind == "stall":
                fault.remaining -= 1
                time.sleep(fault.arg)
            elif fault.kind == "raise":
                fault.remaining -= 1
                raise InjectedFault(f"injected fault for job seq={seq}")

    def forced_blowup(self, seq: int) -> bool:
        """Consume one armed ``blowup@job`` fault for ``seq``."""
        for fault in self._armed("job", seq):
            if fault.kind == "blowup":
                fault.remaining -= 1
                return True
        return False

    def note_put(self) -> bool:
        """Count one successful cache put; True if it must be corrupted."""
        self.puts += 1
        for fault in self._armed("put", self.puts):
            if fault.kind == "corrupt_shard":
                fault.remaining -= 1
                return True
        return False

    def disarm_job(self, seq: int) -> None:
        """Disarm every ``@job`` fault addressed at ``seq`` (the parent
        observed the job's outcome; retries must run clean)."""
        for fault in list(self._armed("job", seq)):
            fault.remaining = 0

    def notify_pool_failure(self, seqs: Sequence[int]) -> None:
        """Disarm the process-killing faults (``crash_worker`` /
        ``raise``) for the jobs of a failed chunk: their effect — a dead
        pool — has been observed, and the respawned workers must not
        inherit a re-armed copy.  ``stall`` and ``blowup`` stay armed;
        they are budget matters, not pool matters."""
        for seq in seqs:
            for fault in self._armed("job", seq):
                if fault.kind in ("crash_worker", "raise"):
                    fault.remaining = 0


# ----------------------------------------------------------------------
# Process-global activation
# ----------------------------------------------------------------------
_ACTIVE: Optional[FaultPlan] = None


def active_plan() -> Optional[FaultPlan]:
    """The currently activated plan, if any."""
    return _ACTIVE


def is_active() -> bool:
    """Whether a fault plan is currently activated."""
    return _ACTIVE is not None


@contextmanager
def activated(spec: Union[str, FaultPlan, None]) -> Iterator[Optional[FaultPlan]]:
    """Install a fault plan for the duration of the block.

    ``None`` is a no-op (the common, fault-free case).  Activations do
    not nest — a second concurrent activation raises, because two plans
    would race for the same injection points.
    """
    global _ACTIVE
    if spec is None:
        yield None
        return
    if _ACTIVE is not None:
        raise FaultPlanError("a fault plan is already active in this process")
    plan = spec if isinstance(spec, FaultPlan) else FaultPlan.parse(spec)
    _ACTIVE = plan
    try:
        yield plan
    finally:
        _ACTIVE = None


# Module-level conveniences: every injection point goes through these,
# so the fault-free fast path is one global load and a None check.
def fire_job_faults(seq: int) -> None:
    """Injection point: about to execute job ``seq``."""
    if _ACTIVE is not None:
        _ACTIVE.fire_job_faults(seq)


def forced_blowup(seq: int) -> bool:
    """Injection point: should job ``seq``'s meter report a blow-up?"""
    return _ACTIVE is not None and _ACTIVE.forced_blowup(seq)


def note_put() -> bool:
    """Injection point: a cache entry was just written; corrupt it?"""
    return _ACTIVE is not None and _ACTIVE.note_put()


def disarm_job(seq: int) -> None:
    """Parent-side: job ``seq``'s breach was observed; retries run clean."""
    if _ACTIVE is not None:
        _ACTIVE.disarm_job(seq)


def notify_pool_failure(seqs: Sequence[int]) -> None:
    """Parent-side: a chunk died with these job seqs in flight."""
    if _ACTIVE is not None:
        _ACTIVE.notify_pool_failure(seqs)


def describe_active() -> Tuple[str, ...]:
    """Armed faults of the active plan (for telemetry/debugging)."""
    if _ACTIVE is None:
        return ()
    return tuple(f.describe() for f in _ACTIVE.faults if f.remaining > 0)
