"""Flow-wide fault tolerance: graceful degradation instead of crashes.

The VASE flow is a pipeline of searches and numerical solves — DAE
causalization, branch-and-bound mapping, MNA factorization, AC sweeps —
and historically any single failure killed a whole run with one
exception.  This package makes the flow degrade gracefully and report
*what* it sacrificed:

* :mod:`repro.robust.recovery` — the recovery ladder the flow climbs
  when synthesis fails (alternative causalizations, the greedy mapper,
  bounded constraint relaxation), with every attempt recorded as a
  structured :class:`RecoveryEvent`;
* :mod:`repro.robust.guards` — numerical guards for the SPICE substrate
  (condition-number estimation, singular-system suspect naming,
  non-finite waveform detection);
* :mod:`repro.robust.batch` — multi-design sweeps with per-file
  isolation and a machine-readable ok/degraded/failed summary;
* :mod:`repro.robust.lifecycle` — cooperative cancellation tokens,
  whole-flow deadline propagation, and the transient-failure taxonomy
  the executors' retry machinery classifies against;
* :mod:`repro.robust.journal` — the fsync'd completion journal behind
  crash-safe ``vase batch --resume``;
* :mod:`repro.robust.faultinject` — the deterministic fault-injection
  harness that forces each failure class so every recovery path is
  exercised in tests and CI.
"""

from repro._imports import deferred_exports

# Resolved on first use: ``spice.linalg`` imports ``faultinject`` and
# ``guards``, which must not pull in batch and recovery (and with them
# the pipeline and the estimator).  See DESIGN.md, "Import layering".
__getattr__, __dir__ = deferred_exports(
    globals(),
    {
        "BatchEntry": "repro.robust.batch",
        "BatchReport": "repro.robust.batch",
        "find_sources": "repro.robust.batch",
        "run_batch": "repro.robust.batch",
        "schedule_longest_first": "repro.robust.batch",
        "FaultInjector": "repro.robust.faultinject",
        "active_faults": "repro.robust.faultinject",
        "fault_active": "repro.robust.faultinject",
        "inject_faults": "repro.robust.faultinject",
        "BatchJournal": "repro.robust.journal",
        "CancellationToken": "repro.robust.lifecycle",
        "CancelledError": "repro.robust.lifecycle",
        "DeadlineExceeded": "repro.robust.lifecycle",
        "RetryPolicy": "repro.robust.lifecycle",
        "RunContext": "repro.robust.lifecycle",
        "TransientError": "repro.robust.lifecycle",
        "WorkerCrashError": "repro.robust.lifecycle",
        "active_context": "repro.robust.lifecycle",
        "checkpoint": "repro.robust.lifecycle",
        "is_transient": "repro.robust.lifecycle",
        "run_context": "repro.robust.lifecycle",
        "NumericalWarning": "repro.robust.guards",
        "check_finite": "repro.robust.guards",
        "condition_estimate": "repro.robust.guards",
        "singular_suspects": "repro.robust.guards",
        "RecoveryEvent": "repro.robust.recovery",
        "RecoveryOptions": "repro.robust.recovery",
        "relax_constraints": "repro.robust.recovery",
    },
)

__all__ = [
    "BatchEntry",
    "BatchJournal",
    "BatchReport",
    "CancellationToken",
    "CancelledError",
    "DeadlineExceeded",
    "FaultInjector",
    "NumericalWarning",
    "RecoveryEvent",
    "RecoveryOptions",
    "RetryPolicy",
    "RunContext",
    "TransientError",
    "WorkerCrashError",
    "active_context",
    "active_faults",
    "check_finite",
    "checkpoint",
    "condition_estimate",
    "fault_active",
    "find_sources",
    "inject_faults",
    "is_transient",
    "relax_constraints",
    "run_batch",
    "run_context",
    "schedule_longest_first",
    "singular_suspects",
]
