"""Durability subsystem: checkpoints and crash recovery.

Liquid-query sessions are long-lived — a user asks for *more*, reranks,
resubmits, over minutes or days — so the serving runtime must survive a
crash without losing them.  This package provides:

* :mod:`repro.durability.checkpoint` — versioned, seed-stable session
  checkpoints (replay-based: the journal of interactions is stored, the
  execution state is recomputed deterministically on restore) and the
  atomic, content-hashed :class:`CheckpointStore`;
* :mod:`repro.durability.serve` — scheduler-level periodic
  checkpointing for :class:`~repro.serve.scheduler.ServeScheduler` /
  :class:`~repro.serve.sharding.ShardedServeScheduler`, plus the resume
  path that reloads sessions and serves the remaining workload.

The SIGKILL crash harness that proves resume digest-identical is a test
harness, ``tests/support/crash.py``.
"""

from repro.durability.checkpoint import (
    CHECKPOINT_VERSION,
    CheckpointStore,
    REGISTRY_FACTORIES,
    checkpoint_session,
    restore_session,
)
from repro.durability.serve import (
    ServeCheckpointer,
    resume_state_from,
    serve_workload_durable,
)

__all__ = [
    "CHECKPOINT_VERSION",
    "CheckpointStore",
    "REGISTRY_FACTORIES",
    "ServeCheckpointer",
    "checkpoint_session",
    "restore_session",
    "resume_state_from",
    "serve_workload_durable",
]

