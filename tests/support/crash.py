"""Crash-injection harness: SIGKILL a serving worker, resume, compare.

The durability claim is end-to-end: a worker killed *without warning* —
``SIGKILL``, no handlers, no flushing — must lose nothing a checkpoint
already covered, and the resumed run's merged digests must be
byte-identical to an uninterrupted run of the same seeded workload.

The kill point is deterministic and race-free: the worker subprocess
serves with :func:`~repro.serve.runtime.serve` and an ``on_checkpoint``
hook that sends itself ``SIGKILL`` immediately after the N-th checkpoint
is durably published (``os.replace`` has returned), so the harness never
depends on timing and the surviving checkpoint is never torn.  The
parent then:

1. computes the **uninterrupted baseline** in-process (same workload,
   checkpointing off),
2. runs the worker and waits for it to die mid-run (exit code must be
   ``-SIGKILL``),
3. **resumes** in-process from the surviving checkpoint and serves the
   remainder,
4. gates ``combined_digest(resumed) == combined_digest(baseline)``.

The worker receives its whole job — the pickled
:class:`~repro.serve.scheduler.ServeConfig` and request stream the parent
wrote — as one file, and runs this file as a script (``src`` on
``PYTHONPATH``)::

    python tests/support/crash.py --worker --job JOB.pickle --kill-after N
"""

from __future__ import annotations

import argparse
import os
import pickle
import signal
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path
from typing import Any

from repro.serve.runtime import serve
from repro.serve.scheduler import ServeConfig, combined_digest
from repro.serve.workload import WorkloadConfig, generate_workload

__all__ = ["run_crash_resume"]


def run_crash_resume(
    config: ServeConfig,
    workload: WorkloadConfig,
    *,
    kill_after_checkpoints: int = 3,
    workdir: "str | Path | None" = None,
    timeout: float = 1_200.0,
) -> dict[str, Any]:
    """Kill a serving worker mid-run, resume it, gate digest equality.

    ``config`` describes the run (its ``checkpoint_every`` paces the
    checkpoints; the harness owns ``checkpoint_dir`` and ``resume``).
    Returns a JSON-serialisable report with the baseline and resumed
    combined digests and the gates: ``worker_killed`` (the subprocess
    really died to SIGKILL, not completion), ``checkpoint_survived``,
    and ``digests_equal``.
    """
    own_tmp = None
    if workdir is None:
        own_tmp = tempfile.TemporaryDirectory(prefix="repro-crash-")
        workdir = own_tmp.name
    workdir = Path(workdir)
    requests = generate_workload(config.templates, workload)
    try:
        # 1. Uninterrupted baseline (checkpointing off — pure serving).
        baseline_digests = serve(config, requests).digests()
        baseline = combined_digest(baseline_digests)

        # 2. The worker, killed after its N-th checkpoint write.
        durable = replace(config, checkpoint_dir=workdir / "checkpoints")
        job = workdir / "job.pickle"
        job.parent.mkdir(parents=True, exist_ok=True)
        job.write_bytes(pickle.dumps((durable, requests)))
        import repro

        env = dict(os.environ)
        src_root = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = src_root + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        command = [
            sys.executable, str(Path(__file__).resolve()), "--worker",
            "--job", str(job), "--kill-after", str(kill_after_checkpoints),
        ]
        worker = subprocess.run(
            command, env=env, capture_output=True, text=True, timeout=timeout
        )
        worker_killed = worker.returncode == -signal.SIGKILL
        surviving = sorted(
            p.name for p in durable.checkpoint_dir.glob("*.ckpt.json")
        ) if durable.checkpoint_dir.exists() else []

        # 3. Resume from the surviving checkpoint, serve the rest.
        report = serve(replace(durable, resume=True), requests)
        resumed_digests, info = report.digests(), report.durability
        resumed = combined_digest(resumed_digests)

        return {
            "harness": "crash-resume",
            "num_requests": len(requests),
            "rate": workload.rate,
            "seed": config.data_seed,
            "num_shards": config.num_shards,
            "checkpoint_every": config.checkpoint_every,
            "kill_after_checkpoints": kill_after_checkpoints,
            "worker_returncode": worker.returncode,
            "worker_stderr_tail": worker.stderr[-2000:],
            "surviving_checkpoints": surviving,
            "baseline_digest": baseline,
            "resumed_digest": resumed,
            "baseline_completed": len(baseline_digests),
            "resumed_completed": len(resumed_digests),
            "resume_info": info,
            "resumed_makespan": report.makespan,
            "gates": {
                "worker_killed": worker_killed,
                "checkpoint_survived": info["resumed"],
                "digests_equal": resumed == baseline
                and len(resumed_digests) == len(baseline_digests),
            },
        }
    finally:
        if own_tmp is not None:
            own_tmp.cleanup()


def _worker_main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        description="crash-harness serving worker (self-SIGKILLs)"
    )
    parser.add_argument("--worker", action="store_true", required=True)
    parser.add_argument(
        "--job", required=True, help="pickled (ServeConfig, requests) to serve"
    )
    parser.add_argument("--kill-after", type=int, required=True)
    args = parser.parse_args(argv)
    # Written by run_crash_resume in this same harness, never by a stranger.
    config, requests = pickle.loads(Path(args.job).read_bytes())

    def kill_self(checkpointer) -> None:
        if args.kill_after and checkpointer.written >= args.kill_after:
            # The N-th checkpoint is on disk (os.replace returned): die
            # the hard way, exactly like a power cut would.
            os.kill(os.getpid(), signal.SIGKILL)

    serve(config, requests, on_checkpoint=kill_self)
    # Reaching here means the run finished before the kill threshold —
    # the harness treats that as a gate failure (worker_killed False).
    return 0


if __name__ == "__main__":  # pragma: no cover - subprocess entry point
    sys.exit(_worker_main())
