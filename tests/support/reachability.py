"""Reachability audit: which ``src/repro`` functions does a command enter?

Run as a script in a fresh interpreter (``src`` on ``PYTHONPATH``)::

    python tests/support/reachability.py --output artifacts/reachability.json

It imports every ``repro`` module first, so import-time calls are not
counted, then installs :func:`sys.setprofile` and runs, in-process, the
CLI matrix (:func:`cli_matrix`, through :func:`repro.cli.main`) and one
batch of each served workload of ``benchmarks/e2e`` at scale 0.25
(:data:`SERVED_WORKLOADS`; ``plan_cold`` is what plans the synthetic
schemas of :mod:`repro.services.synth`).  A process forked meanwhile
(``serve-bench --parallel`` runs one worker per shard) inherits the
profiler; each time it returns from the shard entry point
(:data:`WORKER_ENTRY`) it writes what it entered so far, and the audit
merges those files into what the parent entered.

A *function* is a ``def`` or ``lambda`` code object.  Its lines run from
its first line (decorators included) to the last source line its
bytecode maps to, less the lines of the functions nested in it, which
count on their own.  A function is *reached* when the profiler saw it
called.  The JSON it writes holds, per module, the reached and unreached
function lines and the unreached functions, the totals, and
``unreached_modules``: the modules that have functions and enter none.

``join_kernels`` is not run: whether the multiway kernels it times
serve a request is what the allowlist's reason for them leaves open.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import inspect
import io
import json
import os
import pkgutil
import sys
import tempfile
import threading
from pathlib import Path
from types import CodeType

#: Code objects that run inside their parent function's frame: their
#: lines belong to the enclosing function.
_INLINE = frozenset({"<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>"})

#: PEP 562 module hooks: a package ``__init__`` whose only functions are
#: these has no behaviour of its own to reach.
_MODULE_HOOKS = frozenset({"__getattr__", "__dir__"})

_SCHEMAS = ("movie", "conference", "travel", "shopping", "scholar")

ROOT = Path(__file__).resolve().parents[2]
SERVED_WORKLOADS = ("serve_hot", "serve_tail", "serve_durable", "plan_cold")
#: What a ``--parallel`` worker process runs per shard: ``(module, function)``.
WORKER_ENTRY = ("repro.serve.runtime", "_serve_subset")
#: The ``--output`` of the matrix row whose sharded run must steal.
STEALING = "stealing.json"


def cli_matrix(work: Path) -> list[tuple[tuple[str, ...], int]]:
    """Every CLI door the audit walks through: ``(argv, expected exit)``.

    ``work`` holds the checkpoint stores and the serving artifacts.
    """
    from repro.core.cost import DEFAULT_METRICS

    store, served = str(work / "session-store"), str(work / "serve-store")
    serve = ("serve-bench", "--requests", "8", "--rates", "1",
             "--artifacts-dir", str(work))
    matrix = [
        ((command, "--schema", schema), 0)
        for schema in _SCHEMAS
        for command in ("registry", "plan", "run", "explain", "topologies")
    ]
    matrix += [(("plan", "--metric", metric), 0) for metric in sorted(DEFAULT_METRICS)]
    matrix += [
        (("plan", "--budget", "5"), 0),
        (("run", "--backend", "asyncio"), 0),
        (("run", "--invocation-cache-size", "2"), 0),
        (("explain", "--backend", "asyncio"), 0),
        (("run", "--seed", "3", "--failure-rate", "0.3",
          "--degradation", "partial"), 0),
        (("run", "--seed", "3", "--outage", "Restaurant1",
          "--degradation", "partial", "--strict"), 3),
        (("run", "--trace", str(work / "run.jsonl"), "--metrics", "json"), 0),
        (("run", "--trace", str(work / "run.json"), "--trace-format", "chrome",
          "--metrics", "json"), 0),
        (("checkpoint", "--schema", "scholar", "--steps", "2",
          "--dir", store, "--key", "v"), 0),
        (("resume", "--dir", store), 0),
        (("resume", "--dir", store, "--list"), 0),
        (("scenarios", "--registry"), 0),
        (serve, 0),
        ((*serve, "--trace", "serve.jsonl", "--metrics-output", "metrics.json",
          "--prom", "metrics.prom"), 0),
        ((*serve, "--trace", "serve.json", "--trace-format", "chrome"), 0),
        ((*serve, "--shards", "4", "--scenario", "all"), 0),
        ((*serve, "--shards", "4", "--no-steal", "--no-shared-cache"), 0),
        # Load enough that an idle shard steals (checked in run_matrix).
        (("serve-bench", "--requests", "24", "--rates", "2", "--shards", "4",
          "--artifacts-dir", str(work), "--output", STEALING), 0),
        ((*serve, "--backend", "asyncio"), 0),
        ((*serve, "--shards", "2", "--parallel"), 0),
        # Refused before serving: a malformed value, flags no ServeConfig takes.
        ((*serve, "--service-rate", "nan"), 2),
        ((*serve, "--shards", "2", "--backend", "asyncio"), 2),
        # A constant whose type the attribute refuses (the compiler's door).
        (("plan", "--query", "SELECT Movie1 AS M WHERE M.Title = 3"), 2),
        ((*serve, "--checkpoint-every", "3", "--checkpoint-dir", served), 0),
        ((*serve, "--checkpoint-every", "3", "--checkpoint-dir", served,
          "--resume"), 0),
        (("serve-report", "--trace", str(work / "serve.jsonl"),
          "--metrics", str(work / "metrics.json")), 0),
    ]
    return matrix


def import_all() -> dict[str, object]:
    """Import every ``repro`` module (``__main__`` would run the CLI)."""
    import repro

    modules = {"repro": repro}
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith(".__main__"):
            modules[info.name] = importlib.import_module(info.name)
    return modules


def _functions(code: CodeType, out: dict) -> None:
    """Collect ``code``'s functions into ``out``: key -> (qualname, span)."""
    for const in code.co_consts:
        if not isinstance(const, CodeType):
            continue
        if const.co_name not in _INLINE and const.co_flags & inspect.CO_OPTIMIZED:
            qualname = getattr(const, "co_qualname", const.co_name)
            first = const.co_firstlineno
            span = range(first, max(_lines(const), default=first) + 1)
            out[(first, const.co_name)] = (qualname, span)
        # Class bodies, and comprehensions outside a function, run at import.
        _functions(const, out)


def _lines(code: CodeType):
    """The source lines ``code`` and its inline children map to."""
    yield from (line for _, _, line in code.co_lines() if line is not None)
    for const in code.co_consts:
        if isinstance(const, CodeType) and const.co_name in _INLINE:
            yield from _lines(const)


def _own_lines(functions: dict) -> dict:
    """Lines per function: each line of a nested ``def`` is the nested one's."""
    owner = {}
    for key, (_, span) in sorted(functions.items(), key=lambda kv: -len(kv[1][1])):
        owner.update(dict.fromkeys(span, key))
    counts = dict.fromkeys(functions, 0)
    for key in owner.values():
        counts[key] += 1
    return counts


def run_workloads() -> list[str]:
    """One batch of each served e2e workload; the names of those that failed."""
    import entrypoints
    import workloads

    ep, failed = entrypoints.load(), []
    for name in SERVED_WORKLOADS:
        workload = workloads.WORKLOADS[name](ep, 2009, 0.25)
        workload.prepare()
        if workload.batch(lambda label: contextlib.nullcontext()).failed:
            failed.append(name)
    return failed


def run_matrix(work: Path) -> set[tuple[str, int, str]]:
    """Run the CLI matrix and the workloads under the profiler; the
    functions entered."""
    from repro.cli import main

    sys.path.insert(0, str(ROOT / "benchmarks" / "e2e"))
    # Keyed by id, which is cheap: hashing a code object hashes its
    # constants on every call.  The ids are stable, since every module's
    # code objects stay alive.
    entered: dict[int, CodeType] = {}

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            entered[id(code)] = code

    workers = work / "workers"
    workers.mkdir()
    entry = getattr(importlib.import_module(WORKER_ENTRY[0]), WORKER_ENTRY[1]).__code__

    def worker_profile(frame, event, arg):
        profile(frame, event, arg)
        if event == "return" and frame.f_code is entry:
            keys = [_key(code) for code in entered.values()]
            (workers / f"{os.getpid()}.json").write_text(json.dumps(keys))

    def in_child() -> None:
        if sys.getprofile() is profile:  # forked while the matrix runs
            sys.setprofile(worker_profile)

    failures = []
    matrix = cli_matrix(work)
    os.register_at_fork(after_in_child=in_child)
    threading.setprofile(profile)
    sys.setprofile(profile)
    try:
        for argv, expected in matrix:
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                try:
                    code = main(list(argv))
                except SystemExit as stop:
                    code = stop.code
            if code != expected:
                failures.append((argv, code, sink.getvalue()[-400:]))
        failures += run_workloads()
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    if not steals(work / STEALING):
        failures.append(f"the {STEALING} run stole nothing")
    if failures:
        raise SystemExit(f"audited commands failed: {failures}")
    reached = {_key(code) for code in entered.values()}
    for path in workers.glob("*.json"):
        reached.update(map(tuple, json.loads(path.read_text())))
    return reached


def steals(report: Path) -> int:
    """Requests the sharded runs of a ``serve-bench --shards`` report stole."""
    if not report.is_file():
        return 0
    levels = json.loads(report.read_text())["levels"]
    return sum(
        shard["steals"] for level in levels for shard in level["sharded"]["shards"]
    )


def _key(code: CodeType) -> tuple[str, int, str]:
    return (os.path.realpath(code.co_filename), code.co_firstlineno, code.co_name)


def audit(work: Path) -> dict:
    """Import, profile the matrix, and tally reached lines per module."""
    modules = import_all()
    reached = run_matrix(work)
    report: dict = {"modules": {}, "unreached_modules": []}
    totals = {"reached": 0, "unreached": 0}
    for name, module in sorted(modules.items()):
        path = os.path.realpath(module.__file__)
        source = Path(path).read_text(encoding="utf-8")
        functions: dict = {}
        _functions(compile(source, path, "exec"), functions)
        if not functions:
            continue
        entry = {"reached": 0, "unreached": 0, "unreached_functions": []}
        for (first, co_name), lines in sorted(_own_lines(functions).items()):
            if (path, first, co_name) in reached:
                entry["reached"] += lines
            else:
                entry["unreached"] += lines
                qualname = functions[first, co_name][0]
                entry["unreached_functions"].append(f"{qualname}:{first}")
        report["modules"][name] = entry
        totals["reached"] += entry["reached"]
        totals["unreached"] += entry["unreached"]
        hooks_only = hasattr(module, "__path__") and {
            co_name for _, co_name in functions
        } <= _MODULE_HOOKS
        if not entry["reached"] and not hooks_only:
            report["unreached_modules"].append(name)
    report["total"] = {**totals, "lines": totals["reached"] + totals["unreached"]}
    report["python"] = ".".join(map(str, sys.version_info[:3]))
    return report


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", required=True, help="JSON report path")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="repro-reach-") as work:
        report = audit(Path(work))
    output = Path(args.output)
    output.parent.mkdir(parents=True, exist_ok=True)
    output.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    total = report["total"]
    print(
        f"{total['unreached']} of {total['lines']} function lines unreached; "
        f"modules no command enters: {', '.join(report['unreached_modules'])}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
