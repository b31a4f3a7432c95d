"""The five workloads: what one batch runs, and how its output is checked.

Every workload has the same shape: ``prepare()`` builds its inputs,
``batch(mark)`` runs one batch of identical work from scratch (fresh
caches, sessions and checkpoint directory) and returns a :class:`Batch`.
``mark(label)`` is a context manager the runner supplies — a ``bench.op``
span carrying the label as its ``op_id`` in a traced batch, a no-op
otherwise — so a workload never knows about tracing.

**What the seed draws.**  The *set* of operations in a batch is fixed; the
seed draws their timing, placement and order.  Measured on the unmodified
tree, redrawing the content instead (which bindings are hot, which
sessions get ``more``, the synthetic schemas' statistics, the relations'
tuples) moves wall per batch by a factor of 1.3 to 2.4 between seeds —
one request costs between 0.05 ms and 400 ms — which no run length this
box allows can average below the regression bound.  So:

* serving — the requests (templates, bindings, follow-up targets) are the
  ``CANON_SEED`` stream of ``generate_workload``; the seed redraws the
  Poisson arrival times and the session ids the sharding ring hashes,
  i.e. queueing, cache interleaving, shard placement and stealing;
* ``plan_cold`` — the seed shuffles the order of the plans in a pass;
* ``join_kernels`` — the seed relabels every join-key value through a
  random bijection (same join structure and result sizes, different sort
  and hash order) and shuffles the order of the joins in a pass.

Result digests do not depend on arrival times or placement, so the
serving and planning pins hold for every seed.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import shutil
import tempfile
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, ContextManager

from entrypoints import ROOT

#: Seed of the simulated world and of the request content (the repo's
#: canonical seed; ROADMAP's 107 req/s figure is this stream).
CANON_SEED = 2009
#: Seed of the join relations before relabeling (``bench_wcoj``'s).
JOIN_SEED = 2012

ARTIFACTS = ROOT / "artifacts" / "e2e"

Mark = Callable[[str], ContextManager]


@dataclass
class Batch:
    """What one batch did."""

    ops: int
    failed: int = 0
    #: ``(label, wall seconds)`` per op measured by the workload itself
    #: (planning, joins); serving requests are timed at the stepper.
    samples: list[tuple[str, float]] = field(default_factory=list)
    #: Deterministic outputs that must be equal in every batch of a run.
    exact: dict[str, Any] = field(default_factory=dict)
    #: Reports and stats objects the per-layer metrics are read from.
    info: dict[str, Any] = field(default_factory=dict)


def digest_of(value: Any) -> str:
    return hashlib.sha256(
        json.dumps(value, sort_keys=True, default=repr).encode()
    ).hexdigest()


class Workload:
    name = ""
    why = ""
    #: What one "op" is, for the README and the printed table.
    op = "op"

    def __init__(self, ep, seed: int, scale: float) -> None:
        self.ep = ep
        self.seed = seed
        self.scale = scale

    def scaled(self, size: int, floor: int) -> int:
        return max(floor, round(size * self.scale))

    def prepare(self) -> None:
        raise NotImplementedError

    def batch(self, mark: Mark) -> Batch:
        raise NotImplementedError


# -- serving --------------------------------------------------------------------


class _Serving(Workload):
    op = "request"
    requests = 0
    rate = 2.0
    skew = 1.3
    followups = 0.25

    def templates(self):
        return self.ep.default_templates()

    def prepare(self) -> None:
        self.n = self.scaled(self.requests, 6)
        self._templates = tuple(self.templates())

    def stream(self) -> list:
        """The canonical request content on this seed's arrival schedule."""
        requests = self.ep.generate_workload(
            self._templates,
            self.ep.WorkloadConfig(
                num_requests=self.n,
                rate=self.rate,
                skew=self.skew,
                seed=CANON_SEED,
                followup_fraction=self.followups,
            ),
        )
        rng = random.Random(self.seed)
        session_ids: dict[int, int] = {}
        taken: set[int] = set()
        now = 0.0
        timed = []
        for request in requests:
            now += rng.expovariate(self.rate)
            if request.session_id not in session_ids:
                fresh = rng.randrange(1_000_000)
                while fresh in taken:
                    fresh = rng.randrange(1_000_000)
                taken.add(fresh)
                session_ids[request.session_id] = fresh
            timed.append(
                replace(
                    request,
                    arrival=now,
                    session_id=session_ids[request.session_id],
                )
            )
        return timed

    def serve(self, workload, **overrides):
        options = dict(
            rate=self.rate,
            num_requests=self.n,
            seed=CANON_SEED,
            num_shards=1,
            steal=False,
            skew=self.skew,
            followup_fraction=self.followups,
            cache_size=None,
            templates=self._templates,
            workload=workload,
            digest_fn=self.ep.result_digest,
        )
        options.update(overrides)
        return self.ep.serve_workload_sharded(**options)

    def summarise(self, report, digests, **info) -> Batch:
        statuses = report.by_status()
        latency = report.latency_summary()
        return Batch(
            ops=self.n,
            failed=self.n - statuses.get("completed", 0),
            exact={
                "digest": self.ep.combined_digest(digests),
                "virtual_latency_mean_s": latency.get("mean", 0.0),
                "virtual_latency_p95_s": latency.get("p95", 0.0),
                "round_trips_per_op": report.total_round_trips / self.n,
            },
            info={"report": report, **info},
        )

    def batch(self, mark: Mark) -> Batch:
        report, digests = self.serve(self.stream())
        return self.summarise(report, digests)


class ServeHot(_Serving):
    name = "serve_hot"
    why = (
        "working set (~100 binding combos) fits the unbounded caches: plan "
        "cache ~100% hits, few fetches, so wall is engine joins + predicates"
    )
    requests = 100


class ServeTail(_Serving):
    name = "serve_tail"
    why = (
        "5 schemas, 8x parameter universe, 4 shards, 256-entry cache, half "
        "follow-ups: evictions, real fetches, ring and stealing all active"
    )
    requests = 40
    rate = 1.0
    skew = 1.0
    followups = 0.5

    def templates(self):
        return self.ep.scenario_templates("all", param_scale=8)

    def serve(self, workload, **overrides):
        return super().serve(
            workload, num_shards=4, steal=True, cache_size=256, **overrides
        )


class _Crash(Exception):
    """Benchmark-private: raised from ``on_checkpoint`` to stop the server."""


class ServeDurable(_Serving):
    name = "serve_durable"
    why = (
        "serve_hot's kind of stream with a checkpoint every 5 outcomes, a "
        "crash at the half-way checkpoint and a resume: the durability tax"
    )
    requests = 40
    every = 5

    def prepare(self) -> None:
        super().prepare()
        # The uninterrupted run of the same stream: what a resumed run
        # must reproduce, request by request.
        _, digests = self.serve(self.stream())
        self.reference = self.ep.combined_digest(digests)
        self.crash_after = max(1, math.ceil(self.n / (2 * self.every)))
        ARTIFACTS.mkdir(parents=True, exist_ok=True)

    def durable(self, workload, directory, **overrides):
        return self.ep.serve_workload_durable(
            rate=self.rate,
            num_requests=self.n,
            seed=CANON_SEED,
            checkpoint_dir=directory,
            checkpoint_every=self.every,
            skew=self.skew,
            followup_fraction=self.followups,
            templates=self._templates,
            workload=workload,
            **overrides,
        )

    def batch(self, mark: Mark) -> Batch:
        workload = self.stream()
        directory = Path(tempfile.mkdtemp(prefix="durable-", dir=ARTIFACTS))
        try:
            def crash(checkpointer) -> None:
                if checkpointer.written >= self.crash_after:
                    raise _Crash

            started = time.perf_counter()
            with mark("until_crash"):
                try:
                    self.durable(workload, directory, on_checkpoint=crash)
                except _Crash:
                    pass
                else:
                    raise RuntimeError("serve_durable never reached its crash")
            crashed = time.perf_counter()
            with mark("resume"):
                report, digests, info = self.durable(
                    workload, directory, resume=True
                )
            resumed = time.perf_counter()
        finally:
            shutil.rmtree(directory, ignore_errors=True)
        batch = self.summarise(
            report,
            digests,
            resume=info,
            resume_share=(resumed - crashed) / (resumed - started),
        )
        if batch.exact["digest"] != self.reference or not info["resumed"]:
            batch.failed = batch.ops
        return batch


# -- planning ---------------------------------------------------------------------


class PlanCold(Workload):
    name = "plan_cold"
    why = (
        "parse -> compile -> branch-and-bound optimize from text, no plan "
        "cache, no execution: all of core and query, nothing else"
    )
    op = "plan"

    def prepare(self) -> None:
        ep = self.ep
        queries = [
            (template.name, template.query_text, template.registry_factory())
            for template in ep.scenario_templates("all")
        ]
        synthetic = [
            ("star4", ep.star_workload(4)),
            ("star5", ep.star_workload(5)),
            ("chain8", ep.chain_workload(8)),
            ("mixed8", ep.mixed_workload(8)),
        ]
        queries += [(n, w.query_text, w.registry) for n, w in synthetic]
        metrics = (ep.ExecutionTimeMetric, ep.SumCostMetric)
        self.plans = [
            (f"{name}/{metric.__name__}", text, registry, metric)
            for name, text, registry in queries
            for metric in metrics
        ]
        if self.scale >= 1:
            # Three star6 schemas under one metric: the slowest tenth of a
            # pass is then one homogeneous group, so p95 sits inside it
            # instead of on the cliff between one heavy plan and the rest.
            # (star6 under SumCostMetric is 0.6-1.0 s alone and star8 28 s;
            # both are left out.)
            for synth_seed in (0, 3, 4):
                workload = ep.star_workload(6, synth_seed)
                self.plans.append(
                    (
                        f"star6.{synth_seed}/ExecutionTimeMetric",
                        workload.query_text,
                        workload.registry,
                        ep.ExecutionTimeMetric,
                    )
                )
        random.Random(self.seed).shuffle(self.plans)

    def batch(self, mark: Mark) -> Batch:
        ep = self.ep
        batch = Batch(ops=len(self.plans))
        chosen = {}
        for label, text, registry, metric in self.plans:
            with mark(label):
                started = time.perf_counter()
                query = ep.compile_query(ep.parse_query(text), registry)
                outcome = ep.Optimizer(
                    query, ep.OptimizerConfig(metric=metric())
                ).optimize()
                batch.samples.append((label, time.perf_counter() - started))
            best = outcome.best
            if best is None:
                batch.failed += 1
                continue
            chosen[label] = [
                repr(best.cost),
                best.fetch_vector(),
                digest_of(ep.plan_signature(query, metric=metric())),
            ]
        batch.exact["digest"] = digest_of(chosen)
        return batch


# -- joins ------------------------------------------------------------------------


class JoinKernels(Workload):
    name = "join_kernels"
    why = (
        "top-k multiway joins on skewed triangle / 4-cycle / 4-clique under "
        "the binary, wcoj and ranked kernels, plus two-way chunked joins: "
        "pure joins layer"
    )
    op = "join"
    k = 25

    def prepare(self) -> None:
        self._rng = random.Random(self.seed)
        size = lambda n: self.scaled(n, 24)  # noqa: E731
        self.cases = {
            "triangle": self._triangle(size(240), JOIN_SEED),
            "cycle4": self._cycle4(size(180), JOIN_SEED + 100),
            # The cascade on the full 4-cycle takes seconds; it runs (and
            # is checked against wcoj) on a smaller one.
            "cycle4s": self._cycle4(size(60), JOIN_SEED + 100),
            "clique4": self._clique4(size(300), JOIN_SEED + 200),
        }
        self.joins: list[tuple[str, Callable[[], Any]]] = []
        for shape, kernels in (
            ("triangle", ("binary", "wcoj", "ranked")),
            ("cycle4", ("wcoj", "ranked")),
            ("cycle4s", ("binary", "wcoj")),
            ("clique4", ("binary", "wcoj", "ranked")),
        ):
            for kernel in kernels:
                self.joins.append((f"{kernel}.{shape}", self._topk(shape, kernel)))
        self._two_way(size(200))
        self._rng.shuffle(self.joins)

    # Builders after benchmarks/bench_wcoj.py (copied, not imported: that
    # module may change with the kernels it benchmarks), plus the seed's
    # value relabeling.

    def _relabel(self, domain: int) -> list[int]:
        labels = list(range(domain))
        self._rng.shuffle(labels)
        return labels

    def _relation(self, alias, n, domains, labels, seed):
        rng = random.Random(seed)
        scored = sorted((rng.random() for _ in range(n)), reverse=True)
        rows = [
            {attr: rng.randrange(dom) for attr, dom in domains.items()}
            for _ in scored
        ]
        return alias, rows, [round(score, 9) for score in scored], labels

    def _finish(self, built):
        """Relations from ``(alias, rows, scores, labels)`` after closures."""
        ep = self.ep
        return [
            ep.Relation(
                alias=alias,
                tuples=[
                    ep.ServiceTuple(
                        {attr: labels[attr][value] for attr, value in row.items()},
                        score=score,
                        source=alias,
                        position=position,
                    )
                    for position, (row, score) in enumerate(zip(rows, scores))
                ],
            )
            for alias, rows, scores, labels in built
        ]

    def _close(self, built, closures, seed, n):
        """Rewrite a few rows of the last relation so the join is never empty.

        ``closures`` walks the chain: ``(attr shared with the previous
        relation)`` per hop; the last relation gets the closing pair.
        """
        rng = random.Random(seed)
        *chain, last = built
        for _ in range(max(3, n // 40)):
            row = rng.choice(chain[0][1])
            path = [row]
            for (_, rows, _, _), attr in zip(chain[1:], closures):
                matches = [r for r in rows if r[attr] == path[-1][attr]]
                if not matches:
                    break
                path.append(rng.choice(matches))
            else:
                victim = last[1][rng.randrange(len(last[1]))]
                first_attr, last_attr = closures[-1], "a"
                victim[first_attr] = path[-1][first_attr]
                victim[last_attr] = path[0][last_attr]

    def _triangle(self, n, seed):
        labels = {"a": self._relabel(40 * n), "b": self._relabel(4), "c": self._relabel(4)}
        built = [
            self._relation("R", n, {"a": 40 * n, "b": 4}, labels, seed),
            self._relation("S", n, {"b": 4, "c": 4}, labels, seed + 1),
            self._relation("T", n, {"c": 4, "a": 40 * n}, labels, seed + 2),
        ]
        self._close(built, ("b", "c"), seed + 3, n)
        return self._finish(built), self.ep.triangle_graph()

    def _cycle4(self, n, seed):
        ep = self.ep
        wide, narrow = 40 * n, 4
        labels = {"a": self._relabel(wide)}
        labels.update({attr: self._relabel(narrow) for attr in "bcd"})
        built = [
            self._relation("A", n, {"a": wide, "b": narrow}, labels, seed),
            self._relation("B", n, {"b": narrow, "c": narrow}, labels, seed + 1),
            self._relation("C", n, {"c": narrow, "d": narrow}, labels, seed + 2),
            self._relation("D", n, {"d": narrow, "a": wide}, labels, seed + 3),
        ]
        self._close(built, ("b", "c", "d"), seed + 4, n)
        graph = ep.JoinGraph(
            ("A", "B", "C", "D"),
            (
                ep.EquiPredicate("A", "b", "B", "b"),
                ep.EquiPredicate("B", "c", "C", "c"),
                ep.EquiPredicate("C", "d", "D", "d"),
                ep.EquiPredicate("D", "a", "A", "a"),
            ),
        )
        return self._finish(built), graph

    def _clique4(self, n, seed):
        """Six edge relations over one random graph's edge list."""
        ep = self.ep
        rng = random.Random(seed)
        vertices = max(8, n // 6)
        vertex_labels = self._relabel(vertices)
        edges = sorted(
            {
                tuple(sorted((rng.randrange(vertices), rng.randrange(vertices))))
                for _ in range(n)
            }
        )
        edges = [edge for edge in edges if edge[0] != edge[1]]
        pairs = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
        built = []
        for u, v in pairs:
            scored = sorted((rng.random() for _ in edges), reverse=True)
            built.append(
                (
                    f"E{u}{v}",
                    [{f"v{u}": a, f"v{v}": b} for a, b in edges],
                    [round(score, 9) for score in scored],
                    {f"v{u}": vertex_labels, f"v{v}": vertex_labels},
                )
            )
        by_vertex: dict[int, list[tuple[str, str]]] = {}
        for (u, v), (alias, *_rest) in zip(pairs, built):
            by_vertex.setdefault(u, []).append((alias, f"v{u}"))
            by_vertex.setdefault(v, []).append((alias, f"v{v}"))
        predicates = [
            ep.EquiPredicate(occurrences[0][0], occurrences[0][1], alias, attr)
            for occurrences in by_vertex.values()
            for alias, attr in occurrences[1:]
        ]
        return (
            self._finish(built),
            ep.JoinGraph(tuple(alias for alias, *_ in built), tuple(predicates)),
        )

    def _topk(self, shape, kernel):
        def run():
            relations, graph = self.cases[shape]
            return self.ep.topk_join(relations, graph, k=self.k, kernel=kernel)

        return run

    def _two_way(self, n) -> None:
        """Chunked two-way joins: four parallel methods and one pipe join."""
        ep = self.ep
        scoring = ep.LinearScoring(horizon=n)
        keys = self._relabel(12)
        chunk = 20

        def ranked(name, seed):
            rng = random.Random(seed)
            return [
                ep.ServiceTuple(
                    {"k": keys[rng.randrange(12)]},
                    score=min(1.0, max(0.0, scoring.score_at(i))),
                    source=name,
                    position=i,
                )
                for i in range(n)
            ]

        left, right = ranked("X", JOIN_SEED + 300), ranked("Y", JOIN_SEED + 301)
        by_key: dict[int, list] = {}
        for tup in right:
            by_key.setdefault(tup.values["k"], []).append(tup)

        def same_key(a, b):
            return a.values["k"] == b.values["k"]

        def parallel(spec):
            def run():
                return ep.make_executor(
                    spec,
                    ep.ListChunkSource(left, chunk, scoring),
                    ep.ListChunkSource(right, chunk, scoring),
                    same_key,
                    k=None,
                ).run()

            return run

        for invocation in ep.InvocationStrategy:
            for completion in ep.CompletionStrategy:
                spec = ep.JoinMethodSpec(invocation=invocation, completion=completion)
                self.joins.append((f"parallel.{spec.label}", parallel(spec)))

        def pipe():
            return ep.PipeJoinExecutor(
                left,
                lambda tup: ep.ListChunkSource(
                    by_key.get(tup.values["k"], []), chunk, scoring
                ),
                fetches=2,
                k=None,
            ).run()

        self.joins.append(("pipe.NL/rect", pipe))

    def batch(self, mark: Mark) -> Batch:
        batch = Batch(ops=len(self.joins))
        outcomes: dict[str, Any] = {}
        for label, run in self.joins:
            with mark(label):
                started = time.perf_counter()
                outcomes[label] = run()
                batch.samples.append((label, time.perf_counter() - started))
        keys = {
            label: outcome.row_keys()
            for label, outcome in outcomes.items()
            if hasattr(outcome, "row_keys")
        }
        for shape in self.cases:
            answers = [v for label, v in keys.items() if label.endswith("." + shape)]
            if any(answer != answers[0] for answer in answers):
                batch.failed = batch.ops
        two_way = {
            label: [len(outcome.pairs), round(sum(p.score for p in outcome.pairs), 9)]
            for label, outcome in outcomes.items()
            if not hasattr(outcome, "row_keys")
        }
        if len({tuple(v) for label, v in two_way.items() if label.startswith("parallel.")}) != 1:
            batch.failed = batch.ops
        batch.exact["digest"] = digest_of(
            {
                "topk": {label: [score for score, _ in rows] for label, rows in keys.items()},
                "two_way": two_way,
            }
        )
        batch.info["outcomes"] = outcomes
        return batch


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (ServeHot, ServeTail, ServeDurable, PlanCold, JoinKernels)
}
