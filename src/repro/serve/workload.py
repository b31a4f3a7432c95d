"""Workload generation: query templates sampled into arrival streams.

A serving benchmark needs *traffic*, not one query: a stream of requests
drawn from parameterized **query templates** (the Fig. 3 movie-night and
Fig. 10 conference-trip schemas), arriving over virtual time at a
configurable rate, with parameter values drawn from a skewed (Zipf-like)
distribution so that popular parameter combinations repeat — the regime
where cross-query sharing pays off, exactly as popular keywords repeat in
a real multi-domain search service.

Everything is a pure function of the workload seed: arrival times come
from a seeded exponential inter-arrival draw, template choice and
parameter picks from the same generator.  The same
:class:`WorkloadConfig` therefore yields the *identical* request stream
for the shared and isolated serving modes, making their comparison
apples-to-apples.

A fraction of requests are **follow-up interactions** on an earlier
request's session — ``more`` (grow the fetch factors), ``rerank``
(re-weight the ranking function; costs no service calls), ``resubmit``
(new INPUT bindings, same plan) — so the liquid-query surface of
Section 3.2 flows through the scheduler alongside fresh queries.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Callable, Mapping, Sequence

from repro.errors import ExecutionError
from repro.services.marts import (
    CONFERENCE_QUERY,
    RUNNING_EXAMPLE_QUERY,
    conference_trip_registry,
    movie_night_registry,
)
from repro.services.scenarios import (
    SCENARIOS,
    ScenarioPack,
    scenario_names,
    scenario_pack,
)

__all__ = [
    "QueryTemplate",
    "Request",
    "WorkloadConfig",
    "default_templates",
    "generate_workload",
    "scenario_names",
    "scenario_templates",
    "session_key",
]

#: Relative odds of each follow-up kind when a follow-up is drawn.
FOLLOWUP_MIX = {"more": 0.4, "rerank": 0.35, "resubmit": 0.25}


@lru_cache(maxsize=1024)
def _zipf_cdf(n: int, skew: float) -> tuple[float, ...]:
    """Cumulative Zipf weights for ``n`` options at exponent ``skew``.

    Accumulated left-to-right exactly like the historical per-draw scan,
    so memoisation changes no draw: the running sums are bit-identical to
    ``sum(weights[:i+1])``.
    """
    acc = 0.0
    cdf: list[float] = []
    for i in range(n):
        acc += 1.0 / (i + 1) ** skew
        cdf.append(acc)
    return tuple(cdf)


def zipf_index(rng: random.Random, n: int, skew: float) -> int:
    """Draw an index in ``[0, n)`` with probability ∝ ``1/(i+1)**skew``.

    ``skew=0`` is uniform; larger values concentrate mass on the first
    few options (the "popular keywords" of the workload).  The weight
    CDF is memoised per ``(n, skew)`` and searched with :func:`bisect`,
    so drawing is O(log n) instead of rebuilding an O(n) weight vector
    per draw — at 100k-request workload generation the rebuild was the
    dominant cost.
    """
    if n <= 0:
        raise ExecutionError("cannot draw from an empty option list")
    cdf = _zipf_cdf(n, float(skew))
    point = rng.random() * cdf[-1]
    return min(bisect_right(cdf, point), n - 1)


@dataclass(frozen=True)
class QueryTemplate:
    """A parameterized query: fixed text, sampled INPUT bindings.

    ``parameter_space`` maps each INPUT variable to its candidate values,
    ordered most-popular first — :meth:`sample_inputs` draws each
    independently with Zipf skew.  ``rerank_weights`` are the alternative
    ranking-weight sets a ``rerank`` follow-up may switch to.
    """

    name: str
    schema: str
    query_text: str
    registry_factory: Callable[[], Any]
    parameter_space: Mapping[str, Sequence[Any]]
    rerank_weights: Sequence[Mapping[str, float]] = ()

    def sample_inputs(self, rng: random.Random, skew: float) -> dict[str, Any]:
        return {
            name: options[zipf_index(rng, len(options), skew)]
            for name, options in sorted(self.parameter_space.items())
        }


@dataclass(frozen=True)
class Request:
    """One arrival in the serving workload.

    ``kind`` is ``run`` (a fresh query), or a follow-up interaction —
    ``more`` / ``rerank`` / ``resubmit`` — on the session opened by the
    ``run`` request named in ``target``.
    """

    request_id: int
    kind: str
    template: str
    schema: str
    arrival: float
    inputs: Mapping[str, Any] | None = None
    weights: Mapping[str, float] | None = None
    target: int | None = None
    k: int | None = None
    #: Stable session identity drawn from the workload's (sparse) session
    #: id space — what the sharding ring hashes.  ``None`` (hand-built
    #: requests) falls back to ``target``/``request_id``.
    session_id: int | None = None


def session_key(request: Request) -> int:
    """The session identity a request belongs to (the sharding key).

    A ``run`` opens its own session; follow-ups belong to their target's.
    Workload-generated requests carry an explicit sparse ``session_id``;
    hand-built ones fall back to the request/target id.
    """
    if request.session_id is not None:
        return request.session_id
    if request.target is not None:
        return request.target
    return request.request_id


@dataclass(frozen=True)
class WorkloadConfig:
    """Knobs of the arrival stream (all consumed by one seeded RNG)."""

    num_requests: int = 40
    rate: float = 1.0  # mean arrivals per virtual second
    skew: float = 1.3  # Zipf exponent over parameter popularity
    seed: int = 2009
    followup_fraction: float = 0.25
    #: Size of the sparse session-id universe run requests draw their
    #: :attr:`Request.session_id` from (the space the sharding ring
    #: hashes — ~1M ids at production scale).
    session_space: int = 1_000_000

    def __post_init__(self) -> None:
        if self.num_requests <= 0:
            raise ExecutionError("num_requests must be positive")
        if not self.rate > 0:  # NaN too
            raise ExecutionError("arrival rate must be positive")
        if not 0.0 <= self.followup_fraction < 1.0:
            raise ExecutionError("followup_fraction must be in [0, 1)")
        if self.session_space < self.num_requests:
            raise ExecutionError(
                "session_space must be at least num_requests "
                "(every run needs a distinct session id)"
            )


def _scaled_options(options: Sequence[Any], scale: int) -> list[Any]:
    """Extend a most-popular-first option list to ``scale ×`` its length.

    The base options keep their head positions (their Zipf popularity
    only grows relative to the appended tail), so a scaled workload
    still concentrates mass on the same popular bindings while adding a
    long tail of fresh ones.  Generated values follow the base value's
    shape — ``prefix#n`` strings get new suffixes, numbers extend the
    numeric range — and the simulated substrate derives data from the
    binding value alone, so any generated value is servable.
    """
    extended = list(options)
    head = extended[0]
    for j in range(len(extended) * (scale - 1)):
        if isinstance(head, float):
            extended.append(round(float(head) + (j + 1) * 0.25, 2))
        elif isinstance(head, int) and not isinstance(head, bool):
            extended.append(int(head) + j + 1)
        else:
            prefix = str(head).split("#")[0]
            extended.append(f"{prefix}#x{j}")
    return extended


def default_templates(param_scale: int = 1) -> tuple[QueryTemplate, ...]:
    """The two built-in templates over the chapter's example schemas.

    Parameter universes are deliberately small and head-heavy: under the
    default skew many requests bind the same (genre, country, date) for
    ``Movie1`` or the same (topic, city, date) for the conference trip,
    so concurrent queries issue *identical* service invocations — the
    sharing opportunity the serving runtime exploits.

    ``param_scale`` multiplies every parameter universe (base options
    keep their head positions; see :func:`_scaled_options`).  At
    population scale — the sharding sweep's 100k requests over ~1M
    sessions — the unscaled universes degenerate: ~100 distinct binding
    combos all go resident in the shared cache, every request completes
    in zero virtual time, and there is no load left for shards to
    absorb.  Scaling keeps the Zipf head hot while the tail sustains a
    steady miss stream of real service traffic.
    """
    if param_scale < 1:
        raise ExecutionError("param_scale must be at least 1")
    templates = (
        QueryTemplate(
            name="movie-night",
            schema="movie",
            query_text=RUNNING_EXAMPLE_QUERY,
            registry_factory=movie_night_registry,
            parameter_space={
                "INPUT1": [f"genre#{i}" for i in (3, 1, 5)],
                "INPUT2": ["country#1", "country#2"],
                "INPUT3": ["2009-03-01", "2009-06-01"],
                "INPUT4": [f"address#{i}" for i in (17, 3)],
                "INPUT5": [f"city#{i}" for i in (4, 2)],
                "INPUT6": ["category#2", "category#1"],
            },
            rerank_weights=(
                {"M": 0.6, "T": 0.2, "R": 0.2},
                {"M": 0.2, "T": 0.3, "R": 0.5},
            ),
        ),
        QueryTemplate(
            name="conference-trip",
            schema="conference",
            query_text=CONFERENCE_QUERY,
            registry_factory=conference_trip_registry,
            parameter_space={
                "INPUT1": [f"topic#{i}" for i in (5, 2)],
                "INPUT2": [26.0, 20.0],
                "INPUT3": ["city#0", "city#7"],
                "INPUT4": ["2009-06-15", "2009-09-01"],
            },
            rerank_weights=(
                {"F": 0.8, "H": 0.2},
                {"F": 0.3, "H": 0.7},
            ),
        ),
    )
    return tuple(_scale_template(template, param_scale) for template in templates)


def _scale_template(template: QueryTemplate, param_scale: int) -> QueryTemplate:
    if param_scale == 1:
        return template
    return QueryTemplate(
        name=template.name,
        schema=template.schema,
        query_text=template.query_text,
        registry_factory=template.registry_factory,
        parameter_space={
            name: _scaled_options(options, param_scale)
            for name, options in template.parameter_space.items()
        },
        rerank_weights=template.rerank_weights,
    )


def _pack_template(pack: ScenarioPack) -> QueryTemplate:
    """Build a workload template from a scenario pack's plain data."""
    return QueryTemplate(
        name=pack.name,
        schema=pack.schema,
        query_text=pack.query_text,
        registry_factory=pack.registry_factory,
        parameter_space=pack.parameter_space,
        rerank_weights=pack.rerank_weights,
    )


def scenario_templates(
    scenario: str = "default", param_scale: int = 1
) -> tuple[QueryTemplate, ...]:
    """Workload templates for a named scenario selection.

    ``"default"`` is the chapter's two example schemas
    (:func:`default_templates`); a pack name from
    :data:`repro.services.scenarios.SCENARIOS` serves that pack alone;
    ``"all"`` mixes the defaults with every pack — five heterogeneous
    schemas in one arrival stream.  ``param_scale`` widens every
    parameter universe exactly as in :func:`default_templates`.
    """
    if param_scale < 1:
        raise ExecutionError("param_scale must be at least 1")
    if scenario == "default":
        return default_templates(param_scale)
    if scenario == "all":
        packs = tuple(
            _scale_template(_pack_template(SCENARIOS[name]), param_scale)
            for name in sorted(SCENARIOS)
        )
        return default_templates(param_scale) + packs
    return (_scale_template(_pack_template(scenario_pack(scenario)), param_scale),)


def generate_workload(
    templates: Sequence[QueryTemplate], config: WorkloadConfig
) -> list[Request]:
    """Sample a deterministic arrival stream from the templates.

    Inter-arrival gaps are exponential with mean ``1/rate`` (a Poisson
    process on virtual time).  Template choice is Zipf over the template
    list; follow-ups target a uniformly drawn earlier ``run`` request of
    the stream (the scheduler parks a follow-up until its target
    completes, so generation never needs completion knowledge).
    """
    if not templates:
        raise ExecutionError("workload needs at least one template")
    by_name = {template.name: template for template in templates}
    if len(by_name) != len(templates):
        raise ExecutionError("template names must be unique")
    rng = random.Random(config.seed)
    # Session ids come from a *separate* seeded stream so the arrival /
    # parameter draws stay bit-identical to workloads generated before
    # sharding existed (same main-rng consumption).
    sid_rng = random.Random((config.seed << 1) ^ 0x5E5510)
    used_sids: set[int] = set()

    def next_session_id() -> int:
        while True:
            sid = sid_rng.randrange(config.session_space)
            if sid not in used_sids:
                used_sids.add(sid)
                return sid

    kinds = sorted(FOLLOWUP_MIX)
    kind_weights = [FOLLOWUP_MIX[kind] for kind in kinds]
    now = 0.0
    requests: list[Request] = []
    runs: list[Request] = []
    for request_id in range(config.num_requests):
        now += rng.expovariate(config.rate)
        if runs and rng.random() < config.followup_fraction:
            target = runs[rng.randrange(len(runs))]
            template = by_name[target.template]
            kind = rng.choices(kinds, weights=kind_weights)[0]
            if kind == "rerank" and not template.rerank_weights:
                kind = "more"
            if kind == "rerank":
                weights = template.rerank_weights[
                    rng.randrange(len(template.rerank_weights))
                ]
                request = Request(
                    request_id=request_id,
                    kind="rerank",
                    template=template.name,
                    schema=template.schema,
                    arrival=now,
                    weights=dict(weights),
                    target=target.request_id,
                    session_id=target.session_id,
                )
            elif kind == "resubmit":
                request = Request(
                    request_id=request_id,
                    kind="resubmit",
                    template=template.name,
                    schema=template.schema,
                    arrival=now,
                    inputs=template.sample_inputs(rng, config.skew),
                    target=target.request_id,
                    session_id=target.session_id,
                )
            else:
                request = Request(
                    request_id=request_id,
                    kind="more",
                    template=template.name,
                    schema=template.schema,
                    arrival=now,
                    target=target.request_id,
                    session_id=target.session_id,
                )
        else:
            template = templates[zipf_index(rng, len(templates), config.skew)]
            request = Request(
                request_id=request_id,
                kind="run",
                template=template.name,
                schema=template.schema,
                arrival=now,
                inputs=template.sample_inputs(rng, config.skew),
                session_id=next_session_id(),
            )
            runs.append(request)
        requests.append(request)
    return requests
