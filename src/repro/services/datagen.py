"""Deterministic synthetic data generation for simulated services.

The chapter evaluates its framework over live Web sources (movie, theatre,
restaurant, flight services...).  Those are unavailable and irreproducible,
so this module synthesises result lists with the *statistical* properties
the optimizer and join methods actually depend on:

* values of join attributes are drawn uniformly from their declared
  :class:`~repro.model.attributes.Domain` — an equijoin over a domain of
  size ``n`` then matches with probability ``1/n``, which is how example
  schemas encode the chapter's pattern selectivities (e.g. ``Shows`` = 2%
  via a 50-title domain);
* input bindings are echoed into result tuples, so pipe joins are
  consistent by construction (asking a restaurant service for city X
  yields restaurants in city X);
* scores follow the interface's scoring function, so results arrive in
  ranking order with the declared decay shape;
* everything is a pure function of ``(seed, interface, inputs)`` — the
  same invocation always returns the same tuples.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from functools import cached_property, partial
from typing import TYPE_CHECKING, Any, Iterator, Mapping, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.query.ast import SelectionPredicate

from repro.errors import ServiceInvocationError
from repro.model.attributes import Attribute, DataType, RepeatingGroup
from repro.model.service import ServiceInterface
from repro.model.tuples import ServiceTuple, freeze_value

__all__ = ["derive_seed", "domain_value", "TupleGenerator"]


def derive_seed(global_seed: int, interface_name: str, inputs: Mapping[str, Any]) -> int:
    """Stable 64-bit seed for one invocation.

    Uses blake2b over a canonical rendering so the same (seed, service,
    inputs) triple regenerates identical results across processes —
    ``hash()`` would not, because of string-hash randomisation.
    """
    canonical = f"{global_seed}|{interface_name}|" + "|".join(
        f"{key}={inputs[key]!r}" for key in sorted(inputs)
    )
    digest = hashlib.blake2b(canonical.encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def domain_value(attribute: Attribute, rng: random.Random) -> Any:
    """Draw one uniform value from an attribute's domain.

    Sized domains enumerate ``size`` distinct values; unsized domains fall
    back to a large universe (join selectivity then effectively zero,
    suitable for payload attributes like URLs).
    """
    domain = attribute.domain
    size = domain.size or 1_000_000
    index = rng.randrange(size)
    dtype = domain.dtype
    if dtype is DataType.INTEGER:
        return index
    if dtype is DataType.FLOAT:
        # Uniform floats over [0, size); quantised for reproducible display.
        return round(rng.uniform(0.0, float(size)), 3)
    if dtype is DataType.BOOLEAN:
        return index % 2 == 0
    if dtype is DataType.DATE:
        # Dates in 2009, the venue year: deterministic day within the year.
        day = index % 365
        month, dom = divmod(day, 31)
        return f"2009-{month % 12 + 1:02d}-{dom + 1:02d}"
    return f"{domain.name}#{index}"


@dataclass(frozen=True)
class TupleGenerator:
    """Generates the ranked result list of one simulated invocation."""

    interface: ServiceInterface
    global_seed: int = 0
    min_group_members: int = 1
    max_group_members: int = 3

    def result_size(self, rng: random.Random) -> int:
        """Invocation cardinality around the declared average.

        Selective services (average below one) return one tuple with the
        average as probability; proliferative ones draw uniformly within
        +/-25% of the average, at least one tuple.
        """
        avg = self.interface.stats.avg_cardinality
        if avg <= 0:
            return 0
        if avg < 1.0:
            return 1 if rng.random() < avg else 0
        spread = max(1, round(avg * 0.25))
        return max(1, round(avg) + rng.randint(-spread, spread))

    def generate(
        self,
        inputs: Mapping[str, Any],
        constraints: "Sequence[SelectionPredicate]" = (),
    ) -> list[ServiceTuple]:
        """Full ranked result list for one invocation (drains :meth:`stream`)."""
        return list(self.stream(inputs, constraints))

    def stream(
        self,
        inputs: Mapping[str, Any],
        constraints: "Sequence[SelectionPredicate]" = (),
    ) -> Iterator[ServiceTuple]:
        """The ranked result list of one invocation, one tuple per ``next``.

        ``constraints`` are input-side predicates the real service would
        apply server-side (e.g. "opening date after X" in a search form);
        generated tuples that fail their joint-witness evaluation are
        dropped and the survivors renumbered, preserving ranking order.

        Every tuple comes off one ``random.Random`` stream in rank order,
        so the n-th tuple is the same however far the list is read.
        Missing input bindings raise here, before the first ``next``.
        """
        missing = [p for p in self.interface.input_paths() if p not in inputs]
        if missing:
            raise ServiceInvocationError(
                f"{self.interface.name}: missing input bindings {missing}"
            )
        # Copies: the tuples are produced after this call returns.
        return self._stream(dict(inputs), tuple(constraints))

    def _stream(
        self,
        inputs: Mapping[str, Any],
        constraints: "Sequence[SelectionPredicate]",
    ) -> Iterator[ServiceTuple]:
        rng = random.Random(
            derive_seed(self.global_seed, self.interface.name, inputs)
        )
        passes = None
        if constraints:
            # Local import: the query layer depends on the model layer only,
            # so importing it here (rather than at module top) keeps the
            # services package importable from the query tests without a
            # cycle.
            from repro.query.predicates import compile_predicates

            passes = compile_predicates(constraints)
            alias = constraints[0].attr.alias
        total = self.result_size(rng)
        # Bound values are echoed into every tuple: frozen once, here.
        echo = {
            path: value
            if isinstance(value, (str, int, float, bool))
            else freeze_value(value)
            for path, value in inputs.items()
            if value is not None
        }
        draws = [(attr, bind(echo)) for attr, bind in self._program]
        name, score_at = self.interface.name, self.interface.scoring.score_at
        # Constraints shape the *data*, not the page size: a service asked
        # for "openings after X" still returns its usual result-list size,
        # every entry satisfying the constraint.  Rejection-sample until
        # `total` satisfying tuples exist (bounded attempts keep
        # unsatisfiable constraints from looping).
        position = attempts = 0
        max_attempts = max(20, total * 20)
        while position < total and attempts < max_attempts:
            attempts += 1
            candidate = ServiceTuple._frozen(
                values={attr: draw(rng) for attr, draw in draws},
                score=min(1.0, max(0.0, score_at(position))),
                source=name,
                position=position,
            )
            if passes is not None and not passes({alias: candidate}):
                continue
            position += 1
            yield candidate

    @cached_property
    def _program(self) -> tuple:
        """The mart lowered once: ``(attribute, bind)`` in declaration order;
        ``bind(echo)`` is the attribute's ``draw(rng)`` for one invocation.
        Draws consume the stream as one :func:`domain_value` per unbound
        (sub-)attribute would; values come out as :func:`freeze_value`'s."""
        return tuple(
            (
                attr.name,
                self._group_binder(attr)
                if isinstance(attr, RepeatingGroup)
                else partial(_bound_or, attr.name, _drawer(attr)),
            )
            for attr in self.interface.mart.attributes
        )

    def _group_binder(self, group: RepeatingGroup):
        """Members of one repeating group, echoing any bound sub-attributes.

        When a sub-attribute is an input (e.g. ``Genres.Genre``), the first
        member echoes the binding — the service was asked for objects whose
        group contains that value — and the remaining members are random.
        Drawn in declaration order, emitted as name-sorted pairs.
        """
        names = [sub.name for sub in group.sub_attributes]
        paths = [f"{group.name}.{name}" for name in names]
        drawers = [_drawer(sub) for sub in group.sub_attributes]
        order = sorted(range(len(names)), key=names.__getitem__)
        fixed = group.avg_members
        low, high = self.min_group_members, self.max_group_members

        def bind(echo: Mapping[str, Any]):
            first = [_bound_or(*pair, echo) for pair in zip(paths, drawers)]

            def draw(rng: random.Random) -> tuple:
                count = fixed if fixed is not None else rng.randint(low, high)
                members = []
                for index in range(count):
                    values = [d(rng) for d in (drawers if index else first)]
                    members.append(tuple([(names[i], values[i]) for i in order]))
                return tuple(members)

            return draw

        return bind


def _bound_or(path: str, draw, echo: Mapping[str, Any]):
    """``draw``, or the constant draw of the value ``echo`` binds ``path`` to."""
    return (lambda rng, value=echo[path]: value) if path in echo else draw


def _drawer(attribute: Attribute):
    """``rng -> domain_value(attribute, rng)``, the domain's dispatch resolved."""
    domain = attribute.domain
    size, dtype, prefix = domain.size or 1_000_000, domain.dtype, f"{domain.name}#"

    def draw_float(rng):
        rng.randrange(size)
        return round(rng.uniform(0.0, float(size)), 3)

    def draw_date(rng):
        month, dom = divmod(rng.randrange(size) % 365, 31)
        return f"2009-{month % 12 + 1:02d}-{dom + 1:02d}"

    return {
        DataType.INTEGER: lambda rng: rng.randrange(size),
        DataType.FLOAT: draw_float,
        DataType.BOOLEAN: lambda rng: rng.randrange(size) % 2 == 0,
        DataType.DATE: draw_date,
    }.get(dtype, lambda rng: f"{prefix}{rng.randrange(size)}")
