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
import operator
import random
from dataclasses import dataclass
from functools import cached_property, partial
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Iterable,
    Iterator,
    Mapping,
    Sequence,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.query.ast import SelectionPredicate

from repro.errors import ServiceInvocationError
from repro.model.attributes import Attribute, DataType, RepeatingGroup
from repro.model.service import ServiceInterface
from repro.model.tuples import ServiceTuple, freeze_value

__all__ = ["derive_seed", "domain_value", "TupleGenerator", "WorldStats"]


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


@dataclass
class WorldStats:
    """What one simulated world has generated so far (monotone counters).

    Deterministic for a given request stream, so reports may carry them;
    nothing here feeds back into generation.
    """

    #: Distinct (bindings, constraints, availability) result lists opened.
    result_lists_opened: int = 0
    #: Tuples drawn into some result list (each is generated once).
    tuples_generated: int = 0
    #: Tuples a pool read for the first time from a prefix that an
    #: invocation of *another* pool had already generated.
    tuples_shared: int = 0
    #: Candidates the server-side constraints refused.
    candidates_rejected: int = 0
    #: Constrained streams checked by the general predicate closure because
    #: the layout check could not be shown exact when the stream opened.
    fallback_checks: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "result_lists_opened": self.result_lists_opened,
            "tuples_generated": self.tuples_generated,
            "tuples_shared": self.tuples_shared,
            "sampling_attempts": self.tuples_generated + self.candidates_rejected,
            "fallback_checks": self.fallback_checks,
        }

    @staticmethod
    def total(parts: Iterable[Mapping[str, int]]) -> dict[str, int]:
        """The sum of several worlds' :meth:`as_dict` counters."""
        total = WorldStats().as_dict()
        for part in parts:
            for name, value in part.items():
                total[name] += value
        return total


#: ``domain_value``'s dates, by ``index % 365``.
_DATES = tuple(
    f"2009-{day // 31 % 12 + 1:02d}-{day % 31 + 1:02d}" for day in range(365)
)
#: Largest sized domain whose labels are kept in a table.
_TABLE_MAX = 1024
#: ``Comparator.value`` -> what it applies to two non-``None`` operands.
_COMPARE = {
    "=": operator.eq,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}
#: Constant types a lowered constraint may compare (exact types: nothing
#: here can raise from ``==`` or, within one class, from an ordering).
_PLAIN = frozenset((str, int, float, bool))


class _Labels(dict):
    """``index -> f"{prefix}{index}"``, rendered on first use: tuples of one
    world share the label objects of a small domain."""

    def __init__(self, prefix: str) -> None:
        self.prefix = prefix

    def __missing__(self, index: int) -> str:
        label = self[index] = f"{self.prefix}{index}"
        return label


@dataclass(frozen=True)
class TupleGenerator:
    """Generates the ranked result list of one simulated invocation."""

    interface: ServiceInterface
    global_seed: int = 0
    min_group_members: int = 1
    max_group_members: int = 3

    def __post_init__(self) -> None:
        if self.max_group_members < self.min_group_members:
            raise ServiceInvocationError(
                f"{self.interface.name}: group member bounds "
                f"[{self.min_group_members}, {self.max_group_members}] are empty"
            )

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
        stats: WorldStats | None = None,
    ) -> Iterator[ServiceTuple]:
        """The ranked result list of one invocation, one tuple per ``next``.

        ``constraints`` are input-side predicates the real service would
        apply server-side (e.g. "opening date after X" in a search form);
        generated tuples that fail their joint-witness evaluation are
        dropped and the survivors renumbered, preserving ranking order.

        Every tuple comes off one ``random.Random`` stream in rank order,
        so the n-th tuple is the same however far the list is read.
        Missing input bindings raise here, before the first ``next``.
        ``stats`` counts refused candidates and fallback checks.
        """
        missing = [p for p in self.interface.input_paths() if p not in inputs]
        if missing:
            raise ServiceInvocationError(
                f"{self.interface.name}: missing input bindings {missing}"
            )
        # Copies: the tuples are produced after this call returns.
        return self._stream(
            dict(inputs),
            tuple(constraints),
            WorldStats() if stats is None else stats,
        )

    def _stream(
        self,
        inputs: Mapping[str, Any],
        constraints: "Sequence[SelectionPredicate]",
        stats: WorldStats,
    ) -> Iterator[ServiceTuple]:
        rng = random.Random(
            derive_seed(self.global_seed, self.interface.name, inputs)
        )
        # The program draws through the stream's own two primitives.
        bits, unit = rng.getrandbits, rng.random
        program = self._program
        total = program.size(bits, unit)
        echo = _echo(inputs)
        draws = list(program.draws)
        for path in echo:
            index = program.owner.get(path)
            if index is not None:
                draws[index] = (draws[index][0], program.binders[index](echo))
        check = None
        if constraints:
            check, lowered = self.constraint_check(constraints, echo)
            if not lowered:
                stats.fallback_checks += 1
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
            values = {attr: draw(bits, unit) for attr, draw in draws}
            if check is not None and not check(values):
                stats.candidates_rejected += 1
                continue
            yield ServiceTuple._frozen(
                values=values,
                score=min(1.0, max(0.0, score_at(position))),
                source=name,
                position=position,
            )
            position += 1

    def constraint_check(
        self,
        constraints: "Sequence[SelectionPredicate]",
        echo: Mapping[str, Any],
    ) -> tuple[Callable[[dict], bool], bool]:
        """``(check, lowered)`` for one stream: ``check(values)`` is the
        joint-witness evaluation of ``constraints`` on a candidate's value
        dict, before any tuple is built.

        Lowered against the mart's frozen layout when that is provably what
        :func:`~repro.query.predicates.compile_predicates` computes: with
        one alias and no join, a joint witness exists iff every atomic
        term holds and each repeating group has *one* member satisfying
        all of its terms, and nothing can raise once every operand is a
        plain constant of the class (text / number) its path's values
        have.  Otherwise — another alias, an unknown path, an ``INPUT`` or
        exotic operand, an ordering across classes (echoed bindings
        included) — ``check`` is that general closure on a throwaway tuple,
        raising what it raises (``lowered`` is then false).
        """
        lowered = self._lowered_check(constraints, echo)
        if lowered is not None:
            return lowered, True
        # Local import: the query layer depends on the model layer only,
        # so importing it here (rather than at module top) keeps the
        # services package importable from the query tests without a cycle.
        from repro.query.predicates import compile_predicates

        general = compile_predicates(constraints)
        alias, name = constraints[0].attr.alias, self.interface.name
        frozen = ServiceTuple._frozen
        return (
            lambda values: general(
                {alias: frozen(values=values, score=0.0, source=name, position=0)}
            ),
            False,
        )

    def _lowered_check(
        self,
        constraints: "Sequence[SelectionPredicate]",
        echo: Mapping[str, Any],
    ) -> Callable[[dict], bool] | None:
        layout = self._program.layout
        atomic: list[tuple] = []
        grouped: dict[str, list[tuple]] = {}
        alias = constraints[0].attr.alias
        for constraint in constraints:
            path, operand = constraint.attr.path, constraint.operand
            slot = layout.get((path.group, path.name))
            if (
                slot is None
                or constraint.attr.alias != alias
                or type(operand) not in _PLAIN
            ):
                return None
            position, textual = slot
            apply = _COMPARE.get(constraint.comparator.value)
            if apply is None:
                apply = constraint.comparator.apply  # LIKE: str() both sides
            elif apply is not operator.eq:
                # An ordering raises across classes; an echoed binding
                # need not be of its domain's class.
                classes = {textual}
                if str(path) in echo:
                    bound = echo[str(path)]
                    classes.add(
                        isinstance(bound, str) if type(bound) in _PLAIN else None
                    )
                if classes != {isinstance(operand, str)}:
                    return None
            if position is None:
                atomic.append((path.name, apply, operand))
            else:
                grouped.setdefault(path.group, []).append((position, apply, operand))
        groups = tuple(grouped.items())

        def check(values: Mapping[str, Any]) -> bool:
            for name, apply, operand in atomic:
                if not apply(values[name], operand):
                    return False
            for group, terms in groups:
                for member in values[group]:
                    for position, apply, operand in terms:
                        if not apply(member[position][1], operand):
                            break
                    else:
                        break  # this member is the group's witness
                else:
                    return False
            return True

        return check

    @cached_property
    def _program(self) -> "_Program":
        """The mart lowered once per generator (see :class:`_Program`)."""
        draws, binders, owner, layout = [], [], {}, {}
        tables: dict[str, _Labels] = {}
        for index, attr in enumerate(self.interface.mart.attributes):
            if isinstance(attr, RepeatingGroup):
                names = sorted(sub.name for sub in attr.sub_attributes)
                for sub in attr.sub_attributes:
                    owner[f"{attr.name}.{sub.name}"] = index
                    layout[attr.name, sub.name] = (
                        names.index(sub.name), _is_textual(sub),
                    )
                bind = self._group_binder(attr, tables)
                draw = bind({})
            else:
                owner[attr.name] = index
                layout[None, attr.name] = (None, _is_textual(attr))
                bind = partial(_echoed, attr.name)
                draw = _drawer(attr, tables)
            draws.append((attr.name, draw))
            binders.append(bind)
        return _Program(
            tuple(draws), tuple(binders), owner, layout, self._size_drawer()
        )

    def _size_drawer(self):
        """Invocation cardinality around the declared average, drawn on the
        stream's primitives.

        Selective services (average below one) return one tuple with the
        average as probability; proliferative ones draw uniformly within
        +/-25% of the average, at least one tuple.
        """
        avg = self.interface.stats.avg_cardinality
        if avg <= 0:
            return lambda bits, unit: 0
        if avg < 1.0:
            return lambda bits, unit: 1 if unit() < avg else 0
        spread = max(1, round(avg * 0.25))
        low, below = round(avg) - spread, _below(2 * spread + 1)
        return lambda bits, unit: max(1, low + below(bits, unit))

    def _group_binder(self, group: RepeatingGroup, tables: dict):
        """Members of one repeating group, echoing any bound sub-attributes.

        When a sub-attribute is an input (e.g. ``Genres.Genre``), the first
        member echoes the binding — the service was asked for objects whose
        group contains that value — and the remaining members are random.
        Drawn in declaration order, emitted as name-sorted pairs.
        """
        names = [sub.name for sub in group.sub_attributes]
        paths = [f"{group.name}.{name}" for name in names]
        drawers = [_drawer(sub, tables) for sub in group.sub_attributes]
        rest = _member(names, drawers)
        fixed = group.avg_members
        low = self.min_group_members
        extra = _below(self.max_group_members - low + 1)

        def bind(echo: Mapping[str, Any]):
            head = rest
            if not echo.keys().isdisjoint(paths):
                head = _member(
                    names,
                    [
                        _echoed(path, echo) if path in echo else drawer
                        for path, drawer in zip(paths, drawers)
                    ],
                )
            if fixed == 2:  # the schemas' usual pin: no loop, no list
                return lambda bits, unit: (head(bits, unit), rest(bits, unit))

            def draw(bits, unit) -> tuple:
                count = fixed if fixed is not None else low + extra(bits, unit)
                if count < 1:
                    return ()
                members = [head(bits, unit)]
                for _ in range(count - 1):
                    members.append(rest(bits, unit))
                return tuple(members)

            return draw

        return bind


@dataclass(frozen=True)
class _Program:
    """One interface's mart, lowered for :meth:`TupleGenerator._stream`.

    Every draw is ``draw(bits, unit)`` over a stream's own ``getrandbits``
    and ``random``: it consumes the stream exactly as one
    :func:`domain_value` per unbound (sub-)attribute would (``randrange``
    is CPython's ``_randbelow`` rejection loop over ``getrandbits(k)``,
    ``uniform(0, b)`` is ``b * random()``), and values come out in
    :func:`freeze_value`'s form.
    """

    #: ``(attribute, draw)`` in declaration order, nothing bound.
    draws: tuple
    #: Per attribute: ``bind(echo) -> draw`` echoing the bound (sub-)paths.
    binders: tuple
    #: Input path -> index of the attribute that echoes it.
    owner: dict
    #: ``(group | None, name) -> (position of the sub-attribute in a frozen
    #: member's name-sorted pairs | None, are its drawn values text?)``.
    layout: dict
    #: ``size(bits, unit)``: the invocation's cardinality draw.
    size: Callable


def _echo(inputs: Mapping[str, Any]) -> dict[str, Any]:
    """The bound values a stream echoes into every tuple, frozen once
    (a ``None`` binding is "no preference": drawn, not echoed)."""
    return {
        path: value
        if isinstance(value, (str, int, float, bool))
        else freeze_value(value)
        for path, value in inputs.items()
        if value is not None
    }


def _echoed(path: str, echo: Mapping[str, Any]):
    """The constant draw of the value ``echo`` binds ``path`` to."""
    return lambda bits, unit, value=echo[path]: value


def _member(names: Sequence[str], drawers: Sequence[Callable]):
    """``(bits, unit) -> `` one frozen group member: values drawn in
    declaration order, listed as name-sorted ``(name, value)`` pairs."""
    if len(names) == 1:
        (name,), (draw,) = names, drawers
        return lambda bits, unit: ((name, draw(bits, unit)),)
    if len(names) == 2:
        (a, b), (draw_a, draw_b) = names, drawers
        if a < b:
            return lambda bits, unit: ((a, draw_a(bits, unit)), (b, draw_b(bits, unit)))

        def swapped(bits, unit):
            value = draw_a(bits, unit)
            return ((b, draw_b(bits, unit)), (a, value))

        return swapped
    order = sorted(range(len(names)), key=names.__getitem__)
    listed = [names[i] for i in order]

    def member(bits, unit):
        values = [draw(bits, unit) for draw in drawers]
        return tuple(zip(listed, map(values.__getitem__, order)))

    return member


def _is_textual(attribute: Attribute) -> bool:
    """Whether the attribute's drawn values are ``str`` (else numbers)."""
    return attribute.domain.dtype not in (
        DataType.INTEGER, DataType.FLOAT, DataType.BOOLEAN,
    )


def _below(n: int):
    """``(bits, unit) -> rng.randrange(n)``, as CPython draws it."""
    k = n.bit_length()

    def below(bits, unit):
        r = bits(k)
        while r >= n:
            r = bits(k)
        return r

    return below


def _drawer(attribute: Attribute, tables: dict):
    """``(bits, unit) -> domain_value(attribute, rng)``, the domain's
    dispatch resolved and the index draw inlined into each variant."""
    domain = attribute.domain
    n, dtype = domain.size or 1_000_000, domain.dtype
    k = n.bit_length()
    if dtype is DataType.INTEGER:
        return _below(n)
    if dtype is DataType.FLOAT:
        span = float(n)

        def draw(bits, unit):
            r = bits(k)
            while r >= n:
                r = bits(k)
            return round(span * unit(), 3)

    elif dtype is DataType.BOOLEAN:

        def draw(bits, unit):
            r = bits(k)
            while r >= n:
                r = bits(k)
            return r % 2 == 0

    elif dtype is DataType.DATE:

        def draw(bits, unit):
            r = bits(k)
            while r >= n:
                r = bits(k)
            return _DATES[r % 365]

    elif n <= _TABLE_MAX:
        labels = tables.setdefault(domain.name, _Labels(f"{domain.name}#"))

        def draw(bits, unit):
            r = bits(k)
            while r >= n:
                r = bits(k)
            return labels[r]

    else:
        prefix = f"{domain.name}#"

        def draw(bits, unit):
            r = bits(k)
            while r >= n:
                r = bits(k)
            return f"{prefix}{r}"

    return draw
