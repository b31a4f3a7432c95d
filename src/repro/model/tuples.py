"""Tuples, composite tuples, and the global ranking function.

A *service tuple* is one answer returned by a service call: a mapping from
attribute names to values, where repeating-group attributes map to a tuple
of sub-tuples (each a mapping of sub-attribute name to value).  Search
services attach a relevance ``score`` in ``[0, 1]`` and return tuples in
non-increasing score order.

A *composite tuple* ``t1 . t2 . ... . tn`` (Section 3.1) combines one tuple
per service atom of the query; its global score is the weighted sum of the
component scores under the query's :class:`RankingFunction`
(Section 3.1: ``w1*S1 + ... + wn*Sn``, with weight 0 for unranked services).
"""

from __future__ import annotations

from collections.abc import Mapping as AbstractMapping
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

from repro.errors import QueryError, SchemaError
from repro.model.scoring import fold

__all__ = ["ServiceTuple", "CompositeTuple", "RankingFunction", "freeze_value"]


#: Exact types that are already hashable values: returned as they are.
_SCALARS = frozenset((str, int, float, bool, type(None)))


def freeze_value(value: Any) -> Any:
    """Return a hashable version of a tuple value.

    Repeating-group values arrive as iterables of mappings; they are frozen
    into nested tuples so that :class:`ServiceTuple` instances can be hashed
    and deduplicated.
    """
    if type(value) in _SCALARS:
        return value
    # ``collections.abc.Mapping``: the ``typing`` alias routes every
    # isinstance through ``typing.__instancecheck__``.
    if isinstance(value, AbstractMapping):
        return tuple(sorted((k, freeze_value(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple, set)):
        return tuple(freeze_value(v) for v in value)
    return value


@dataclass(frozen=True)
class ServiceTuple:
    """One answer tuple produced by a service invocation.

    Parameters
    ----------
    values:
        Mapping of attribute name to value.  For a repeating group the value
        is a tuple of mappings (one per sub-tuple).
    score:
        Relevance score in ``[0, 1]``; exact services use a constant.
    source:
        Name of the service interface that produced the tuple.
    position:
        Zero-based global rank position within the service's result list.
    """

    values: Mapping[str, Any]
    score: float = 1.0
    source: str = ""
    position: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.score <= 1.0 + 1e-9:
            raise SchemaError(f"score {self.score} outside [0, 1]")
        frozen = {key: freeze_value(val) for key, val in dict(self.values).items()}
        object.__setattr__(self, "values", frozen)

    @classmethod
    def _frozen(cls, **fields: Any) -> "ServiceTuple":
        """Trusted constructor: adopts ``values``, which the caller built
        already in :func:`freeze_value`'s form, with ``score`` in range."""
        tup = object.__new__(cls)
        tup.__dict__.update(fields)
        return tup

    def __getstate__(self) -> dict[str, Any]:
        # Copies and pickles carry the fields, never the memos (``_hash``,
        # ``_lines``): a string hash is wrong in another process.
        return {name: self.__dict__[name] for name in self.__dataclass_fields__}

    def group_members(self, group: str) -> tuple[dict[str, Any], ...]:
        """The sub-tuples of repeating group ``group`` as dictionaries."""
        value = self.values.get(group)
        if value is None:
            raise QueryError(f"tuple from {self.source!r} has no group {group!r}")
        return tuple(dict(member) for member in value)

    def digest_line(self, alias: str) -> str:
        """``alias|`` then ``name=repr(value)`` per attribute, sorted by
        name, ``|``-joined: the tuple's line in a result digest under
        ``alias``, rendered once per alias and kept."""
        lines = self.__dict__.setdefault("_lines", {})
        if alias not in lines:
            lines[alias] = alias + "|" + "|".join(
                [f"{name}={value!r}" for name, value in sorted(self.values.items())]
            )
        return lines[alias]

    def __hash__(self) -> int:
        # Kept like ``_lines``: joins hash one tuple once per row it is in.
        memo = self.__dict__
        if "_hash" not in memo:
            items = tuple(sorted(self.values.items()))
            memo["_hash"] = hash((self.source, self.position, items))
        return memo["_hash"]


@dataclass(frozen=True)
class CompositeTuple:
    """A combination ``t1 . t2 . ... . tn`` of tuples, one per query alias."""

    components: Mapping[str, ServiceTuple]
    score: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "components", dict(self.components))

    @classmethod
    def _owned(cls, components: dict, score: float | None) -> "CompositeTuple":
        """Trusted constructor: adopts ``components`` without copying.  The
        executor leaves ``score`` ``None`` until something reads it."""
        row = object.__new__(cls)
        # Not via ``row.__dict__``: touching it costs every row a real dict.
        object.__setattr__(row, "components", components)
        object.__setattr__(row, "score", score)
        return row

    def component(self, alias: str) -> ServiceTuple:
        if alias not in self.components:
            raise QueryError(f"composite tuple has no component for alias {alias!r}")
        return self.components[alias]

    @property
    def aliases(self) -> tuple[str, ...]:
        return tuple(self.components)

    def __hash__(self) -> int:
        return hash(tuple(sorted((a, hash(t)) for a, t in self.components.items())))


@dataclass(frozen=True)
class RankingFunction:
    """Weighted-sum global ranking over component scores.

    Section 3.1: a query over ``s1..sn`` carries non-negative weights
    ``(w1, ..., wn)``; the score of a combination is ``sum(wi * Si)`` where
    ``Si`` is the component score.  Unranked services get weight 0.  Weights
    are normalised on construction so composite scores stay within [0, 1].
    """

    weights: Mapping[str, float] = field(default_factory=dict)
    normalise: bool = True

    def __post_init__(self) -> None:
        weights = dict(self.weights)
        for alias, weight in weights.items():
            if weight < 0:
                raise QueryError(f"negative ranking weight for {alias!r}")
        total = fold(weights.values())
        if self.normalise and total > 0:
            weights = {alias: w / total for alias, w in weights.items()}
        object.__setattr__(self, "weights", weights)

    def weight(self, alias: str) -> float:
        return self.weights.get(alias, 0.0)

    def score(self, component_scores: Mapping[str, float]) -> float:
        """Global score of a combination given per-alias component scores."""
        return fold(
            self.weight(alias) * score for alias, score in component_scores.items()
        )

    def score_composite(self, components: Mapping[str, ServiceTuple]) -> float:
        # :meth:`score`'s fold, inline, without the intermediate
        # ``{alias: score}`` dict and per-alias method call.
        weight = self.weights.get
        total = 0
        for alias, tup in components.items():
            total += weight(alias, 0.0) * tup.score
        return total

    def combine(self, components: Mapping[str, ServiceTuple]) -> CompositeTuple:
        """Build a scored :class:`CompositeTuple` from components."""
        return CompositeTuple(dict(components), self.score_composite(components))

    @classmethod
    def uniform(cls, aliases: Iterable[str]) -> "RankingFunction":
        """Equal weights over ``aliases``."""
        names = list(aliases)
        if not names:
            return cls({})
        return cls({alias: 1.0 for alias in names})
