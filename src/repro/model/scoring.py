"""Scoring-function models for search services.

Section 4.1 of the chapter classifies search services by the *shape* of
their scoring function, i.e. how the relevance score decays along the
ranked result list:

* **Step scoring** — scores stay high for the first ``h`` chunks, then drop
  sharply.  The nested-loop invocation strategy is designed for this shape:
  it pays to exhaust the ``h`` high-score chunks of the step service first.
* **Progressive scoring** — scores decay smoothly (linearly, polynomially,
  or exponentially) with no step.  Merge-scan is the indicated strategy.

The scoring function maps a zero-based *rank position* to a score in
``[0, 1]``.  The same object drives both the synthetic data generator
(scores attached to generated tuples) and the optimizer's strategy choice
(`suggests_nested_loop`).  Opaque rankings (Section 3.1, footnote 3) are
modelled by :class:`OpaqueScoring`, which still decays monotonically but
does not expose its parameters to the optimizer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from repro.errors import SchemaError

__all__ = [
    "fold",
    "ScoringFunction",
    "StepScoring",
    "LinearScoring",
    "PowerLawScoring",
    "ExponentialScoring",
    "ConstantScoring",
    "OpaqueScoring",
]


def fold(terms: Iterable[float], start: float = 0) -> float:
    """The score rule: ``start + t1 + t2 + ...``, left to right — builtin
    ``sum`` before Python 3.12, which compensates floats.  It composes,
    ``fold(a + b) == fold(b, fold(a))``: a row's score is its upstream
    prefix's plus its own terms.  Hot loops inline it (``total += w * s``).
    """
    total = start
    for term in terms:
        total += term
    return total


class ScoringFunction:
    """Base class: maps rank positions to monotonically non-increasing scores."""

    #: Whether the optimizer may rely on a sharp step at :attr:`step_chunks`.
    has_step: bool = False

    def score_at(self, position: int) -> float:
        """Score of the tuple at zero-based rank ``position``, in ``[0, 1]``."""
        raise NotImplementedError

    def chunk_representative(self, chunk_index: int, chunk_size: int) -> float:
        """Score representing a whole chunk: the score of its first tuple.

        Section 4.1 extends extraction-optimality from tuples to tiles "by
        using the ranking of the first tuple of the tile as representative
        for the entire tile"; the per-service analogue is the first tuple of
        the chunk.
        """
        return self.score_at(chunk_index * chunk_size)

    def validate_monotone(self, positions: int = 256) -> bool:
        """Check non-increasing scores over a prefix; used by tests."""
        scores = [self.score_at(i) for i in range(positions)]
        return all(a >= b - 1e-12 for a, b in zip(scores, scores[1:]))


@dataclass(frozen=True)
class StepScoring(ScoringFunction):
    """Step-shaped decay: ``high`` until position ``step_position``, then ``low``.

    Parameters
    ----------
    step_position:
        Zero-based position of the first *low* tuple.  With chunk size ``c``
        the service exhibits its step after ``h = ceil(step_position / c)``
        chunks — the ``h`` of Section 4.1.
    high, low:
        Plateau scores before and after the step.  Within each plateau a
        slight linear decay (of total amplitude ``slope``) keeps the ranking
        strict, which matters for extraction-optimality checks.
    """

    step_position: int
    high: float = 0.95
    low: float = 0.05
    slope: float = 0.04

    has_step = True

    def __post_init__(self) -> None:
        if self.step_position <= 0:
            raise SchemaError("step_position must be positive")
        if not 0.0 <= self.low <= self.high <= 1.0:
            raise SchemaError("require 0 <= low <= high <= 1")

    def score_at(self, position: int) -> float:
        if position < self.step_position:
            frac = position / max(self.step_position, 1)
            return self.high - self.slope * frac
        # Past the step: decay from `low` towards zero.
        tail = position - self.step_position
        return self.low / (1.0 + tail)

    def step_chunks(self, chunk_size: int) -> int:
        """Number of chunks ``h`` covering the high-score plateau."""
        if chunk_size <= 0:
            raise SchemaError("chunk_size must be positive")
        return max(1, math.ceil(self.step_position / chunk_size))


@dataclass(frozen=True)
class LinearScoring(ScoringFunction):
    """Linear decay from ``top`` to ``bottom`` over ``horizon`` positions."""

    horizon: int = 1000
    top: float = 1.0
    bottom: float = 0.0

    def __post_init__(self) -> None:
        if self.horizon <= 0:
            raise SchemaError("horizon must be positive")
        if not 0.0 <= self.bottom <= self.top <= 1.0:
            raise SchemaError("require 0 <= bottom <= top <= 1")

    def score_at(self, position: int) -> float:
        if position >= self.horizon:
            return self.bottom
        frac = position / self.horizon
        return self.top - (self.top - self.bottom) * frac


@dataclass(frozen=True)
class PowerLawScoring(ScoringFunction):
    """Power-law decay ``top / (1 + position) ** exponent``.

    Models the heavy-tailed relevance profiles typical of web search
    engines: a few highly relevant hits followed by a long tail.
    """

    exponent: float = 0.5
    top: float = 1.0

    def __post_init__(self) -> None:
        if self.exponent <= 0:
            raise SchemaError("exponent must be positive")
        if not 0.0 < self.top <= 1.0:
            raise SchemaError("require 0 < top <= 1")

    def score_at(self, position: int) -> float:
        return self.top / float(1 + position) ** self.exponent


@dataclass(frozen=True)
class ExponentialScoring(ScoringFunction):
    """Exponential decay ``top * exp(-rate * position)``."""

    rate: float = 0.05
    top: float = 1.0

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise SchemaError("rate must be positive")
        if not 0.0 < self.top <= 1.0:
            raise SchemaError("require 0 < top <= 1")

    def score_at(self, position: int) -> float:
        return self.top * math.exp(-self.rate * position)


@dataclass(frozen=True)
class ConstantScoring(ScoringFunction):
    """Fixed score, used for *unranked* (exact) services.

    Section 3.1: "if [the service] is unranked, the scoring function is a
    fixed constant" and its weight in the ranking function is zero.
    """

    value: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.value <= 1.0:
            raise SchemaError("constant score must lie in [0, 1]")

    def score_at(self, position: int) -> float:
        return self.value


@dataclass(frozen=True)
class OpaqueScoring(ScoringFunction):
    """A ranking whose functional form is hidden from the optimizer.

    The service still returns results in ranking order (the chapter's basic
    assumption holds) but the optimizer cannot classify it as step or
    progressive, so strategy selection must fall back to merge-scan.  The
    wrapped function supplies the actual scores for the simulator; per
    footnote 3, positions can be translated into ``[0, 1]`` scores.
    """

    hidden: ScoringFunction

    def score_at(self, position: int) -> float:
        return self.hidden.score_at(position)
