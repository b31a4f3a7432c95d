"""Extraction-optimality analysis (Section 4.1).

A join strategy is **extraction-optimal** when it produces result elements
in decreasing order of the product of the two rankings ``rho_X * rho_Y``,
at minimum cost.  The notion "extends from tuples to tiles by using the
ranking of the first tuple of the tile as representative for the entire
tile", and can be read

* in the **global** sense — relative to *all* tiles of the search space: a
  trace is globally extraction-optimal when it enumerates tiles exactly in
  descending representative-score order over the whole (bounded) space;
* in the **local** sense — relative to the tiles *already loaded*: each
  processed tile must carry the best representative score among the
  loaded-but-unprocessed tiles at the moment of processing.

The analysers below replay an executor event log (fetch/process events)
against a :class:`~repro.joins.searchspace.SearchSpace`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Literal, Sequence

from repro.joins.searchspace import SearchSpace, Tile
from repro.joins.strategies import Axis

__all__ = [
    "JoinEvent",
    "is_globally_extraction_optimal",
    "count_local_violations",
    "adjacency_rule_holds",
]

_EPS = 1e-9


@dataclass(frozen=True)
class JoinEvent:
    """One executor event: a chunk fetch or a tile processing step."""

    kind: Literal["fetch", "process"]
    axis: Axis | None = None
    tile: Tile | None = None

    @classmethod
    def fetch(cls, axis: Axis) -> "JoinEvent":
        return cls("fetch", axis=axis)

    @classmethod
    def process(cls, tile: Tile) -> "JoinEvent":
        return cls("process", tile=tile)


def is_globally_extraction_optimal(
    trace: Sequence[Tile],
    space: SearchSpace,
    total_x: int,
    total_y: int,
) -> bool:
    """Is ``trace`` a prefix of the global descending-score tile order?

    ``total_x``/``total_y`` bound the full search space in chunks.  Ties in
    representative score may be broken arbitrarily, so the check compares
    score sequences, not tile identities.
    """
    all_tiles = [Tile(x, y) for x in range(total_x) for y in range(total_y)]
    if len(trace) > len(all_tiles):
        return False
    ideal = sorted(
        (space.representative_score(t) for t in all_tiles), reverse=True
    )
    actual = [space.representative_score(t) for t in trace]
    return all(abs(a - b) <= _EPS for a, b in zip(actual, ideal))


def count_local_violations(
    events: Iterable[JoinEvent], space: SearchSpace
) -> int:
    """Count processing steps that violate *local* extraction-optimality.

    Replays the event log: at each ``process`` event the processed tile
    must have the maximum representative score among loaded-unprocessed
    tiles.  Returns the number of violating steps (0 means the trace is
    locally extraction-optimal).
    """
    loaded_x = 0
    loaded_y = 0
    processed: set[Tile] = set()
    # Loaded-but-unprocessed tiles and their representative scores; a
    # fetch adds only its new row or column, as the tile scheduler does.
    pending: dict[Tile, float] = {}
    violations = 0
    for event in events:
        if event.kind == "fetch":
            assert event.axis is not None
            if event.axis is Axis.X:
                added = [Tile(loaded_x, y) for y in range(loaded_y)]
                loaded_x += 1
            else:
                added = [Tile(x, loaded_y) for x in range(loaded_x)]
                loaded_y += 1
            for t in added:
                if t not in processed:
                    pending[t] = space.representative_score(t)
            continue
        tile = event.tile
        assert tile is not None
        if pending:
            best = max(pending.values())
            if space.representative_score(tile) < best - _EPS:
                violations += 1
        processed.add(tile)
        pending.pop(tile, None)
    return violations


def adjacency_rule_holds(trace: Sequence[Tile]) -> bool:
    """Check Section 4.1's adjacency rule over a processing trace.

    "If two tiles are adjacent, then the one with smaller index sum is
    extracted first by extraction-optimal methods."  Returns True when no
    adjacent pair appears in the trace with the larger index sum first.
    Adjacent index sums differ by one, so each tile is checked against its
    two neighbours of larger sum only.
    """
    position = {tile: i for i, tile in enumerate(trace)}
    for tile, pos in position.items():
        for later in (Tile(tile.x + 1, tile.y), Tile(tile.x, tile.y + 1)):
            if position.get(later, pos) < pos:
                return False
    return True
