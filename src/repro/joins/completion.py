"""Completion strategies: the order in which tiles are processed.

Orthogonal to the invocation strategy (which chunks get fetched when), the
completion strategy (Section 4.4) governs when a loaded tile is handed to
the join:

* **Rectangular** (4.4.1) — "processes all the tiles as soon as the
  corresponding tuples are available".  Locally extraction-optimal; with a
  nested loop whose step service drops from 1 to 0 exactly at chunk ``h``
  it is globally extraction-optimal.  Degenerates to "long and thin"
  rectangles (one new tile per I/O) when calls go to one service only.
* **Triangular** (4.4.2) — processes tiles "diagonally": a tile ``(x, y)``
  is admitted only when ``x*r2 + y*r1 < c``, where ``c`` starts at
  ``r1*r2`` and is progressively increased as exploration advances.  The
  cutoff here grows with fetch progress (``c = min(loaded_x*r2,
  loaded_y*r1)``), so corner tiles far from the diagonal stay deferred
  even though their chunks are loaded — which is what halves the processed
  candidate combinations in the Section 5.6 example (2500 → 1250).
  Locally extraction-optimal; matched with merge-scan it approximates a
  globally extraction-optimal strategy.

A :class:`TileScheduler` couples a completion policy with fetch events:
``on_fetch(axis)`` records one more chunk on that axis and returns the
tiles that became processable, in processing order.  ``flush()`` drains
deferred tiles when the join must run to completion.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import PlanError
from repro.joins.searchspace import Tile
from repro.joins.strategies import Axis

__all__ = [
    "CompletionPolicy",
    "RectangularCompletion",
    "TriangularCompletion",
    "TileScheduler",
]


class CompletionPolicy:
    """Base class: decide which loaded tiles to process, and in what order.

    When :attr:`space` is attached (executors do so automatically), batches
    are ordered by descending representative score, which is what makes
    both strategies *locally extraction-optimal* as claimed in Section 4.4;
    without a space a purely geometric diagonal order is used.
    """

    #: Search-space geometry/scoring; set by executors for score ordering.
    space: "object | None" = None

    def admissible(
        self, pending: list[Tile], loaded_x: int, loaded_y: int
    ) -> list[Tile]:
        """Subset of ``pending`` to process now, in processing order.

        ``pending`` holds loaded-but-unprocessed tiles, in no particular
        order.  Policies may defer tiles (triangular); :meth:`relax_to_next`
        is called by the scheduler's flush to widen the admission bound
        until everything drains.
        """
        raise NotImplementedError

    def relax(self) -> None:
        """Widen the admission bound one step (used to drain deferred tiles)."""

    def relax_to_next(
        self, pending: list[Tile], loaded_x: int, loaded_y: int
    ) -> None:
        """Widen the bound after a drain admitted none of ``pending``.

        The default takes one :meth:`relax` step; the scheduler calls again
        until a batch is admitted.
        """
        self.relax()

    def order_batch(self, tiles: list[Tile], geometric_key) -> list[Tile]:
        """Order one admitted batch: by score when possible, else geometry."""
        space = self.space
        if space is not None:
            return sorted(
                tiles,
                key=lambda t: (
                    -space.representative_score(t),  # type: ignore[attr-defined]
                    t.index_sum,
                    t.x,
                ),
            )
        return sorted(tiles, key=geometric_key)


@dataclass
class RectangularCompletion(CompletionPolicy):
    """Process every loaded tile immediately, best-first within a batch.

    When one fetch completes several tiles at once (a new column or row),
    the batch is ordered by representative score (falling back to index
    sum), which keeps the strategy locally extraction-optimal.
    """

    space: "object | None" = None

    def admissible(
        self, pending: list[Tile], loaded_x: int, loaded_y: int
    ) -> list[Tile]:
        return self.order_batch(list(pending), lambda t: (t.index_sum, t.x))


@dataclass
class TriangularCompletion(CompletionPolicy):
    """Diagonal processing bounded by ``x*r2 + y*r1 < c``.

    The cutoff ``c`` tracks exploration progress:
    ``c = max(r1*r2, min(loaded_x*r2, loaded_y*r1)) + slack`` where
    ``slack`` starts at 0 and is raised only when a flush relaxes the bound
    (end-of-input draining).  At ratio 1/1 this admits, after ``n``
    balanced rounds, exactly the triangle ``x + y < n`` — about half of
    the loaded square.
    """

    r1: int = 1
    r2: int = 1
    slack: int = 0
    space: "object | None" = None

    def __post_init__(self) -> None:
        if self.r1 <= 0 or self.r2 <= 0:
            raise PlanError("triangular ratio components must be positive")
        if self.slack < 0:
            raise PlanError("slack cannot be negative")

    def weight(self, tile: Tile) -> int:
        return tile.x * self.r2 + tile.y * self.r1

    def cutoff(self, loaded_x: int, loaded_y: int) -> int:
        base = min(loaded_x * self.r2, loaded_y * self.r1)
        return max(self.r1 * self.r2, base) + self.slack

    def admissible(
        self, pending: list[Tile], loaded_x: int, loaded_y: int
    ) -> list[Tile]:
        cutoff = self.cutoff(loaded_x, loaded_y)
        admitted = [t for t in pending if self.weight(t) < cutoff]
        return self.order_batch(
            admitted, lambda t: (self.weight(t), t.index_sum, t.x)
        )

    def relax(self) -> None:
        self.slack += 1

    def relax_to_next(
        self, pending: list[Tile], loaded_x: int, loaded_y: int
    ) -> None:
        """Jump to the lightest pending weight: the same batch and final
        ``slack`` that unit :meth:`relax` steps reach, in one step."""
        lightest = min(self.weight(t) for t in pending)
        self.slack += max(1, lightest + 1 - self.cutoff(loaded_x, loaded_y))


@dataclass
class TileScheduler:
    """Couples fetch events with a completion policy.

    Tracks loaded chunk counts per axis and the processed-tile set;
    :meth:`on_fetch` returns tiles newly handed to the join, in order.
    The full processing trace (:attr:`processed`) is kept for
    extraction-optimality analysis.

    The loaded-but-unprocessed tiles are kept as a frontier list: a fetch
    appends only the row or column of tiles it adds, and a drain removes
    the admitted batch, so each fetch costs the new tiles plus the pending
    ones, never the whole loaded rectangle.  Every built-in policy sorts
    its batch by a total key, so the frontier's order does not matter.
    """

    policy: CompletionPolicy
    loaded_x: int = 0
    loaded_y: int = 0
    processed: list[Tile] = field(default_factory=list)
    _processed_set: set[Tile] = field(default_factory=set)
    _pending: list[Tile] = field(default_factory=list)

    def on_fetch(self, axis: Axis) -> list[Tile]:
        """Record one fetched chunk on ``axis``; return tiles to process."""
        if axis is Axis.X:
            x = self.loaded_x
            self.loaded_x += 1
            self._pending.extend(Tile(x, y) for y in range(self.loaded_y))
        else:
            y = self.loaded_y
            self.loaded_y += 1
            self._pending.extend(Tile(x, y) for x in range(self.loaded_x))
        return self._drain()

    def flush(self) -> list[Tile]:
        """Process every remaining loaded tile (end-of-input draining).

        Relaxes the policy whenever a drain admits nothing, until the
        pending set drains; with rectangular completion a single drain
        suffices, and triangular completion admits a batch per relaxation.
        """
        out: list[Tile] = []
        guard = 0
        while self._pending:
            batch = self._drain()
            if batch:
                out.extend(batch)
                guard = 0
                continue
            self.policy.relax_to_next(self._pending, self.loaded_x, self.loaded_y)
            guard += 1
            if guard > 10_000:  # pragma: no cover - defensive
                raise PlanError("completion policy failed to drain pending tiles")
        return out

    @property
    def pending_count(self) -> int:
        return len(self._pending)

    def _drain(self) -> list[Tile]:
        pending = self._pending
        if not pending:
            return []
        batch = self.policy.admissible(pending, self.loaded_x, self.loaded_y)
        if not batch:
            return []
        processed = self._processed_set
        for tile in batch:
            if tile in processed:
                raise PlanError(f"policy re-admitted processed tile {tile}")
            processed.add(tile)
        self.processed.extend(batch)
        self._pending = [t for t in pending if t not in processed]
        return list(batch)
