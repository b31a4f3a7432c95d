"""Worst-case-optimal multiway join kernel (Leapfrog Triejoin style).

The engine's binary-cascade joins (hash-indexed since PR 2) materialize
every intermediate relation, which blows up on the cyclic / multi-
predicate topologies search-computing queries naturally produce: a
triangle ``R(a,b) |><| S(b,c) |><| T(c,a)`` pays for ``|R |><| S|``
pairs even when the closed triangle count is tiny.  This module adds the
worst-case-optimal alternative (Veldhuizen 2012): sorted **trie
iterators** over each relation's tuples, one trie level per join
variable, intersected level-by-level with **leapfrog** seeks.  The
frontier of a leapfrog join is one key per iterator — no intermediate
relation ever exists — and the number of seeks is bounded by the
AGM-optimal worst case.

Building blocks
---------------
``Relation``
    An alias plus its ranked :class:`~repro.model.tuples.ServiceTuple`
    buffer (drainable from a :class:`~repro.joins.methods.ChunkSource`,
    remembering each tuple's chunk for tile-level accounting).
``JoinGraph``
    Equality predicates over aliases; union-find collapses transitively
    equal attribute occurrences into *join variables* and fixes a
    deterministic global variable order (highest degree first).
``TrieIterator``
    Array-backed sorted trie over one relation: ``open``/``up``/
    ``next``/``seek`` over distinct key prefixes, groups of tuples at
    the leaves.  Values order through :func:`orderable_key`, a total
    order over heterogeneous frozen values.
``MultiwayJoinExecutor``
    The leapfrog triejoin itself; enumerates the full join with
    ``pairs_probed``-style accounting and zero intermediate
    materialization, then finalizes deterministically.
``BinaryCascadeExecutor``
    The baseline it is benchmarked against: left-deep hash-join
    cascade materializing every intermediate, counting the pairs it
    forms.

Determinism contract (shared with ``joins/ranked.py`` and
``joins/topk.py``): every kernel scores components by
:func:`score_components`' fold (alias-sorted, so float addition
associates identically) and finalizes through
:func:`finalize_rows` (sort by ``(-score, canonical_row_key)``, cut to
``k``) — equal-score rows therefore enumerate in the same order under
every kernel, and top-k outputs are byte-identical across kernels.

A join row's life in the two full-enumeration kernels: a tuple of
components until the cut; scored as a tuple; a :class:`JoinedRow`, with
its canonical key, only if its score is at or above the k-th best.
"""

from __future__ import annotations

import heapq
import itertools
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Any, Callable, Collection, Iterable, Mapping, Sequence

from repro.errors import ExecutionError
from repro.joins.methods import ChunkSource
from repro.model.scoring import fold
from repro.model.tuples import RankingFunction, ServiceTuple

__all__ = [
    "BinaryCascadeExecutor",
    "EquiPredicate",
    "JoinGraph",
    "JoinedRow",
    "MultiwayJoinExecutor",
    "MultiwayJoinResult",
    "MultiwayJoinStatistics",
    "Relation",
    "TrieIterator",
    "canonical_row_key",
    "canonical_tuple_key",
    "finalize_rows",
    "orderable_key",
    "score_components",
    "triangle_graph",
]

# ----------------------------------------------------------------------------- #
# Canonical ordering helpers
# ----------------------------------------------------------------------------- #


def orderable_key(value: Any) -> tuple:
    """A total order over heterogeneous frozen tuple values.

    Python refuses ``3 < "3"``; trie iterators need *every* pair of
    attribute values comparable so seeks are well-defined.  Values rank
    by type class first, then by value within the class; containers
    recurse; anything else falls back to ``repr`` (deterministic for
    the frozen value types :func:`~repro.model.tuples.freeze_value`
    produces).
    """
    if value is None:
        return (0,)
    if isinstance(value, bool):
        return (1, int(value))
    if isinstance(value, (int, float)):
        return (2, float(value))
    if isinstance(value, str):
        return (3, value)
    if isinstance(value, tuple):
        return (4, tuple(orderable_key(v) for v in value))
    return (5, type(value).__qualname__, repr(value))


def canonical_tuple_key(tup: ServiceTuple) -> tuple:
    """Deterministic identity of one service tuple within its source."""
    return (tup.source, tup.position)


def canonical_row_key(components: Mapping[str, ServiceTuple]) -> tuple:
    """Alias-sorted identity of a joined row — the shared tie-breaker."""
    return tuple(
        (alias, *canonical_tuple_key(components[alias]))
        for alias in sorted(components)
    )


def score_components(
    ranking: RankingFunction, components: Mapping[str, ServiceTuple]
) -> float:
    """Weighted-sum score, the terms folded in alias-sorted order.

    Float addition is not associative; kernels build their component
    dicts in different orders, so scoring through this helper (rather
    than ``ranking.score_composite``) is what makes scores — and hence
    sort keys — bit-identical across kernels.
    """
    return fold(
        ranking.weight(alias) * components[alias].score
        for alias in sorted(components)
    )


@dataclass(frozen=True)
class JoinedRow:
    """One joined combination: alias -> component tuple, plus its score."""

    components: Mapping[str, ServiceTuple]
    score: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "components", dict(self.components))

    def key(self) -> tuple:
        return canonical_row_key(self.components)


def finalize_rows(
    rows: Iterable[JoinedRow], k: int | None = None
) -> list[JoinedRow]:
    """The shared deterministic emission order: best score first, ties by
    canonical row key, cut to ``k``."""
    ordered = sorted(rows, key=lambda r: (-r.score, r.key()))
    return ordered if k is None else ordered[:k]


def _dress_top(
    aliases: Sequence[str],
    combos: Sequence[tuple[ServiceTuple, ...]],
    ranking: RankingFunction,
    k: int | None,
) -> list[JoinedRow]:
    """:func:`finalize_rows` over ``combos`` (component tuples in
    ``aliases`` order), building a row only where the cut can keep it.

    The score is :func:`score_components`' fold, inline — the same terms
    in alias-sorted order — so it is bit-equal to the score of the
    dressed row; every row tied with the k-th best score survives to the
    finalizer, whose canonical keys then decide among them.
    """
    slots = sorted(range(len(aliases)), key=aliases.__getitem__)
    terms = [(ranking.weight(aliases[slot]), slot) for slot in slots]
    scores = []
    for combo in combos:
        total = 0
        for w, slot in terms:
            total += w * combo[slot].score
        scores.append(total)
    scored: Iterable[tuple[float, tuple[ServiceTuple, ...]]] = zip(scores, combos)
    if k is not None and 0 < k < len(scores):
        floor = heapq.nlargest(k, scores)[-1]
        scored = [entry for entry in scored if entry[0] >= floor]
    return finalize_rows(
        [JoinedRow(dict(zip(aliases, combo)), score) for score, combo in scored], k
    )


# ----------------------------------------------------------------------------- #
# Relations and the join graph
# ----------------------------------------------------------------------------- #


@dataclass
class Relation:
    """An alias plus its ranked tuple buffer.

    ``chunk_of`` remembers which chunk each tuple arrived in when the
    relation was drained from a :class:`ChunkSource` — tile-level
    provenance for the extraction-optimality analysers in
    ``joins/extraction.py``.
    """

    alias: str
    tuples: list[ServiceTuple]
    chunk_of: dict[int, int] = field(default_factory=dict)
    calls: int = 0

    @classmethod
    def from_source(
        cls, alias: str, source: ChunkSource, max_chunks: int | None = None
    ) -> "Relation":
        """Drain ``source`` (fully, or ``max_chunks`` chunks) into a buffer."""
        tuples: list[ServiceTuple] = []
        chunk_of: dict[int, int] = {}
        calls = 0
        while max_chunks is None or calls < max_chunks:
            chunk = source.next_chunk()
            if not chunk:
                break
            for tup in chunk:
                chunk_of[len(tuples)] = calls
                tuples.append(tup)
            calls += 1
        return cls(alias=alias, tuples=tuples, chunk_of=chunk_of, calls=calls)

    def __len__(self) -> int:
        return len(self.tuples)


@dataclass(frozen=True)
class EquiPredicate:
    """One equality predicate ``left_alias.left_attr = right_alias.right_attr``."""

    left_alias: str
    left_attr: str
    right_alias: str
    right_attr: str

    def occurrences(self) -> tuple[tuple[str, str], tuple[str, str]]:
        return (
            (self.left_alias, self.left_attr),
            (self.right_alias, self.right_attr),
        )


@dataclass(frozen=True)
class JoinVariable:
    """One equivalence class of attribute occurrences."""

    name: str
    occurrences: tuple[tuple[str, str], ...]

    @property
    def aliases(self) -> tuple[str, ...]:
        seen: list[str] = []
        for alias, _ in self.occurrences:
            if alias not in seen:
                seen.append(alias)
        return tuple(seen)


class JoinGraph:
    """Aliases + equality predicates, collapsed into join variables.

    Union-find over ``(alias, attr)`` occurrences: transitively equal
    attributes become one *join variable* (one trie level).  The global
    variable order is deterministic — widest variable (most aliases)
    first, name as tie-break — which on cyclic graphs is exactly what
    lets leapfrog close cycles before enumerating their cross products.
    """

    def __init__(
        self, aliases: Sequence[str], predicates: Sequence[EquiPredicate]
    ) -> None:
        if len(set(aliases)) != len(aliases):
            raise ExecutionError("duplicate aliases in join graph")
        self.aliases = tuple(aliases)
        self.predicates = tuple(predicates)
        known = set(self.aliases)
        for pred in self.predicates:
            for alias, _ in pred.occurrences():
                if alias not in known:
                    raise ExecutionError(
                        f"predicate references unknown alias {alias!r}"
                    )
        self.variables = self._variables()

    def _variables(self) -> tuple[JoinVariable, ...]:
        parent: dict[tuple[str, str], tuple[str, str]] = {}

        def find(x: tuple[str, str]) -> tuple[str, str]:
            parent.setdefault(x, x)
            root = x
            while parent[root] != root:
                root = parent[root]
            while parent[x] != root:
                parent[x], x = root, parent[x]
            return root

        for pred in self.predicates:
            left, right = pred.occurrences()
            parent[find(left)] = find(right)
        classes: dict[tuple[str, str], list[tuple[str, str]]] = {}
        for occ in parent:
            classes.setdefault(find(occ), []).append(occ)
        variables = []
        for members in classes.values():
            ordered = tuple(sorted(members))
            name = "=".join(f"{a}.{attr}" for a, attr in ordered)
            variables.append(JoinVariable(name=name, occurrences=ordered))
        # Widest first so cyclic closures constrain the search early.
        variables.sort(key=lambda v: (-len(v.aliases), v.name))
        return tuple(variables)

    def is_cyclic(self) -> bool:
        """True when the alias-level join graph contains a cycle.

        Edges come from the predicates, not from variable-alias cliques:
        a star join (many aliases sharing one variable through a hub) is
        acyclic even though its variable spans three or more aliases.
        """
        edges = {
            frozenset((pred.left_alias, pred.right_alias))
            for pred in self.predicates
            if pred.left_alias != pred.right_alias
        }
        parent = {alias: alias for alias in self.aliases}

        def find(alias: str) -> str:
            while parent[alias] != alias:
                parent[alias] = parent[parent[alias]]
                alias = parent[alias]
            return alias

        for edge in sorted(tuple(sorted(e)) for e in edges):
            a, b = (find(x) for x in edge)
            if a == b:
                return True
            parent[a] = b
        return False

    def attrs_of(self, alias: str) -> list[tuple[int, str]]:
        """``(variable index, attr)`` pairs of ``alias`` in global order.

        A relation whose attrs land in two occurrences of the *same*
        variable (a self-equality) keeps one trie attr; the executor
        pre-filters its tuples to rows where the attrs agree.
        """
        out: list[tuple[int, str]] = []
        for index, var in enumerate(self.variables):
            attrs = [attr for a, attr in var.occurrences if a == alias]
            if attrs:
                out.append((index, attrs[0]))
        return out

    def self_equalities(self, alias: str) -> list[tuple[str, str]]:
        pairs: list[tuple[str, str]] = []
        for var in self.variables:
            attrs = sorted({attr for a, attr in var.occurrences if a == alias})
            pairs.extend((attrs[0], other) for other in attrs[1:])
        return pairs

    def self_consistent(
        self, alias: str, tuples: list[ServiceTuple]
    ) -> list[ServiceTuple]:
        """``tuples`` satisfying ``alias``'s self-equalities — the filter
        every kernel applies before it looks at a relation."""
        equalities = self.self_equalities(alias)
        if not equalities:
            return tuples
        return [
            tup
            for tup in tuples
            if all(tup.values.get(a) == tup.values.get(b) for a, b in equalities)
        ]


def triangle_graph(a: str = "R", b: str = "S", c: str = "T") -> JoinGraph:
    """The canonical cyclic example: R(a,b) |><| S(b,c) |><| T(c,a)."""
    return JoinGraph(
        (a, b, c),
        (
            EquiPredicate(a, "b", b, "b"),
            EquiPredicate(b, "c", c, "c"),
            EquiPredicate(c, "a", a, "a"),
        ),
    )


# ----------------------------------------------------------------------------- #
# Trie iterators
# ----------------------------------------------------------------------------- #


class TrieIterator:
    """Array-backed sorted trie over one relation's key vectors.

    The relation's tuples are grouped by their key vector (one component
    per join variable the relation participates in, in global variable
    order) and the distinct vectors sorted once; the "trie" is then
    ranges over that sorted array.  ``open`` descends one level,
    ``next``/``seek`` move among the current level's distinct keys
    within the parent's range, ``group`` surfaces the tuples sharing the
    full vector at the deepest level.  ``seek`` is a binary search —
    the leapfrog step is O(log n) per move, as in Veldhuizen 2012.
    """

    def __init__(self, relation: Relation, attrs: Sequence[str]) -> None:
        self.relation = relation
        self.attrs = tuple(attrs)
        self.depth = -1
        self.seeks = 0
        grouped: dict[tuple, list[int]] = {}
        for index, tup in enumerate(relation.tuples):
            vector = tuple(
                orderable_key(tup.values.get(attr)) for attr in self.attrs
            )
            grouped.setdefault(vector, []).append(index)
        self._vectors = sorted(grouped)
        self._groups = [grouped[vector] for vector in self._vectors]
        # Per-level component arrays, bisectable within any parent range.
        self._components = [
            [vector[level] for vector in self._vectors]
            for level in range(len(self.attrs))
        ]
        # Stack of (parent_lo, parent_hi, segment_lo, segment_hi).
        self._stack: list[tuple[int, int, int, int]] = []
        self.at_end = not self._vectors

    # -- level navigation ----------------------------------------------------

    def _segment(self, level: int, start: int, parent_hi: int) -> tuple[int, int]:
        comps = self._components[level]
        key = comps[start]
        return start, bisect_right(comps, key, start, parent_hi)

    def open(self) -> None:
        """Descend to the first key of the next level."""
        if self._stack:
            _, _, seg_lo, seg_hi = self._stack[-1]
        else:
            seg_lo, seg_hi = 0, len(self._vectors)
        self.depth += 1
        lo, hi = self._segment(self.depth, seg_lo, seg_hi)
        self._stack.append((seg_lo, seg_hi, lo, hi))
        self.at_end = False

    def up(self) -> None:
        """Return to the parent level."""
        self._stack.pop()
        self.depth -= 1
        self.at_end = False

    def key(self) -> tuple:
        _, _, seg_lo, _ = self._stack[-1]
        return self._components[self.depth][seg_lo]

    def next(self) -> None:
        """Advance to the following distinct key at this level."""
        parent_lo, parent_hi, _, seg_hi = self._stack[-1]
        if seg_hi >= parent_hi:
            self.at_end = True
            return
        lo, hi = self._segment(self.depth, seg_hi, parent_hi)
        self._stack[-1] = (parent_lo, parent_hi, lo, hi)

    def seek(self, target: tuple) -> None:
        """Leapfrog to the first key ``>= target`` at this level."""
        parent_lo, parent_hi, seg_lo, _ = self._stack[-1]
        self.seeks += 1
        comps = self._components[self.depth]
        start = bisect_left(comps, target, seg_lo, parent_hi)
        if start >= parent_hi:
            self.at_end = True
            return
        lo, hi = self._segment(self.depth, start, parent_hi)
        self._stack[-1] = (parent_lo, parent_hi, lo, hi)

    def group(self) -> list[int]:
        """Tuple indexes sharing the full key vector (deepest level only)."""
        _, _, seg_lo, seg_hi = self._stack[-1]
        out: list[int] = []
        for entry in range(seg_lo, seg_hi):
            out.extend(self._groups[entry])
        return out


# ----------------------------------------------------------------------------- #
# Statistics
# ----------------------------------------------------------------------------- #


@dataclass
class MultiwayJoinStatistics:
    """Work accounting shared by the wcoj kernel and the binary baseline.

    ``pairs_probed`` counts candidate pairings *formed or examined*: for
    the cascade every materialized intermediate row plus every bucket
    entry inspected; for leapfrog every seek/advance plus every member
    of an emitted leaf product.  ``max_intermediate`` is the peak row
    count of any materialized intermediate relation — structurally zero
    for leapfrog, whose only state is one trie position per relation.
    """

    pairs_probed: int = 0
    seeks: int = 0
    results: int = 0
    max_intermediate: int = 0
    intermediate_rows: int = 0
    relations: int = 0
    calls: dict[str, int] = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "pairs_probed": self.pairs_probed,
            "seeks": self.seeks,
            "results": self.results,
            "max_intermediate": self.max_intermediate,
            "intermediate_rows": self.intermediate_rows,
            "relations": self.relations,
        }


@dataclass
class MultiwayJoinResult:
    rows: list[JoinedRow]
    stats: MultiwayJoinStatistics


# ----------------------------------------------------------------------------- #
# Leapfrog triejoin
# ----------------------------------------------------------------------------- #


class MultiwayJoinExecutor:
    """Leapfrog triejoin over ``relations`` under ``graph``.

    Enumerates the full join (optionally post-filtered) with no
    intermediate materialization, scores every row through the shared
    alias-sorted summation, and finalizes with the shared deterministic
    order.  ``k`` cuts the *output*, not the search — ranked (early-
    terminating) top-k is :class:`repro.joins.ranked.RankedEnumerator`.
    """

    def __init__(
        self,
        relations: Sequence[Relation],
        graph: JoinGraph,
        ranking: RankingFunction | None = None,
        k: int | None = None,
        post_filter: Callable[[Mapping[str, ServiceTuple]], bool] | None = None,
    ) -> None:
        if tuple(r.alias for r in relations) != graph.aliases:
            raise ExecutionError("relations must match the graph's aliases")
        if k is not None and k <= 0:
            raise ExecutionError("k must be positive")
        self.relations = tuple(relations)
        self.graph = graph
        self.ranking = ranking or RankingFunction.uniform(graph.aliases)
        self.k = k
        self.post_filter = post_filter

    def _prepared(self, relation: Relation) -> Relation:
        kept = self.graph.self_consistent(relation.alias, relation.tuples)
        if kept is relation.tuples:
            return relation
        return Relation(alias=relation.alias, tuples=kept)

    def run(self) -> MultiwayJoinResult:
        stats = MultiwayJoinStatistics(relations=len(self.relations))
        variables = self.graph.variables
        # Per-relation trie iterators plus their (variable -> own level) map.
        iters: list[TrieIterator] = []
        levels_of: list[dict[int, int]] = []
        for relation in self.relations:
            attr_pairs = self.graph.attrs_of(relation.alias)
            iters.append(
                TrieIterator(
                    self._prepared(relation),
                    [attr for _, attr in attr_pairs],
                )
            )
            levels_of.append(
                {var: own for own, (var, _) in enumerate(attr_pairs)}
            )
        participants = [
            [i for i, levels in enumerate(levels_of) if var in levels]
            for var in range(len(variables))
        ]
        rows: list[tuple[ServiceTuple, ...]] = []  # components in alias order

        def emit() -> None:
            groups = [it.group() if it.attrs else range(len(it.relation)) for it in iters]
            if any(not g for g in groups):
                return
            self._emit_product(groups, iters, rows, stats)

        def leapfrog(var: int) -> bool:
            """Position every participant of ``var`` on a common key.

            Returns False when the intersection at this level is empty.
            """
            active = [iters[i] for i in participants[var]]
            if any(it.at_end for it in active):
                return False
            active.sort(key=lambda it: it.key())
            p = 0
            hi = active[-1].key()
            while True:
                it = active[p]
                if it.key() == hi:
                    return True
                stats.pairs_probed += 1
                it.seek(hi)
                if it.at_end:
                    return False
                hi = it.key()
                p = (p + 1) % len(active)

        def search(var: int) -> None:
            if var == len(variables):
                emit()
                return
            for i in participants[var]:
                iters[i].open()
            try:
                while leapfrog(var):
                    search(var + 1)
                    head = iters[participants[var][0]]
                    stats.pairs_probed += 1
                    head.next()
                    if head.at_end:
                        break
            finally:
                for i in participants[var]:
                    iters[i].up()

        if all(len(it.relation) for it in iters):
            search(0)
        stats.seeks = sum(it.seeks for it in iters)
        stats.results = len(rows)
        return MultiwayJoinResult(
            rows=_dress_top(self.graph.aliases, rows, self.ranking, self.k),
            stats=stats,
        )

    def _emit_product(
        self,
        groups: Sequence[Sequence[int]],
        iters: Sequence[TrieIterator],
        rows: list[tuple[ServiceTuple, ...]],
        stats: MultiwayJoinStatistics,
    ) -> None:
        leaves = [
            [it.relation.tuples[index] for index in group]
            for it, group in zip(iters, groups)
        ]
        for combo in itertools.product(*leaves):
            stats.pairs_probed += 1
            if self.post_filter is None or self.post_filter(
                dict(zip(self.graph.aliases, combo))
            ):
                rows.append(combo)


# ----------------------------------------------------------------------------- #
# Binary cascade baseline
# ----------------------------------------------------------------------------- #


class BinaryCascadeExecutor:
    """Left-deep hash-join cascade — the pre-existing execution shape.

    Joins relations in the given order, hash-indexing each new relation
    on the attribute vector its evaluable predicates bind, and
    **materializes every intermediate**.  ``pairs_probed`` counts every
    bucket entry examined (each is a formed intermediate candidate);
    ``max_intermediate`` is the largest materialized intermediate.  The
    output goes through the same finalizer as the wcoj kernel, so the
    top-k is byte-identical — only the work differs.
    """

    def __init__(
        self,
        relations: Sequence[Relation],
        graph: JoinGraph,
        ranking: RankingFunction | None = None,
        k: int | None = None,
        post_filter: Callable[[Mapping[str, ServiceTuple]], bool] | None = None,
        order: Sequence[str] | None = None,
    ) -> None:
        if tuple(r.alias for r in relations) != graph.aliases:
            raise ExecutionError("relations must match the graph's aliases")
        if k is not None and k <= 0:
            raise ExecutionError("k must be positive")
        self.relations = {r.alias: r for r in relations}
        self.graph = graph
        self.ranking = ranking or RankingFunction.uniform(graph.aliases)
        self.k = k
        self.post_filter = post_filter
        self.order = tuple(order) if order is not None else graph.aliases
        if sorted(self.order) != sorted(graph.aliases):
            raise ExecutionError("order must permute the graph's aliases")

    def _binding_attrs(
        self, bound: Collection[str], alias: str
    ) -> list[tuple[str, str, str]]:
        """``(bound_alias, bound_attr, new_attr)`` for evaluable predicates."""
        out: list[tuple[str, str, str]] = []
        for var in self.graph.variables:
            new_attrs = sorted(
                {attr for a, attr in var.occurrences if a == alias}
            )
            if not new_attrs:
                continue
            for b_alias, b_attr in var.occurrences:
                if b_alias in bound:
                    out.append((b_alias, b_attr, new_attrs[0]))
                    break
        return out

    def run(self) -> MultiwayJoinResult:
        stats = MultiwayJoinStatistics(relations=len(self.order))
        kept = {
            alias: self.graph.self_consistent(alias, self.relations[alias].tuples)
            for alias in self.order
        }
        # The probing side's join-key columns, rendered once per relation
        # tuple and keyed by tuple identity.  They live for this run only:
        # a column kept on the ``Relation`` would let a second join of the
        # same objects skip work the first one paid for.
        columns: dict[tuple[str, str], dict[int, tuple]] = {}

        def column(alias: str, attr: str) -> dict[int, tuple]:
            if (alias, attr) not in columns:
                columns[alias, attr] = {
                    id(tup): orderable_key(tup.values.get(attr))
                    for tup in kept[alias]
                }
            return columns[alias, attr]

        # Intermediate rows are tuples of components in ``self.order``.
        current = [(tup,) for tup in kept[self.order[0]]]
        slot_of = {self.order[0]: 0}
        for step, alias in enumerate(self.order[1:], 1):
            bindings = self._binding_attrs(slot_of, alias)
            # Buckets hold 1-tuples, so a hit row extends by ``row + entry``.
            index: dict[tuple, list[tuple[ServiceTuple]]] = {}
            for tup in kept[alias]:
                key = tuple(
                    orderable_key(tup.values.get(attr))
                    for _, _, attr in bindings
                )
                index.setdefault(key, []).append((tup,))
            # Probe keys column-wise, one ``map`` per binding over the whole
            # intermediate: a per-row comprehension cost more than the bucket
            # lookup it fed.  ``zip()`` of no columns is empty, so a step that
            # binds nothing (a cross product) probes every row with ``()``.
            keys = (
                zip(*[
                    map(
                        column(b_alias, b_attr).__getitem__,
                        map(id, map(itemgetter(slot_of[b_alias]), current)),
                    )
                    for b_alias, b_attr, _ in bindings
                ])
                if bindings
                else itertools.repeat((), len(current))
            )
            joined: list[tuple[ServiceTuple, ...]] = []
            for row, bucket in zip(current, map(index.get, keys)):
                if bucket:
                    stats.pairs_probed += len(bucket)
                    joined.extend(map(row.__add__, bucket))
            current = joined
            slot_of[alias] = step
            if step < len(self.order) - 1:
                stats.intermediate_rows += len(current)
                stats.max_intermediate = max(
                    stats.max_intermediate, len(current)
                )
        if self.post_filter is not None:
            current = [
                row
                for row in current
                if self.post_filter(dict(zip(self.order, row)))
            ]
        stats.results = len(current)
        return MultiwayJoinResult(
            rows=_dress_top(self.order, current, self.ranking, self.k),
            stats=stats,
        )
