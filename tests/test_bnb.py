"""Unit tests for the generic branch-and-bound engine on a toy problem."""

import heapq
import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bnb import BranchAndBound


def subset_sum_engine(weights, target, prune=True):
    """Toy problem: cheapest subset of `weights` summing to >= target.

    States are (index, chosen_sum).  Cost = chosen_sum; a leaf satisfies
    when chosen_sum >= target.  Lower bound = chosen_sum (monotone).
    """

    def expand(state, cutoff):
        index, total = state
        return [(index + 1, total), (index + 1, total + weights[index])], 0

    def is_leaf(state):
        index, total = state
        return index == len(weights) or total >= target

    def leaf_value(state):
        _, total = state
        return total, total, total >= target

    return BranchAndBound(
        expand=expand,
        is_leaf=is_leaf,
        leaf_value=leaf_value,
        lower_bound=lambda state: state[1],
        prune=prune,
        depth_of=lambda state: state[0],
    )


class TestSearch:
    def test_finds_optimal_subset(self):
        engine = subset_sum_engine([5, 3, 8, 2, 7], target=10)
        outcome = engine.run((0, 0))
        assert outcome.found and outcome.satisfies
        assert outcome.cost == 10  # 3 + 7 or 8 + 2

    def test_unsatisfiable_returns_best_effort(self):
        engine = subset_sum_engine([1, 2], target=100)
        outcome = engine.run((0, 0))
        assert outcome.found
        assert not outcome.satisfies
        # Among unsatisfying leaves the cheapest is kept (best effort).
        assert outcome.cost == 0

    def test_pruning_reduces_work(self):
        weights = [5, 3, 8, 2, 7, 4, 6, 9]
        # Seed an incumbent so pruning can bite from the first pop
        # (pure best-first over a monotone bound otherwise reaches the
        # optimum before any pruning opportunity arises).
        pruned = subset_sum_engine(weights, 12, prune=True).run(
            (0, 0), initial=(13.0, 13, True)
        )
        unpruned = subset_sum_engine(weights, 12, prune=False).run(
            (0, 0), initial=(13.0, 13, True)
        )
        assert pruned.cost == unpruned.cost == 12
        # In this toy every prunable state is a leaf, so pruning shows up
        # as avoided leaf evaluations and enqueues rather than expansions.
        assert pruned.stats.leaves < unpruned.stats.leaves
        assert pruned.stats.enqueued < unpruned.stats.enqueued
        assert pruned.stats.pruned > 0
        assert unpruned.stats.pruned == 0

    def test_budget_is_anytime(self):
        weights = list(range(1, 15))
        full = subset_sum_engine(weights, 30).run((0, 0))
        limited = subset_sum_engine(weights, 30).run((0, 0), budget=5)
        assert limited.stats.budget_exhausted
        assert limited.stats.expanded <= 5
        # Whatever it found is valid, though possibly worse.
        if limited.found and limited.satisfies:
            assert limited.cost >= full.cost

    def test_initial_incumbent_enables_immediate_pruning(self):
        weights = [5, 3, 8, 2, 7]
        engine = subset_sum_engine(weights, 10)
        seeded = engine.run((0, 0), initial=(10.0, 10, True))
        assert seeded.cost == 10
        unseeded = subset_sum_engine(weights, 10).run((0, 0))
        assert seeded.stats.expanded <= unseeded.stats.expanded

    def test_incumbent_trace_is_monotone(self):
        outcome = subset_sum_engine([5, 3, 8, 2, 7, 1], 9).run((0, 0))
        satisfying = [cost for _, cost, ok in outcome.incumbents if ok]
        assert satisfying == sorted(satisfying, reverse=True)

    def test_satisfying_leaf_preferred_over_cheaper_unsatisfying(self):
        # An unsatisfying leaf of cost 0 must not displace a satisfying one.
        engine = subset_sum_engine([10], target=10)
        outcome = engine.run((0, 0))
        assert outcome.satisfies and outcome.cost == 10


# -- the bound is judged before the signature is asked for --------------------


def tree_engine(
    tree, bound, signature, leaves, calls=None, dominance=None, early=False
):
    """An engine over an explicit tree of int states: ``tree[s]`` lists the
    children of ``s``, ``leaves[s]`` is ``(cost, satisfies)``.  With
    ``early`` its ``expand`` leaves out the children whose bound reaches
    the cutoff.  Returns the engine plus the lists it appends expanded and
    evaluated states to."""
    expanded, evaluated = [], []

    def expand(state, cutoff):
        expanded.append(state)
        children = tree.get(state, [])
        if not early:
            return children, 0
        kept = [child for child in children if bound[child] < cutoff]
        return kept, len(children) - len(kept)

    def leaf_value(state):
        evaluated.append(state)
        cost, satisfies = leaves[state]
        return cost, state, satisfies

    def signature_of(state):
        if calls is not None:
            calls.append(state)
        return signature.get(state)

    engine = BranchAndBound(
        expand=expand,
        is_leaf=lambda state: state in leaves,
        leaf_value=leaf_value,
        lower_bound=bound.__getitem__,
        depth_of=lambda state: len(str(state)),
        signature_of=signature_of,
        dominance_of=dominance,
    )
    return engine, expanded, evaluated


class TestBoundBeforeSignature:
    # Root 0 has two children with one signature: 1 is cheap, 2 is both a
    # duplicate of 1 and beyond the seeded incumbent's cost.
    TREE = {0: [1, 2], 1: [3]}
    BOUND = {0: 0, 1: 1, 2: 5, 3: 2}
    SIGNATURE = {1: "s", 2: "s"}
    LEAVES = {2: (5, True), 3: (2, True)}

    def test_duplicate_and_prunable_counts_as_pruned(self):
        engine, _, _ = tree_engine(
            self.TREE, self.BOUND, self.SIGNATURE, self.LEAVES
        )
        outcome = engine.run(0, initial=(4.0, "seed", True))
        assert outcome.payload == 3 and outcome.cost == 2
        assert outcome.stats.pruned == 1
        assert outcome.stats.deduped == 0

    def test_no_signature_for_a_state_pruned_on_its_bound(self):
        calls = []
        engine, _, _ = tree_engine(
            self.TREE, self.BOUND, self.SIGNATURE, self.LEAVES, calls=calls
        )
        engine.run(0, initial=(4.0, "seed", True))
        assert 2 not in calls
        assert calls == [0, 1, 3]


def dedup_first(tree, bound, signature, leaves, initial, dominance, budget):
    """The engine's loop as it was when the signature was asked first: the
    oracle for the hypothesis test below."""
    best_cost, best_payload, best_ok = initial or (float("inf"), None, False)
    expanded, evaluated = [], []
    heap, seen, frontiers, counter = [], set(), {}, itertools.count()
    deduped = pruned = enqueued = 0

    def entry(state, b):
        found = dominance(state) if dominance else None
        return None if found is None else (found[0], (b, *found[1]))

    def push(state):
        nonlocal deduped, pruned, enqueued
        sig = signature.get(state)
        if sig is not None and sig in seen:
            deduped += 1
            return
        b = bound[state]
        if best_ok and b >= best_cost:
            pruned += 1
            return
        found = entry(state, b)
        if found is not None:
            frontier = frontiers.setdefault(found[0], [])
            if any(
                len(o) == len(found[1]) and all(x <= y for x, y in zip(o, found[1]))
                for o in frontier
            ):
                return
            if len(frontier) < 64:
                frontier.append(found[1])
        if sig is not None:
            seen.add(sig)
        heapq.heappush(heap, (b, -len(str(state)), next(counter), state))
        enqueued += 1

    push(0)
    while heap:
        if budget is not None and len(expanded) >= budget:
            break
        b, _, _, state = heapq.heappop(heap)
        found = entry(state, b)
        if found is not None and found[1] in frontiers.get(found[0], []):
            frontiers[found[0]].remove(found[1])
        if best_ok and b >= best_cost:
            pruned += 1
            continue
        if state in leaves:
            evaluated.append(state)
            cost, ok = leaves[state]
            if best_payload is None or (ok, -cost) > (best_ok, -best_cost):
                best_cost, best_payload, best_ok = cost, state, ok
            continue
        expanded.append(state)
        for child in tree.get(state, []):
            push(child)
    return expanded, evaluated, best_payload, best_cost, pruned + deduped, enqueued


@st.composite
def search_trees(draw):
    size = draw(st.integers(2, 40))
    parent = {i: draw(st.integers(0, i - 1)) for i in range(1, size)}
    tree, bound = {}, {0: draw(st.integers(0, 5))}
    for child, of in parent.items():
        tree.setdefault(of, []).append(child)
        bound[child] = bound[of] + draw(st.integers(0, 4))
    signature = {
        state: draw(st.sampled_from([None, "a", "b", "c", "d"]))
        for state in range(size)
    }
    leaves = {
        state: (bound[state] + draw(st.integers(0, 3)), draw(st.booleans()))
        for state in range(size)
        if state not in tree
    }
    initial = draw(
        st.none() | st.tuples(st.integers(0, 25), st.just(-1), st.booleans())
    )
    groups = draw(st.booleans())
    dominance = (lambda s: (s % 2, (float(s % 3),))) if groups else None
    budget = draw(st.none() | st.integers(0, 20))
    return tree, bound, signature, leaves, initial, dominance, budget


@settings(max_examples=300, deadline=None)
@given(case=search_trees())
def test_bound_first_explores_like_dedup_first(case):
    """Moving the bound ahead of the signature changes which counter a
    doubly-rejected state lands in, and nothing else: the same states are
    expanded and evaluated in the same order, with the same best leaf."""
    tree, bound, signature, leaves, initial, dominance, budget = case
    engine, expanded, evaluated = tree_engine(
        tree, bound, signature, leaves, dominance=dominance
    )
    outcome = engine.run(0, budget=budget, initial=initial)
    stats = outcome.stats
    assert (
        expanded,
        evaluated,
        outcome.payload,
        outcome.cost,
        stats.pruned + stats.deduped,
        stats.enqueued,
    ) == dedup_first(tree, bound, signature, leaves, initial, dominance, budget)


@settings(max_examples=300, deadline=None)
@given(case=search_trees())
def test_bounding_in_expand_explores_like_pruning_on_arrival(case):
    """Children that ``expand`` leaves out on the cutoff are the ones
    ``push`` would have pruned: every counter and the exploration order are
    the same, and those children are counted as pruned."""
    tree, bound, signature, leaves, initial, dominance, budget = case
    runs = []
    for early in (False, True):
        engine, expanded, evaluated = tree_engine(
            tree, bound, signature, leaves, dominance=dominance, early=early
        )
        outcome = engine.run(0, budget=budget, initial=initial)
        stats = outcome.stats
        runs.append(
            (
                expanded,
                evaluated,
                outcome.payload,
                outcome.cost,
                stats.pruned,
                stats.deduped,
                stats.dominated,
                stats.enqueued,
            )
        )
        assert stats.moves_bounded <= stats.pruned
        assert early or stats.moves_bounded == 0
    assert runs[0] == runs[1]
