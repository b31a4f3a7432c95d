"""Lowered predicates and join kernels against their reference oracles.

``compile_predicates`` must agree with ``satisfies`` — result *and* raised
``QueryError`` — on predicate sets nobody hand-wrote, and every parallel
join kernel (nested loop, hash, multi-valued hash key) must emit
the byte-identical list the nested loop emits, under both completion
strategies.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.executor import PlanExecutor
from repro.errors import QueryError
from repro.joins.spec import CompletionStrategy, JoinMethodSpec
from repro.model.registry import ServiceRegistry
from repro.model.tuples import CompositeTuple, RankingFunction, ServiceTuple
from repro.obs.tracer import Tracer
from repro.plans.nodes import ParallelJoinNode
from repro.query.ast import (
    AttrRef,
    Comparator,
    InputRef,
    JoinPredicate,
    SelectionPredicate,
)
from repro.query.compile import CompiledQuery
from repro.query.predicates import compile_predicates, satisfies
from repro.services.simulated import ServicePool

# -- compile_predicates == satisfies -------------------------------------------

#: Small, colliding, type-mixed: equal values are common, ``None`` occurs,
#: and an ordering comparator meets ``int`` against ``str`` now and then.
VALUES = st.sampled_from([None, 0, 1, 2, "a", "b", "ab"])
MEMBERS = st.lists(
    st.fixed_dictionaries({"A": VALUES, "B": VALUES}), min_size=0, max_size=3
)


@st.composite
def service_tuples(draw, source):
    return ServiceTuple(
        values={
            "x": draw(VALUES),
            "y": draw(VALUES),
            "R": draw(MEMBERS),
            "Q": draw(MEMBERS),
        },
        score=1.0,
        source=source,
    )


REFS = [
    AttrRef.parse(f"{alias}.{path}")
    for alias in ("S", "T")
    for path in ("x", "y", "R.A", "R.B", "Q.A")
]
OPERANDS = st.one_of(
    VALUES,
    st.sampled_from(["a%", "_", "%b"]),
    st.sampled_from([InputRef("INPUT1"), InputRef("INPUT2"), InputRef("INPUT3")]),
)
SELECTIONS = st.lists(
    st.builds(
        SelectionPredicate,
        st.sampled_from(REFS),
        st.sampled_from(list(Comparator)),
        OPERANDS,
    ),
    max_size=4,
)
JOINS = st.lists(
    st.tuples(
        st.sampled_from(REFS), st.sampled_from(list(Comparator)), st.sampled_from(REFS)
    )
    .filter(lambda t: t[0] != t[2])
    .map(lambda t: JoinPredicate(*t)),
    max_size=3,
)
#: INPUT3 is never bound: reaching a predicate over it must raise.
INPUTS = st.fixed_dictionaries({"INPUT1": VALUES}, optional={"INPUT2": VALUES})


def outcome(call):
    try:
        return "value", bool(call())
    except QueryError as exc:
        return "QueryError", str(exc)


@settings(max_examples=300, deadline=None)
@given(
    s=service_tuples("S1"),
    t=service_tuples("T1"),
    selections=SELECTIONS,
    joins=JOINS,
    inputs=INPUTS,
)
def test_lowered_check_equals_the_oracle(s, t, selections, joins, inputs):
    components = {"S": s, "T": t}
    check = compile_predicates(selections, joins)
    expected = outcome(lambda: satisfies(components, selections, joins, inputs))
    assert outcome(lambda: check(components, inputs)) == expected
    # The closure keeps no per-call state: asking again changes nothing.
    assert outcome(lambda: check(components, inputs)) == expected


def rg_tuple(*members):
    return ServiceTuple({"R": [{"A": a, "B": b} for a, b in members]}, source="S1")


def sel(ref, comparator, operand):
    return SelectionPredicate(AttrRef.parse(ref), comparator, operand)


def test_chapter_counterexample_needs_one_joint_witness():
    # t2 = {<2,x>, <1,y>}: each conjunct holds for *some* member, no single
    # member satisfies both (Section 3.1).
    q1 = [sel("S.R.A", Comparator.EQ, 1), sel("S.R.B", Comparator.EQ, "x")]
    check = compile_predicates(q1)
    assert check({"S": rg_tuple((1, "x"), (2, "x"))})
    assert not check({"S": rg_tuple((2, "x"), (1, "y"))})
    assert not satisfies({"S": rg_tuple((2, "x"), (1, "y"))}, q1)


def test_empty_group_has_no_witness_even_for_untouched_predicates():
    check = compile_predicates([sel("S.R.A", Comparator.EQ, 1)])
    assert not check({"S": rg_tuple()})
    # ... and it is decided before any INPUT is read, as in the oracle.
    unbound = compile_predicates([sel("S.R.A", Comparator.EQ, InputRef("INPUT9"))])
    assert unbound({"S": rg_tuple()}, {}) is False


def test_missing_binding_and_type_mismatch_raise_the_oracles_error():
    row = {"S": rg_tuple((1, "x"))}
    for predicates, inputs in (
        ([sel("S.R.A", Comparator.EQ, InputRef("INPUT9"))], {"INPUT1": 1}),
        ([sel("S.R.A", Comparator.LT, "one")], {}),
        ([sel("S.R.B", Comparator.GE, InputRef("INPUT1"))], {"INPUT1": 3}),
    ):
        with pytest.raises(QueryError) as lowered:
            compile_predicates(predicates)(row, inputs)
        with pytest.raises(QueryError) as oracle:
            satisfies(row, predicates, inputs=inputs)
        assert str(lowered.value) == str(oracle.value)


def test_like_and_none_follow_comparator_apply():
    row = {"S": ServiceTuple({"x": "Casablanca", "y": None}, source="S1")}
    assert compile_predicates([sel("S.x", Comparator.LIKE, "casa%")])(row)
    assert not compile_predicates([sel("S.x", Comparator.LIKE, "casa_")])(row)
    assert not compile_predicates([sel("S.y", Comparator.EQ, None)])(row)
    assert not compile_predicates([sel("S.y", Comparator.LIKE, "%")])(row)


def test_compiled_query_builds_each_check_once():
    query = CompiledQuery(ServiceRegistry(), (), (), (), RankingFunction({}), 10)
    predicates = (sel("S.x", Comparator.EQ, 1),)
    first = query.predicate_check(predicates)
    assert query.predicate_check(list(predicates)) is first
    assert query.predicate_check(predicates, ()) is first
    assert query.predicate_check(()) is not first
    # An unhashable constant cannot key the memo; it is lowered regardless.
    odd = (sel("S.x", Comparator.EQ, ["not", "hashable"]),)
    assert not query.predicate_check(odd)({"S": ServiceTuple({"x": 1})})


# -- one emission loop, three probe-list builders --------------------------------


def executor(tracer=None):
    query = CompiledQuery(
        ServiceRegistry(), (), (), (), RankingFunction({"L": 0.6, "R": 0.4}), 10
    )
    return PlanExecutor(
        plan=None,
        query=query,
        pool=ServicePool(ServiceRegistry(), global_seed=0),
        inputs={},
        tracer=tracer,
    )


def join_node(predicates, completion):
    return ParallelJoinNode(
        "join:1", tuple(predicates), JoinMethodSpec(completion=completion)
    )


def eq(left, right):
    return JoinPredicate(AttrRef.parse(left), Comparator.EQ, AttrRef.parse(right))


def rows(alias, specs, shared=None):
    """Composites ``{[U: shared,] alias: tuple}`` in descending score order."""
    out = []
    for position, (key, members) in enumerate(specs):
        tup = ServiceTuple(
            {"k": key, "G": [{"v": member} for member in members]},
            score=1.0 - position / (len(specs) + 1),
            source=alias,
            position=position,
        )
        components = {} if shared is None else {"U": shared[position % len(shared)]}
        components[alias] = tup
        out.append(CompositeTuple(components, tup.score))
    return out


def emitted(result):
    composites, pair_count = result
    return [(c.score, list(c.components.items())) for c in composites], pair_count


def run_join(predicates, completion, left, right, nested=False):
    tracer = Tracer()
    runner = executor(tracer)
    if nested:
        runner._equi_join_keys = lambda *args: "non_eq"
    result = runner._run_parallel_join(join_node(predicates, completion), left, right)
    (span,) = [s for s in tracer.spans if s.name == "join.probe"]
    return emitted(result), span.attrs, runner._pairs_probed


KEYS = st.sampled_from([None, 0, 1, 2, "a"])
SPECS = st.lists(
    st.tuples(KEYS, st.lists(KEYS, min_size=0, max_size=3)), min_size=0, max_size=7
)
COMPLETIONS = st.sampled_from(
    [CompletionStrategy.RECTANGULAR, CompletionStrategy.TRIANGULAR]
)
PREDICATE_SETS = st.sampled_from(
    [
        ("hash", [eq("L.k", "R.k")]),
        ("hash", [eq("R.k", "L.k")]),
        ("hash_multikey", [eq("L.k", "R.G.v")]),
        ("hash_multikey", [eq("L.G.v", "R.G.v")]),
        ("hash_multikey", [eq("L.G.v", "R.k"), eq("L.k", "R.G.v")]),
    ]
)


@settings(max_examples=150, deadline=None)
@given(
    left=SPECS,
    right=SPECS,
    case=PREDICATE_SETS,
    completion=COMPLETIONS,
    share=st.booleans(),
)
def test_every_kernel_emits_the_nested_loops_list(left, right, case, completion, share):
    dispatch, predicates = case
    shared = (
        [ServiceTuple({"u": n}, source="U", position=n) for n in range(2)]
        if share
        else None
    )
    lrows, rrows = rows("L", left, shared), rows("R", right, shared)
    nested, nested_attrs, nested_probed = run_join(
        predicates, completion, lrows, rrows, nested=True
    )
    assert nested_attrs["kernel"] == "nested_loop"
    # The nested loop probes the whole completion region.
    assert nested_probed == nested[1]
    got, attrs, probed = run_join(predicates, completion, lrows, rrows)
    assert got == nested, attrs
    assert probed <= nested_probed
    if lrows and rrows:
        assert attrs["dispatch"] == dispatch
    else:
        assert attrs["dispatch"] == "empty_side" and got == ([], nested[1])


#: Atomic keys on which dict equality and the EQ predicate may part: ``None``
#: (never matches) and one NaN object (a dict matches it by identity, ``==``
#: does not); ``1``, ``1.0`` and ``True`` are equal both ways.
MIXED_KEYS = st.sampled_from([None, math.nan, 1, 1.0, True, 0, "a", "b"])


def listed(out):
    """``(score, components)`` per row in emission order, built or not."""
    if isinstance(out, list):
        return [(c.score, list(c.components.items())) for c in out]
    return [(out.scores[i], list(out.components(i).items())) for i in range(len(out))]


@settings(max_examples=200, deadline=None)
@given(
    left=st.lists(MIXED_KEYS, max_size=8),
    right=st.lists(MIXED_KEYS, max_size=8),
    completion=COMPLETIONS,
    share=st.booleans(),
    deferred=st.booleans(),
)
def test_exact_buckets_emit_what_the_checked_loop_emits(
    left, right, completion, share, deferred
):
    shared = (
        [ServiceTuple({"u": n}, source="U", position=n) for n in range(2)]
        if share
        else None
    )
    lrows = rows("L", [(key, []) for key in left], shared)
    rrows = rows("R", [(key, []) for key in right], shared)
    node = join_node([eq("L.k", "R.k")], completion)

    def run(checked):
        tracer = Tracer()
        runner = executor(tracer)
        if checked:  # the same candidates, every pair checked
            hashed = runner._hash_candidates
            runner._hash_candidates = lambda *args: (hashed(*args)[0], False)
        out, pair_count = runner._run_parallel_join(node, lrows, rrows, deferred)
        (span,) = [s for s in tracer.spans if s.name == "join.probe"]
        return (listed(out), pair_count, runner._pairs_probed), span.attrs

    (exact, attrs), (checked, checked_attrs) = run(False), run(True)
    assert exact == checked
    clean = all(key is not None and key == key for key in left + right)
    assert attrs["exact"] == (bool(left and right) and clean)
    assert not checked_attrs["exact"]


def test_none_keys_collide_in_the_index_but_never_join():
    left = rows("L", [(None, [None]), (1, [None, 1])])
    right = rows("R", [(None, [None]), (1, [1, 1, None])])
    for predicates in ([eq("L.k", "R.k")], [eq("L.G.v", "R.G.v")]):
        nested, _, nested_probed = run_join(
            predicates, CompletionStrategy.RECTANGULAR, left, right, True
        )
        got, attrs, probed = run_join(
            predicates, CompletionStrategy.RECTANGULAR, left, right
        )
        assert got == nested
        assert len(got[0]) == 1  # only 1 == 1; None == None is not a match
        # ... though the None keys did meet in a bucket and were probed.
        assert len(got[0]) < probed <= nested_probed


def test_multikey_candidates_are_visited_once_in_j_order():
    # The left row reaches right row 0 through two different member values:
    # it must be probed (and emitted) once, before right row 1.
    left = rows("L", [(0, [1, 2])])
    right = rows("R", [(0, [2, 1, 1]), (0, [2])])
    got, attrs, probed = run_join(
        [eq("L.G.v", "R.G.v")], CompletionStrategy.RECTANGULAR, left, right
    )
    assert attrs["dispatch"] == "hash_multikey" and probed == 2
    assert [dict(items)["R"].position for _, items in got[0]] == [0, 1]


def test_unhashable_key_values_fall_back_without_raising():
    def odd_rows(alias):
        tup = ServiceTuple({"k": bytearray(b"x"), "G": []}, source=alias)
        return [CompositeTuple({alias: tup}, 1.0)]

    got, attrs, _ = run_join(
        [eq("L.k", "R.k")],
        CompletionStrategy.TRIANGULAR,
        odd_rows("L"),
        odd_rows("R"),
    )
    assert attrs["kernel"] == "nested_loop"
    assert attrs["dispatch"] == "unhashable_key"
    assert len(got[0]) == 1 and got[1] == 1


def test_decline_reasons_are_recorded():
    left, right = rows("L", [(1, [1])]), rows("R", [(1, [1])])
    rect = CompletionStrategy.RECTANGULAR
    lt = JoinPredicate(AttrRef.parse("L.k"), Comparator.LT, AttrRef.parse("R.k"))
    assert run_join([lt], rect, left, right)[1]["dispatch"] == "non_eq"
    assert run_join([], rect, left, right)[1]["dispatch"] == "no_predicates"
    assert run_join([eq("L.k", "R.k")], rect, [], right)[1]["dispatch"] == (
        "empty_side"
    )
    one_sided = [eq("L.k", "L.G.v")]
    assert run_join(one_sided, rect, left, right)[1]["dispatch"] == "same_side"
    degraded = executor(tracer := Tracer())
    degraded.failed_aliases.add("X")
    degraded._run_parallel_join(join_node([eq("L.k", "R.k")], rect), left, right)
    (span,) = [s for s in tracer.spans if s.name == "join.probe"]
    assert span.attrs["dispatch"] == "degraded" and span.attrs["produced"] == 1
