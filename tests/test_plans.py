"""Unit tests for the plan DAG model and its validation rules."""

import pytest

from repro.errors import PlanError
from repro.joins.spec import JoinMethodSpec
from repro.plans.nodes import (
    InputNode,
    OutputNode,
    ParallelJoinNode,
    SelectionNode,
    ServiceNode,
)
from repro.plans.plan import NodeAnnotation, PlanAnnotations, QueryPlan, fetch_vector
from repro.query.ast import AttrRef, Comparator, SelectionPredicate


def service_node(node_id, alias, interface):
    return ServiceNode(node_id=node_id, alias=alias, interface=interface)


@pytest.fixture()
def linear_plan(tiny_search_interface):
    plan = QueryPlan()
    plan.add(InputNode())
    plan.add(service_node("svc:A", "A", tiny_search_interface))
    plan.add(OutputNode())
    plan.connect("input", "svc:A")
    plan.connect("svc:A", "output")
    return plan.validate()


class TestConstruction:
    def test_duplicate_node_id_rejected(self, tiny_search_interface):
        plan = QueryPlan()
        plan.add(InputNode())
        with pytest.raises(PlanError):
            plan.add(InputNode())

    def test_duplicate_arc_rejected(self, linear_plan):
        with pytest.raises(PlanError):
            linear_plan.connect("input", "svc:A")

    def test_self_loop_rejected(self, linear_plan):
        with pytest.raises(PlanError):
            linear_plan.connect("svc:A", "svc:A")

    def test_unknown_node_in_arc(self, linear_plan):
        with pytest.raises(PlanError):
            linear_plan.connect("input", "nope")

    def test_service_node_requires_interface(self):
        with pytest.raises(PlanError):
            ServiceNode(node_id="svc:X", alias="X", interface=None)

    def test_selection_node_requires_predicates(self):
        with pytest.raises(PlanError):
            SelectionNode(node_id="sel:1")


class TestValidation:
    def test_valid_linear_plan(self, linear_plan):
        assert linear_plan.topological_order()[0] == "input"

    def test_cycle_detected(self, tiny_search_interface):
        plan = QueryPlan()
        plan.add(InputNode())
        plan.add(service_node("svc:A", "A", tiny_search_interface))
        plan.add(service_node("svc:B", "B", tiny_search_interface))
        plan.add(OutputNode())
        plan.connect("input", "svc:A")
        plan.connect("svc:A", "svc:B")
        plan.connect("svc:B", "output")
        plan.arcs.append(("svc:B", "svc:A"))  # force a cycle
        with pytest.raises(PlanError):
            plan.topological_order()

    def test_join_needs_two_parents(self, tiny_search_interface):
        plan = QueryPlan()
        plan.add(InputNode())
        plan.add(service_node("svc:A", "A", tiny_search_interface))
        plan.add(ParallelJoinNode(node_id="join:1"))
        plan.add(OutputNode())
        plan.connect("input", "svc:A")
        plan.connect("svc:A", "join:1")
        plan.connect("join:1", "output")
        with pytest.raises(PlanError):
            plan.validate()

    def test_output_single_parent(self, tiny_search_interface):
        plan = QueryPlan()
        plan.add(InputNode())
        plan.add(service_node("svc:A", "A", tiny_search_interface))
        plan.add(service_node("svc:B", "B", tiny_search_interface))
        plan.add(OutputNode())
        plan.connect("input", "svc:A")
        plan.connect("input", "svc:B")
        plan.connect("svc:A", "output")
        plan.connect("svc:B", "output")
        with pytest.raises(PlanError):
            plan.validate()

    def test_dangling_node_detected(self, tiny_search_interface):
        plan = QueryPlan()
        plan.add(InputNode())
        plan.add(service_node("svc:A", "A", tiny_search_interface))
        plan.add(OutputNode())
        plan.connect("input", "svc:A")
        plan.connect("svc:A", "output")
        plan.add(service_node("svc:B", "B", tiny_search_interface))
        with pytest.raises(PlanError):
            plan.validate()

    def test_duplicate_alias_rejected(self, tiny_search_interface):
        plan = QueryPlan()
        plan.add(InputNode())
        plan.add(service_node("svc:A", "A", tiny_search_interface))
        plan.add(service_node("svc:A2", "A", tiny_search_interface))
        plan.add(OutputNode())
        plan.connect("input", "svc:A")
        plan.connect("svc:A", "svc:A2")
        plan.connect("svc:A2", "output")
        with pytest.raises(PlanError):
            plan.validate()


class TestQueries:
    def test_parents_preserve_arc_order(self, tiny_search_interface):
        plan = QueryPlan()
        plan.add(InputNode())
        plan.add(service_node("svc:A", "A", tiny_search_interface))
        plan.add(service_node("svc:B", "B", tiny_search_interface))
        plan.add(ParallelJoinNode(node_id="join:1"))
        plan.add(OutputNode())
        plan.connect("input", "svc:A")
        plan.connect("input", "svc:B")
        plan.connect("svc:A", "join:1")
        plan.connect("svc:B", "join:1")
        plan.connect("join:1", "output")
        assert plan.parents("join:1") == ("svc:A", "svc:B")
        assert plan.service_node_for("B").node_id == "svc:B"
        assert set(plan.aliases()) == {"A", "B"}

    def test_render(self, linear_plan):
        ann = PlanAnnotations(
            by_node={
                node_id: NodeAnnotation(tin=1, tout=2, fetches=3)
                for node_id in linear_plan.nodes
            }
        )
        rendered = linear_plan.render(ann)
        assert "OUTPUT" in rendered and "fetches=3" in rendered

    def test_copy_is_independent(self, linear_plan):
        clone = linear_plan.copy()
        clone.add(SelectionNode(
            node_id="sel:x",
            selections=(
                SelectionPredicate(AttrRef.parse("A.Key"), Comparator.EQ, 1),
            ),
        ))
        assert "sel:x" not in linear_plan.nodes

    def test_fetch_vector_helper(self, linear_plan):
        ann = PlanAnnotations(
            by_node={"svc:A": NodeAnnotation(tin=1, tout=5, fetches=4)}
        )
        assert fetch_vector(linear_plan, ann) == {"A": 4}


class TestJoinMethodSpecOnNode:
    def test_default_method_label(self):
        node = ParallelJoinNode(node_id="join:1")
        assert node.label() == "JOIN MS/tri"

    def test_method_spec_in_signature_is_stable(self):
        a = ParallelJoinNode(node_id="j1")
        b = ParallelJoinNode(node_id="j2", method=JoinMethodSpec())
        assert a.signature() == b.signature()
