"""Query layer: AST, parser, compilation, predicate semantics, feasibility.

The query layer turns textual conjunctive queries over service marts or
interfaces into compiled, validated queries whose feasibility (reachability
of every service under access limitations) can be analysed, and provides
the repeating-group witness semantics of Section 3.1 used both by the
execution engine and by the semantics tests.
"""

from repro.query.augment import (
    AugmentationResult,
    AugmentationStep,
    augment_query,
)
from repro.query.ast import (
    AttrRef,
    Comparator,
    ConnectionAtom,
    InputRef,
    JoinPredicate,
    Query,
    SelectionPredicate,
    ServiceAtom,
)
from repro.query.compile import CompiledAtom, CompiledQuery, compile_query
from repro.query.feasibility import (
    BindingChoice,
    FeasibilityResult,
    Provider,
    ProviderKind,
    check_feasibility,
    enumerate_binding_choices,
    input_providers,
    require_feasible,
)
from repro.query.parser import parse_query
from repro.query.predicates import group_occurrences, satisfies

__all__ = [
    "AugmentationResult",
    "AugmentationStep",
    "augment_query",
    "AttrRef",
    "Comparator",
    "ConnectionAtom",
    "InputRef",
    "JoinPredicate",
    "Query",
    "SelectionPredicate",
    "ServiceAtom",
    "CompiledAtom",
    "CompiledQuery",
    "compile_query",
    "BindingChoice",
    "FeasibilityResult",
    "Provider",
    "ProviderKind",
    "check_feasibility",
    "enumerate_binding_choices",
    "input_providers",
    "require_feasible",
    "parse_query",
    "group_occurrences",
    "satisfies",
]
