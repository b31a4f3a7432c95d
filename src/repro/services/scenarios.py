"""Scenario packs: heterogeneous multi-domain schemas beyond the chapter.

The chapter's two worked examples (movie night, conference trip) exercise
the engine, but a serving runtime earns its keep on *heterogeneous*
traffic: many schemas, different join shapes, different service mixes.
This module adds three self-contained scenario packs, each a registry +
query + default bindings in the exact idiom of
:mod:`repro.services.marts`:

* ``travel`` — flights + hotels + events: a three-hop pipe chain
  (flight destination feeds the hotel search, the hotel city feeds the
  event finder), all chunked search services.
* ``shopping`` — products + reviews + shipping: a fan-out from one
  product search into a review feed (search) and a shipping quote
  (exact), the mixed search/exact shape of Fig. 2.
* ``scholar`` — papers + authors + venues: a citation-ranked paper
  index fanned into a small chunked author lookup and an exact venue
  rank, with a selection predicate (``Year >``) that is *selective in
  the context of the query*.

Everything here is plain schema data.  The serving layer turns packs
into workload templates (:func:`repro.serve.workload.scenario_templates`)
and the durability layer resolves registries by schema name when
restoring a checkpoint (:mod:`repro.durability.checkpoint`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

from repro.errors import SchemaError
from repro.model.attributes import Attribute, DataType, Domain, RepeatingGroup
from repro.model.connections import AttributePair, ConnectionPattern
from repro.model.registry import ServiceRegistry
from repro.model.scoring import ExponentialScoring, LinearScoring, PowerLawScoring
from repro.model.service import (
    AccessPattern,
    ServiceInterface,
    ServiceKind,
    ServiceMart,
    ServiceStats,
)

__all__ = [
    "ScenarioPack",
    "SCENARIOS",
    "scenario_names",
    "scenario_pack",
    "travel_registry",
    "shopping_registry",
    "scholar_registry",
    "TRAVEL_QUERY",
    "TRAVEL_INPUTS",
    "SHOPPING_QUERY",
    "SHOPPING_INPUTS",
    "SCHOLAR_QUERY",
    "SCHOLAR_INPUTS",
]

# Shared domains.  As in marts.py, sizes encode join selectivities and
# value universes; the simulated substrate derives tuple data from the
# binding values alone, so every ``domain#n`` value is servable.
_CITY = Domain("city", DataType.STRING, size=20)
_DATE = Domain("caldate", DataType.DATE, size=365)
_NAME = Domain("name", DataType.STRING, size=1000)
_MONEY = Domain("price", DataType.FLOAT, size=500)
_STARS = Domain("stars", DataType.INTEGER, size=5)
_CATEGORY = Domain("category", DataType.STRING, size=6)
_KEYWORD = Domain("keyword", DataType.STRING, size=30)
_PRODUCT = Domain("product", DataType.STRING, size=200)
_REGION = Domain("region", DataType.STRING, size=8)
_TOPIC = Domain("topic", DataType.STRING, size=12)
_TITLE = Domain("papertitle", DataType.STRING, size=300)
_YEAR = Domain("year", DataType.INTEGER, size=60)


def travel_registry() -> ServiceRegistry:
    """Flights + hotels + events: a three-hop chunked pipe chain."""
    registry = ServiceRegistry()

    flight = ServiceMart(
        "TripFlight",
        (
            Attribute("FromCity", _CITY),
            Attribute("ToCity", _CITY),
            Attribute("FDate", _DATE),
            Attribute("Airline", Domain("airline", DataType.STRING, size=15)),
            Attribute("FPrice", _MONEY),
        ),
        description="Flights ranked by price",
    )
    hotel = ServiceMart(
        "TripHotel",
        (
            Attribute("HName", _NAME),
            Attribute("HCity", _CITY),
            Attribute("Stars", _STARS),
            Attribute("HPrice", _MONEY),
        ),
        description="Hotels ranked by value for money",
    )
    event = ServiceMart(
        "TripEvent",
        (
            Attribute("EName", _NAME),
            Attribute("ECity", _CITY),
            Attribute("EDate", _DATE),
            Attribute("ECategory", _CATEGORY),
            Attribute("Popularity", Domain("popularity", DataType.FLOAT, size=100)),
        ),
        description="City events ranked by popularity",
    )

    registry.register_interface(
        ServiceInterface(
            name="FlightSearch",
            mart=flight,
            access_pattern=AccessPattern.from_spec(
                {"FromCity": "I", "ToCity": "I", "FDate": "I", "FPrice": "R"}
            ),
            kind=ServiceKind.SEARCH,
            stats=ServiceStats(
                avg_cardinality=60, chunk_size=10, latency=1.4, invocation_fee=1.0
            ),
            scoring=PowerLawScoring(exponent=0.3),
        )
    )
    registry.register_interface(
        ServiceInterface(
            name="HotelSearch",
            mart=hotel,
            access_pattern=AccessPattern.from_spec({"HCity": "I", "Stars": "R"}),
            kind=ServiceKind.SEARCH,
            stats=ServiceStats(
                avg_cardinality=50, chunk_size=10, latency=1.0, invocation_fee=1.0
            ),
            scoring=LinearScoring(horizon=50),
        )
    )
    registry.register_interface(
        ServiceInterface(
            name="EventFinder",
            mart=event,
            access_pattern=AccessPattern.from_spec(
                {"ECity": "I", "ECategory": "I", "Popularity": "R"}
            ),
            kind=ServiceKind.SEARCH,
            stats=ServiceStats(
                avg_cardinality=30, chunk_size=5, latency=0.7, invocation_fee=1.0
            ),
            scoring=ExponentialScoring(rate=0.1),
        )
    )

    registry.register_pattern(
        ConnectionPattern(
            name="Stay",
            source=flight,
            target=hotel,
            pairs=(AttributePair.parse("ToCity", "HCity"),),
            selectivity=0.95,
            description="Hotel in the flight's destination city",
        )
    )
    registry.register_pattern(
        ConnectionPattern(
            name="Nightlife",
            source=hotel,
            target=event,
            pairs=(AttributePair.parse("HCity", "ECity"),),
            selectivity=0.95,
            description="Events in the hotel's city",
        )
    )
    return registry


#: Travel-pack query: destination trip with hotel and an evening event.
TRAVEL_QUERY = (
    "SELECT FlightSearch AS F, HotelSearch AS H, EventFinder AS E "
    "WHERE Stay(F, H) AND Nightlife(H, E) "
    "AND F.FromCity = INPUT1 AND F.ToCity = INPUT2 AND F.FDate = INPUT3 "
    "AND E.ECategory = INPUT4 "
    "RANK BY 0.4*F, 0.3*H, 0.3*E LIMIT 10"
)

#: Default bindings for the travel pack's INPUT variables.
TRAVEL_INPUTS = {
    "INPUT1": "city#2",
    "INPUT2": "city#9",
    "INPUT3": "2009-07-20",
    "INPUT4": "category#1",
}


def shopping_registry() -> ServiceRegistry:
    """Products + reviews + shipping: search fan-out into search + exact."""
    registry = ServiceRegistry()

    product = ServiceMart(
        "Product",
        (
            Attribute("PName", _PRODUCT),
            Attribute("Keyword", _KEYWORD),
            Attribute("Brand", Domain("brand", DataType.STRING, size=25)),
            Attribute("PPrice", _MONEY),
            Attribute("Rating", Domain("stars", DataType.FLOAT, size=10)),
        ),
        description="Products ranked by buyer rating",
    )
    review = ServiceMart(
        "Review",
        (
            Attribute("RProduct", _PRODUCT),
            Attribute("Stars", _STARS),
            Attribute("Reviewer", _NAME),
            RepeatingGroup(
                "Aspects", (Attribute("Aspect", _CATEGORY),), avg_members=2
            ),
        ),
        description="Reviews ranked by helpfulness",
    )
    shipping = ServiceMart(
        "Shipping",
        (
            Attribute("SProduct", _PRODUCT),
            Attribute("Region", _REGION),
            Attribute("Days", Domain("days", DataType.INTEGER, size=30)),
            Attribute("Fee", _MONEY),
        ),
        description="Shipping quotes per product and region",
    )

    registry.register_interface(
        ServiceInterface(
            name="ProductSearch",
            mart=product,
            access_pattern=AccessPattern.from_spec({"Keyword": "I", "Rating": "R"}),
            kind=ServiceKind.SEARCH,
            stats=ServiceStats(
                avg_cardinality=100, chunk_size=20, latency=1.2, invocation_fee=1.0
            ),
            scoring=PowerLawScoring(exponent=0.35),
        )
    )
    registry.register_interface(
        ServiceInterface(
            name="ReviewFeed",
            mart=review,
            access_pattern=AccessPattern.from_spec({"RProduct": "I", "Stars": "R"}),
            kind=ServiceKind.SEARCH,
            stats=ServiceStats(
                avg_cardinality=15, chunk_size=5, latency=0.5, invocation_fee=1.0
            ),
            scoring=ExponentialScoring(rate=0.3),
        )
    )
    registry.register_interface(
        ServiceInterface(
            name="ShippingQuote",
            mart=shipping,
            access_pattern=AccessPattern.from_spec(
                {"SProduct": "I", "Region": "I"}
            ),
            kind=ServiceKind.EXACT,
            stats=ServiceStats(avg_cardinality=2, chunk_size=None, latency=0.4),
        )
    )

    registry.register_pattern(
        ConnectionPattern(
            name="Reviewed",
            source=product,
            target=review,
            pairs=(AttributePair.parse("PName", "RProduct"),),
            selectivity=0.9,
            description="Reviews of the product",
        )
    )
    registry.register_pattern(
        ConnectionPattern(
            name="ShipsTo",
            source=product,
            target=shipping,
            pairs=(AttributePair.parse("PName", "SProduct"),),
            selectivity=0.95,
            description="Shipping quote for the product",
        )
    )
    return registry


#: Shopping-pack query: rated products with reviews and a shipping quote.
SHOPPING_QUERY = (
    "SELECT ProductSearch AS P, ReviewFeed AS V, ShippingQuote AS S "
    "WHERE Reviewed(P, V) AND ShipsTo(P, S) "
    "AND P.Keyword = INPUT1 AND S.Region = INPUT2 "
    "RANK BY 0.5*P, 0.3*V, 0.2*S LIMIT 10"
)

#: Default bindings for the shopping pack's INPUT variables.
SHOPPING_INPUTS = {
    "INPUT1": "keyword#4",
    "INPUT2": "region#0",
}


def scholar_registry() -> ServiceRegistry:
    """Papers + authors + venues: ranked index into lookup + exact rank."""
    registry = ServiceRegistry()

    paper = ServiceMart(
        "Paper",
        (
            Attribute("PTitle", _TITLE),
            Attribute("Topic", _TOPIC),
            Attribute("Year", _YEAR),
            Attribute("Citations", Domain("citations", DataType.INTEGER, size=5000)),
        ),
        description="Papers ranked by citation count",
    )
    author = ServiceMart(
        "Author",
        (
            Attribute("APaper", _TITLE),
            Attribute("AName", _NAME),
            Attribute("HIndex", Domain("hindex", DataType.INTEGER, size=80)),
        ),
        description="Authors of a paper ranked by h-index",
    )
    venue = ServiceMart(
        "Venue",
        (
            Attribute("VPaper", _TITLE),
            Attribute("VName", _NAME),
            Attribute("VRank", Domain("venuerank", DataType.INTEGER, size=4)),
            Attribute("VCity", _CITY),
        ),
        description="Publication venue of a paper",
    )

    registry.register_interface(
        ServiceInterface(
            name="PaperIndex",
            mart=paper,
            access_pattern=AccessPattern.from_spec(
                {"Topic": "I", "Citations": "R"}
            ),
            kind=ServiceKind.SEARCH,
            stats=ServiceStats(
                avg_cardinality=120, chunk_size=20, latency=1.1, invocation_fee=1.0
            ),
            scoring=PowerLawScoring(exponent=0.3),
        )
    )
    registry.register_interface(
        ServiceInterface(
            name="AuthorLookup",
            mart=author,
            access_pattern=AccessPattern.from_spec({"APaper": "I", "HIndex": "R"}),
            kind=ServiceKind.SEARCH,
            stats=ServiceStats(
                avg_cardinality=4, chunk_size=2, latency=0.6, invocation_fee=1.0
            ),
            scoring=ExponentialScoring(rate=0.5),
        )
    )
    registry.register_interface(
        ServiceInterface(
            name="VenueRank",
            mart=venue,
            access_pattern=AccessPattern.from_spec({"VPaper": "I"}),
            kind=ServiceKind.EXACT,
            stats=ServiceStats(avg_cardinality=1, chunk_size=None, latency=0.5),
        )
    )

    registry.register_pattern(
        ConnectionPattern(
            name="WrittenBy",
            source=paper,
            target=author,
            pairs=(AttributePair.parse("PTitle", "APaper"),),
            selectivity=0.95,
            description="Authors of the paper",
        )
    )
    registry.register_pattern(
        ConnectionPattern(
            name="PublishedAt",
            source=paper,
            target=venue,
            pairs=(AttributePair.parse("PTitle", "VPaper"),),
            selectivity=1.0,
            description="Venue the paper appeared in",
        )
    )
    return registry


#: Scholar-pack query: recent cited papers with authors and venue.
SCHOLAR_QUERY = (
    "SELECT PaperIndex AS P, AuthorLookup AS A, VenueRank AS V "
    "WHERE WrittenBy(P, A) AND PublishedAt(P, V) "
    "AND P.Topic = INPUT1 AND P.Year > INPUT2 "
    "RANK BY 0.5*P, 0.3*A, 0.2*V LIMIT 10"
)

#: Default bindings for the scholar pack's INPUT variables.
SCHOLAR_INPUTS = {
    "INPUT1": "topic#2",
    "INPUT2": 20,
}


@dataclass(frozen=True)
class ScenarioPack:
    """One self-contained scenario: schema + query + workload data.

    ``parameter_space`` and ``rerank_weights`` are plain data in the
    shape :class:`repro.serve.workload.QueryTemplate` expects — the
    serving layer builds templates from packs so this module stays free
    of serving imports.
    """

    name: str
    schema: str
    description: str
    registry_factory: Callable[[], ServiceRegistry]
    query_text: str
    default_inputs: Mapping[str, Any]
    parameter_space: Mapping[str, Sequence[Any]] = field(default_factory=dict)
    rerank_weights: Sequence[Mapping[str, float]] = ()


SCENARIOS: dict[str, ScenarioPack] = {
    pack.name: pack
    for pack in (
        ScenarioPack(
            name="travel",
            schema="travel",
            description="flights + hotels + events (three-hop pipe chain)",
            registry_factory=travel_registry,
            query_text=TRAVEL_QUERY,
            default_inputs=TRAVEL_INPUTS,
            parameter_space={
                "INPUT1": [f"city#{i}" for i in (2, 11)],
                "INPUT2": [f"city#{i}" for i in (9, 4, 14)],
                "INPUT3": ["2009-07-20", "2009-08-03"],
                "INPUT4": ["category#1", "category#4"],
            },
            rerank_weights=(
                {"F": 0.7, "H": 0.2, "E": 0.1},
                {"F": 0.2, "H": 0.2, "E": 0.6},
            ),
        ),
        ScenarioPack(
            name="shopping",
            schema="shopping",
            description="products + reviews + shipping (search/exact fan-out)",
            registry_factory=shopping_registry,
            query_text=SHOPPING_QUERY,
            default_inputs=SHOPPING_INPUTS,
            parameter_space={
                "INPUT1": [f"keyword#{i}" for i in (4, 0, 9)],
                "INPUT2": ["region#0", "region#3"],
            },
            rerank_weights=(
                {"P": 0.8, "V": 0.1, "S": 0.1},
                {"P": 0.3, "V": 0.5, "S": 0.2},
            ),
        ),
        ScenarioPack(
            name="scholar",
            schema="scholar",
            description="papers + authors + venues (ranked index + exact)",
            registry_factory=scholar_registry,
            query_text=SCHOLAR_QUERY,
            default_inputs=SCHOLAR_INPUTS,
            parameter_space={
                "INPUT1": [f"topic#{i}" for i in (2, 7)],
                "INPUT2": [20, 35],
            },
            rerank_weights=(
                {"P": 0.9, "A": 0.05, "V": 0.05},
                {"P": 0.2, "A": 0.6, "V": 0.2},
            ),
        ),
    )
}


def scenario_names() -> tuple[str, ...]:
    """Valid ``scenario`` arguments of
    :func:`repro.serve.workload.scenario_templates`: the chapter's two
    schemas (``default``), every pack mixed with them (``all``), or one
    pack alone."""
    return ("default", "all", *sorted(SCENARIOS))


def scenario_pack(name: str) -> ScenarioPack:
    """Look up a scenario pack by name; raises SchemaError when unknown."""
    try:
        return SCENARIOS[name]
    except KeyError:
        raise SchemaError(
            f"unknown scenario {name!r}; expected one of {sorted(SCENARIOS)}"
        ) from None
