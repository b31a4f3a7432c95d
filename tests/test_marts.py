"""Invariants of the example schemas (calibration against the chapter)."""

import pytest

from repro.engine.events import CallLog, VirtualClock
from repro.model.service import ServiceKind
from repro.query.ast import InputRef
from repro.services.marts import (
    CONFERENCE_INPUTS,
    CONFERENCE_QUERY,
    RUNNING_EXAMPLE_INPUTS,
    RUNNING_EXAMPLE_QUERY,
)
from repro.services.simulated import SimulatedService


def input_names(query):
    """The INPUT variables a query's selections mention."""
    return {s.operand.name for s in query.selections if isinstance(s.operand, InputRef)}


class TestMovieSchema:
    def test_shows_selectivity_is_two_percent(self, movie_registry):
        # Section 5.6: "We estimate the selectivity of Shows() ... as 2%".
        assert movie_registry.pattern("Shows").selectivity == pytest.approx(0.02)

    def test_dinnerplace_selectivity_is_forty_percent(self, movie_registry):
        assert movie_registry.pattern("DinnerPlace").selectivity == pytest.approx(
            0.40
        )

    def test_title_domain_encodes_shows_selectivity(self, movie_registry):
        # 1 / |title domain| must equal the Shows selectivity so simulated
        # equijoins match the estimate.
        title = movie_registry.mart("Movie").resolve("Title")
        assert 1.0 / title.domain.size == pytest.approx(0.02)

    def test_fig10_chunk_sizes(self, movie_registry):
        # "5 fetches of chunks of 20 movies", "5 chunks of size 5"
        # theatres, one restaurant kept per location.
        assert movie_registry.interface("Movie1").chunk_size == 20
        assert movie_registry.interface("Theatre1").chunk_size == 5
        assert movie_registry.interface("Restaurant1").chunk_size == 1

    def test_all_interfaces_are_search(self, movie_registry):
        for name in ("Movie1", "Theatre1", "Restaurant1"):
            assert movie_registry.interface(name).is_search

    def test_theatre_movie_group_single_member(self, movie_registry):
        group = movie_registry.mart("Theatre").attribute("Movie")
        assert group.avg_members == 1  # keeps Shows at 1/|title|

    def test_example_query_inputs_cover_declared_variables(self, movie_query):
        assert input_names(movie_query) <= set(RUNNING_EXAMPLE_INPUTS)


class TestConferenceSchema:
    def test_conference_produces_twenty_on_average(self, conference_registry):
        iface = conference_registry.interface("Conference1")
        assert iface.kind is ServiceKind.EXACT
        assert iface.stats.avg_cardinality == 20  # Fig. 2

    def test_weather_is_exact_non_selective_per_se(self, conference_registry):
        iface = conference_registry.interface("Weather1")
        assert iface.kind is ServiceKind.EXACT
        # Not selective "per se" — only in the context of the query.
        assert iface.stats.avg_cardinality >= 1

    def test_temperature_domain_matches_threshold_semantics(
        self, conference_registry
    ):
        # Uniform 0..40 with threshold 26 -> true selectivity 0.35,
        # close to the 1/3 range estimate.
        temp = conference_registry.mart("Weather").resolve("AvgTemp")
        assert temp.domain.size == 40
        assert CONFERENCE_INPUTS["INPUT2"] == 26.0

    def test_search_services_chunked(self, conference_registry):
        for name in ("Flight1", "Hotel1"):
            iface = conference_registry.interface(name)
            assert iface.is_search and iface.is_chunked

    def test_query_inputs_cover_declared_variables(self, conference_query):
        assert input_names(conference_query) <= set(CONFERENCE_INPUTS)


class TestSimulatedBehaviourOfExampleServices:
    def test_theatre_results_echo_user_location(self, movie_registry):
        service = SimulatedService(
            movie_registry.interface("Theatre1"), global_seed=8
        )
        invocation = service.invoke(
            {"UAddress": "address#1", "UCity": "city#2", "UCountry": "country#3"},
            VirtualClock(),
            CallLog(),
        )
        for tup in invocation.results:
            assert tup.values["UAddress"] == "address#1"
            assert tup.values["UCity"] == "city#2"

    def test_theatre_scores_decrease_with_distance_rank(self, movie_registry):
        service = SimulatedService(
            movie_registry.interface("Theatre1"), global_seed=8
        )
        invocation = service.invoke(
            {"UAddress": "a", "UCity": "c", "UCountry": "k"},
            VirtualClock(),
            CallLog(),
        )
        scores = [t.score for t in invocation.results]
        assert scores == sorted(scores, reverse=True)

    def test_restaurant_single_tuple_chunks(self, movie_registry):
        service = SimulatedService(
            movie_registry.interface("Restaurant1"), global_seed=8
        )
        invocation = service.invoke(
            {
                "RAddress": "x",
                "RCity": "y",
                "RCountry": "z",
                "Category.Name": "category#1",
            },
            VirtualClock(),
            CallLog(),
        )
        chunk = invocation.next_chunk()
        if chunk is not None:
            assert len(chunk) == 1  # chunk size 1: "first restaurant"
