"""Unit tests for scoring-function shapes (Section 4.1 service classes)."""

import pytest

from repro.errors import SchemaError
from repro.model.scoring import (
    ConstantScoring,
    ExponentialScoring,
    LinearScoring,
    OpaqueScoring,
    PowerLawScoring,
    StepScoring,
)

ALL_DECAYING = [
    StepScoring(step_position=20),
    LinearScoring(horizon=50),
    PowerLawScoring(exponent=0.5),
    ExponentialScoring(rate=0.1),
]


@pytest.mark.parametrize("scoring", ALL_DECAYING, ids=lambda s: type(s).__name__)
def test_scores_monotonically_non_increasing(scoring):
    scores = [scoring.score_at(i) for i in range(256)]
    assert all(a >= b - 1e-12 for a, b in zip(scores, scores[1:]))


@pytest.mark.parametrize(
    "scoring", ALL_DECAYING + [ConstantScoring()], ids=lambda s: type(s).__name__
)
def test_scores_within_unit_interval(scoring):
    for position in (0, 1, 5, 100, 10_000):
        assert 0.0 <= scoring.score_at(position) <= 1.0


class TestStepScoring:
    def test_sharp_drop_at_step(self):
        scoring = StepScoring(step_position=10, high=0.9, low=0.1)
        assert scoring.score_at(9) > 0.8
        assert scoring.score_at(10) <= 0.1

    def test_step_chunks(self):
        scoring = StepScoring(step_position=20)
        assert scoring.step_chunks(chunk_size=5) == 4
        assert scoring.step_chunks(chunk_size=7) == 3  # ceil(20/7)
        assert scoring.step_chunks(chunk_size=50) == 1

    def test_step_chunks_rejects_bad_chunk(self):
        with pytest.raises(SchemaError):
            StepScoring(step_position=20).step_chunks(0)

    def test_has_step_flag(self):
        assert StepScoring(step_position=5).has_step
        assert not LinearScoring().has_step

    def test_validation(self):
        with pytest.raises(SchemaError):
            StepScoring(step_position=0)
        with pytest.raises(SchemaError):
            StepScoring(step_position=5, high=0.2, low=0.5)


class TestLinearScoring:
    def test_endpoints(self):
        scoring = LinearScoring(horizon=100, top=1.0, bottom=0.0)
        assert scoring.score_at(0) == 1.0
        assert scoring.score_at(100) == 0.0
        assert scoring.score_at(1_000) == 0.0

    def test_midpoint(self):
        scoring = LinearScoring(horizon=100)
        assert scoring.score_at(50) == pytest.approx(0.5)

    def test_validation(self):
        with pytest.raises(SchemaError):
            LinearScoring(horizon=0)
        with pytest.raises(SchemaError):
            LinearScoring(top=0.2, bottom=0.5)


class TestPowerLawScoring:
    def test_heavy_tail(self):
        scoring = PowerLawScoring(exponent=1.0)
        assert scoring.score_at(0) == 1.0
        assert scoring.score_at(9) == pytest.approx(0.1)

    def test_validation(self):
        with pytest.raises(SchemaError):
            PowerLawScoring(exponent=0.0)


class TestExponentialScoring:
    def test_decay_rate(self):
        scoring = ExponentialScoring(rate=0.5, top=1.0)
        assert scoring.score_at(0) == 1.0
        assert scoring.score_at(2) == pytest.approx(0.3678794, rel=1e-5)

    def test_validation(self):
        with pytest.raises(SchemaError):
            ExponentialScoring(rate=-1.0)


class TestConstantScoring:
    def test_constant_everywhere(self):
        scoring = ConstantScoring(0.7)
        assert scoring.score_at(0) == scoring.score_at(999) == 0.7

    def test_validation(self):
        with pytest.raises(SchemaError):
            ConstantScoring(1.5)


class TestOpaqueScoring:
    def test_delegates_to_hidden(self):
        hidden = LinearScoring(horizon=10)
        opaque = OpaqueScoring(hidden)
        assert opaque.score_at(5) == hidden.score_at(5)
        assert not opaque.has_step  # the optimizer cannot see the shape

    def test_opaque_step_is_still_hidden(self):
        opaque = OpaqueScoring(StepScoring(step_position=5))
        assert not opaque.has_step


def test_chunk_representative_is_first_tuple_score():
    scoring = LinearScoring(horizon=100)
    assert scoring.chunk_representative(3, 10) == scoring.score_at(30)
