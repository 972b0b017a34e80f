import pytest

from qlma.noise import (
    RATE_PRESETS,
    REFERENCE_COUNTS,
    REFERENCE_GATE_TALLY,
    ErrorRates,
    repeated_success,
    success_probability,
)


def test_reference_tally_totals():
    one = REFERENCE_GATE_TALLY["x"] + REFERENCE_GATE_TALLY["u"] + REFERENCE_GATE_TALLY["h"]
    two = REFERENCE_GATE_TALLY["cu"] + REFERENCE_GATE_TALLY["cx"]
    assert (one, two) == REFERENCE_COUNTS == (60, 118)


def test_zero_rates_give_certainty():
    assert success_probability((60, 118), 10, ErrorRates(0.0, 0.0, 0.0)) == 1.0


def test_experimental_rates_on_reference_counts():
    p = success_probability(REFERENCE_COUNTS, 0, ErrorRates(1e-5, 5e-3))
    # frozen from the product formula: (1-1e-5)^60 * (1-5e-3)^118
    assert p == pytest.approx(0.5531755164703647, rel=1e-12)
    assert abs(p - 0.553) < 0.005


def test_public_device_rates_on_reference_counts():
    p = success_probability(REFERENCE_COUNTS, 0, ErrorRates(1e-3, 1e-2))
    assert p == pytest.approx(0.2876618413400514, rel=1e-12)


def test_measurement_factor():
    rates = ErrorRates(1e-3, 1e-2, 0.0812)
    p = success_probability(REFERENCE_COUNTS, 10, rates)
    assert p == pytest.approx(0.2876618413400514 * (1 - 0.0812) ** 10, rel=1e-12)
    assert p == pytest.approx(0.12333664236318533, rel=1e-12)


def test_presets():
    assert RATE_PRESETS["ibmq"] == ErrorRates(1e-3, 1e-2, 0.0812)
    assert RATE_PRESETS["experimental"] == ErrorRates(1e-5, 5e-3, 0.0812)


def test_monotone_in_counts_and_rates():
    base = success_probability((10, 10), 2, ErrorRates(1e-3, 1e-2, 0.05))
    assert success_probability((11, 10), 2, ErrorRates(1e-3, 1e-2, 0.05)) < base
    assert success_probability((10, 11), 2, ErrorRates(1e-3, 1e-2, 0.05)) < base
    assert success_probability((10, 10), 3, ErrorRates(1e-3, 1e-2, 0.05)) < base
    assert success_probability((10, 10), 2, ErrorRates(2e-3, 1e-2, 0.05)) < base


def test_bounds():
    p = success_probability((1000, 1000), 50, ErrorRates(0.1, 0.2, 0.3))
    assert 0.0 < p <= 1.0


def test_repeated_success_certainty():
    assert repeated_success(1.0, 7) == 1.0


def test_repeated_success_ten_failure_free_iterations():
    assert repeated_success(0.1, 10) == pytest.approx(1e-10, rel=1e-12)


def test_repeated_success_square():
    assert repeated_success(0.5, 2) == pytest.approx(0.25)


def test_rate_validation():
    with pytest.raises(ValueError):
        ErrorRates(1.0, 0.0)
    with pytest.raises(ValueError):
        ErrorRates(0.0, -0.1)
    with pytest.raises(ValueError):
        repeated_success(1.2, 3)
    with pytest.raises(ValueError, match="iterations must be nonnegative"):
        repeated_success(0.5, -1)
    with pytest.raises(ValueError):
        success_probability((-1, 0), 0, ErrorRates(0.0, 0.0))
