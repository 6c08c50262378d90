"""Statistics formulas checked against the Decimal brute-force oracle."""

from __future__ import annotations

import math
import random

import pytest

from roguewatch.errors import DegenerateDistributionError, InvalidDistributionError
from roguewatch.uncertainty import (
    FeatureVector,
    entropy,
    extract_features,
    kurtosis,
    varentropy,
)

from .analytic_oracle import brute_surprisal_stats


def random_distribution(rng: random.Random, size: int) -> list[float]:
    raw = [rng.random() + 1e-9 for _ in range(size)]
    total = math.fsum(raw)
    return [x / total for x in raw]


def test_entropy_one_hot_is_zero():
    assert entropy([1.0, 0.0, 0.0]) == 0.0


def test_entropy_uniform_two():
    assert entropy([0.5, 0.5]) == pytest.approx(math.log(2), abs=1e-12)


def test_derived_values_half_quarter_quarter():
    p = [0.5, 0.25, 0.25]
    assert entropy(p) == pytest.approx(1.0397, abs=5e-5)
    assert varentropy(p) == pytest.approx(0.1201, abs=5e-5)
    # All surprisal deviations have equal magnitude, so the ratio is exactly 1.
    assert kurtosis(p) == pytest.approx(1.0, abs=1e-12)


def test_derived_values_nine_tenths():
    p = [0.9, 0.1]
    assert varentropy(p) == pytest.approx(0.4345, abs=5e-5)
    assert kurtosis(p) == pytest.approx(8.111, abs=5e-4)


def test_uniform_varentropy_zero_and_kurtosis_degenerate():
    for n in (2, 3, 7, 10):
        p = [1.0 / n] * n
        assert varentropy(p) == pytest.approx(0.0, abs=1e-24)
        with pytest.raises(DegenerateDistributionError):
            kurtosis(p)


def test_invalid_distributions_rejected():
    with pytest.raises(InvalidDistributionError):
        entropy([0.5, 0.4])
    with pytest.raises(InvalidDistributionError):
        entropy([1.2, -0.2])
    with pytest.raises(InvalidDistributionError):
        varentropy([])


@pytest.mark.parametrize("p", [[math.nan, 1.0], [0.5, 0.5, math.nan], [1.0, -0.0, math.nan]])
def test_a_nan_entry_is_refused(p):
    with pytest.raises(InvalidDistributionError, match="nan"):
        entropy(p)


def test_matches_brute_force_oracle():
    rng = random.Random(7)
    for _ in range(300):
        p = random_distribution(rng, rng.randint(2, 50))
        ent, var, kur = brute_surprisal_stats(p)
        assert entropy(p) == pytest.approx(ent, abs=1e-9)
        assert varentropy(p) == pytest.approx(var, abs=1e-9)
        assert kur is not None
        assert kurtosis(p) == pytest.approx(kur, abs=1e-9)


def test_entropy_bounds_property():
    rng = random.Random(11)
    for _ in range(200):
        p = random_distribution(rng, rng.randint(2, 30))
        h = entropy(p)
        assert 0.0 <= h <= math.log(len(p)) + 1e-12


def test_varentropy_identity_property():
    # varentropy == E[(-ln p)^2] - H^2
    rng = random.Random(13)
    for _ in range(200):
        p = random_distribution(rng, rng.randint(2, 30))
        h = entropy(p)
        second_moment = math.fsum(x * math.log(x) ** 2 for x in p)
        assert varentropy(p) == pytest.approx(second_moment - h * h, abs=1e-9)


def test_kurtosis_permutation_invariant_and_two_point_bound():
    rng = random.Random(17)
    for _ in range(100):
        p = random_distribution(rng, rng.randint(2, 12))
        shuffled = p[:]
        rng.shuffle(shuffled)
        assert kurtosis(p) == pytest.approx(kurtosis(shuffled), rel=1e-9)
    for _ in range(100):
        a = rng.uniform(0.05, 0.95)
        if abs(a - 0.5) < 1e-6:
            continue
        assert kurtosis([a, 1.0 - a]) >= 1.0 - 1e-9


def test_extract_features_maxima_and_no_signal():
    low = [0.97, 0.01, 0.01, 0.01]
    high = [0.4, 0.3, 0.2, 0.1]
    fv = extract_features([low, high], turn_index=5)
    assert fv is not None
    assert fv.max_entropy == pytest.approx(max(entropy(low), entropy(high)))
    assert fv.max_varentropy == pytest.approx(max(varentropy(low), varentropy(high)))
    assert fv.turn_index == 5
    assert extract_features([], turn_index=3) is None


def test_extract_features_single_position_and_fallback():
    p = [0.5, 0.25, 0.25]
    fv = extract_features([p], turn_index=1)
    assert fv.max_entropy == pytest.approx(entropy(p))
    assert fv.max_kurtosis == pytest.approx(kurtosis(p))
    one_hot = [1.0, 0.0]
    fv2 = extract_features([one_hot], turn_index=2)
    assert fv2.max_kurtosis == 0.0
    assert fv2.max_entropy == 0.0


def test_extract_features_monotone_in_positions():
    rng = random.Random(23)
    for _ in range(50):
        positions = [random_distribution(rng, 6) for _ in range(rng.randint(1, 4))]
        base = extract_features(positions, turn_index=1)
        extra = positions + [random_distribution(rng, 6)]
        grown = extract_features(extra, turn_index=1)
        assert grown.max_entropy >= base.max_entropy - 1e-15
        assert grown.max_varentropy >= base.max_varentropy - 1e-15
        assert grown.max_kurtosis >= base.max_kurtosis - 1e-15


def test_feature_vector_roundtrip_and_finiteness():
    fv = FeatureVector(0.5, 0.25, 3.0, 7)
    assert FeatureVector.from_json_obj(fv.to_json_obj()) == fv
    with pytest.raises(ValueError):
        FeatureVector(float("nan"), 0.0, 0.0, 1)
