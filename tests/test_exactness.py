"""The cheaper game loop computes exactly what the plain one did.

Each optimized routine is checked bit for bit against a reference copy of
the straightforward code it replaced, kept here for that purpose.
"""

from __future__ import annotations

import math
import random

import pytest

from roguewatch.agents import CLEAN_BAND, CORRUPT_BAND, distribution_with_entropy
from roguewatch.errors import DegenerateDistributionError
from roguewatch.harness import ExperimentConfig, gen_dataset, run_experiment
from roguewatch.uncertainty import (
    DEGENERATE_VARENTROPY,
    entropy,
    extract_features,
    kurtosis,
    varentropy,
)
from roguewatch.whodunit import PARSE_CACHE_SIZE, parse_rendered


def reference_distribution_with_entropy(target: float, size: int = 10) -> tuple[float, ...]:
    """The fixed 80-step bisection."""

    def h(p: float) -> float:
        if p >= 1.0:
            return 0.0
        rest = (1.0 - p) / (size - 1)
        return -p * math.log(p) - (1.0 - p) * math.log(rest)

    lo, hi = 1.0 / size, 1.0
    for _ in range(80):
        mid = (lo + hi) / 2.0
        if h(mid) > target:
            lo = mid
        else:
            hi = mid
    p = (lo + hi) / 2.0
    rest = (1.0 - p) / (size - 1)
    return (p,) + (rest,) * (size - 1)


def reference_statistics(p):
    """Entropy, varentropy and kurtosis (None when degenerate), each
    computed on its own as the separate functions once did."""
    h = -math.fsum(x * math.log(x) for x in p if x > 0.0)
    var = math.fsum(x * (-math.log(x) - h) ** 2 for x in p if x > 0.0)
    if var < DEGENERATE_VARENTROPY:
        return h, var, None
    fourth = math.fsum(x * (-math.log(x) - h) ** 4 for x in p if x > 0.0)
    return h, var, fourth / (var * var)


def bits(values) -> list[str]:
    return [float(v).hex() for v in values]


def test_bisection_bit_identical_to_80_steps():
    rng = random.Random(20240901)
    targets = [0.0, math.log(10.0), *CLEAN_BAND, *CORRUPT_BAND]
    targets += [rng.uniform(*CLEAN_BAND) for _ in range(5000)]
    targets += [rng.uniform(*CORRUPT_BAND) for _ in range(5000)]
    for target in targets:
        assert bits(distribution_with_entropy(target)) == bits(
            reference_distribution_with_entropy(target)
        ), target


@pytest.mark.parametrize("size", [2, 3, 7])
def test_bisection_bit_identical_for_other_sizes(size):
    rng = random.Random(size)
    for _ in range(500):
        target = rng.uniform(0.0, math.log(size))
        assert bits(distribution_with_entropy(target, size)) == bits(
            reference_distribution_with_entropy(target, size)
        )


def distributions():
    """Seeded random vectors with and without zeros, plus the degenerate
    one-hot and uniform vectors whose kurtosis falls back."""
    rng = random.Random(7)
    out = [(1.0, 0.0, 0.0), (1.0,) + (0.0,) * 9, (0.25,) * 4, (0.1,) * 10, (0.5, 0.5)]
    for _ in range(300):
        size = rng.randint(2, 12)
        weights = [rng.random() ** 3 if rng.random() > 0.2 else 0.0 for _ in range(size)]
        weights[0] += 1e-3
        total = sum(weights)
        out.append(tuple(w / total for w in weights))
    out += [distribution_with_entropy(t) for t in (0.0, 0.1, 0.9, 2.0, math.log(10.0))]
    return out


def test_statistics_match_reference_bit_for_bit():
    for p in distributions():
        h, var, kurt = reference_statistics(p)
        assert bits([entropy(p), varentropy(p)]) == bits([h, var])
        if kurt is None:
            with pytest.raises(DegenerateDistributionError):
                kurtosis(p)
        else:
            assert bits([kurtosis(p)]) == bits([kurt])


def test_extract_features_equals_separate_statistics():
    """Single positions (the one-hot and uniform ones take the kurtosis
    fallback) and turns of two or three positions."""
    vectors = distributions()
    assert any(reference_statistics(p)[2] is None for p in vectors)
    rng = random.Random(3)
    turns = [[p] for p in vectors]
    turns += [rng.sample(vectors, rng.randint(2, 3)) for _ in range(200)]
    for turn_index, positions in enumerate(turns, start=1):
        fallback = rng.choice([0.0, -1.5, 3.0])
        fv = extract_features(positions, turn_index, kurtosis_fallback=fallback)
        kurtoses = []
        for p in positions:
            try:
                kurtoses.append(kurtosis(p))
            except DegenerateDistributionError:
                kurtoses.append(fallback)
        assert bits([fv.max_entropy, fv.max_varentropy, fv.max_kurtosis]) == bits(
            [
                max(entropy(p) for p in positions),
                max(varentropy(p) for p in positions),
                max(kurtoses),
            ]
        )
        assert fv.turn_index == turn_index
    assert extract_features((), 1) is None


def test_parse_cache_is_bounded():
    assert parse_rendered.cache_info().maxsize == PARSE_CACHE_SIZE > 0
    for target in range(PARSE_CACHE_SIZE + 50):
        line = f"The winner is {target}."
        assert parse_rendered(line) == parse_rendered.__wrapped__(line)
    assert parse_rendered.cache_info().currsize <= PARSE_CACHE_SIZE


def test_rogue_symmetric_same_bytes_at_parallelism_1_and_2(tmp_path):
    manifest = gen_dataset("whodunit", sizes=(0, 0, 12), seed=4, variant="symmetric")
    base = {
        "variant": "symmetric",
        "agents": {"player": {"type": "rogue", "epsilon": 0.3}},
        "monitor": {"source": "random", "p": 0.2},
        "intervention": {"kind": "full-reset", "cap": 1},
    }
    outputs = []
    for parallelism in (1, 2):
        config = ExperimentConfig.from_json_obj({**base, "parallelism": parallelism})
        out = tmp_path / str(parallelism)
        run_experiment(config, manifest, split="test", output_dir=out)
        outputs.append((out / "trajectories.jsonl").read_bytes())
    assert outputs[0] == outputs[1] and outputs[0]
