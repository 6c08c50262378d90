"""The cheaper game loop and the batch tau search compute exactly what the
plain code did.

Each optimized routine is checked against a reference copy of the
straightforward code it replaced, kept here for that purpose: bit for bit,
or for the batch monitor scores and the ridge solve, within rounding.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from roguewatch import agents
from roguewatch.agents import CLEAN_BAND, CORRUPT_BAND, distribution_with_entropy
from roguewatch.errors import DegenerateDistributionError
from roguewatch.harness import ExperimentConfig, gen_dataset, run_experiment
from roguewatch.monitor import (
    DEFAULT_TAUS,
    DEGREES,
    FEATURE_MASKS,
    GameRecord,
    NormalSystem,
    _best_threshold,
    _columns,
    _raw_table,
    _scaled,
    design_matrix,
    fit_monitor,
    grid_search_ranked,
)
from roguewatch.uncertainty import (
    DEGENERATE_VARENTROPY,
    KURTOSIS_FALLBACK,
    FeatureVector,
    entropy,
    extract_features,
    kurtosis,
    varentropy,
)


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


def edge_targets(size: int) -> list[float]:
    """Targets at 10^-k from either end of [0, ln size], down to 1e-300,
    the ends themselves, and seeded ones across the range."""
    top = math.log(size)
    targets = [0.0, top]
    for k in range(1, 301):
        targets += [10.0**-k, top - 10.0**-k]
    rng = random.Random(size)
    return targets + [rng.uniform(0.0, top) for _ in range(100)]


def test_bisection_bit_identical_at_the_edges_for_sizes_2_to_50():
    mismatched = [
        (size, target)
        for size in range(2, 51)
        for target in edge_targets(size)
        if bits(distribution_with_entropy(target, size))
        != bits(reference_distribution_with_entropy(target, size))
    ]
    assert mismatched == []


def test_bisection_without_a_bracket_is_the_plain_loop(monkeypatch):
    """Where no bracket certifies, every midpoint computes h."""
    monkeypatch.setattr(agents, "_entropy_bracket", lambda target, size, max_h: (0.0, 1.0))
    rng = random.Random(5)
    for size in (2, 10, 50):
        targets = edge_targets(size)[::7]
        targets += [rng.uniform(*CLEAN_BAND) for _ in range(100)]
        targets += [rng.uniform(*CORRUPT_BAND) for _ in range(100)] if size >= 10 else []
        for target in targets:
            assert bits(distribution_with_entropy(target, size)) == bits(
                reference_distribution_with_entropy(target, size)
            ), (size, target)


@pytest.mark.parametrize("band", [CLEAN_BAND, CORRUPT_BAND])
def test_band_targets_take_few_logs(band, monkeypatch):
    """A rogue's targets take logs only near the root: at most 40 a call on
    average, against about 108 for the bisection alone."""
    calls, log = [0], math.log

    def counted(x):
        calls[0] += 1
        return log(x)

    rng = random.Random(11)
    targets = [rng.uniform(*band) for _ in range(4000)]
    monkeypatch.setattr(math, "log", counted)
    for target in targets:
        distribution_with_entropy(target)
    assert calls[0] / len(targets) <= 40


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
        fv = extract_features(positions, turn_index)
        kurtoses = []
        for p in positions:
            try:
                kurtoses.append(kurtosis(p))
            except DegenerateDistributionError:
                kurtoses.append(KURTOSIS_FALLBACK)
        assert bits([fv.max_entropy, fv.max_varentropy, fv.max_kurtosis]) == bits(
            [
                max(entropy(p) for p in positions),
                max(varentropy(p) for p in positions),
                max(kurtoses),
            ]
        )
        assert fv.turn_index == turn_index
    assert extract_features((), 1) is None


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


def reference_gains(model, games, taus) -> list[float]:
    """The scalar tau sweep: each game's minimum ``predict_success``, then
    a count of triggered games for every tau."""
    minima = [
        min((model.predict_success(fv) for fv in game.features), default=math.inf)
        for game in games
    ]
    gains = []
    for tau in taus:
        true_triggers = sum(1 for m, g in zip(minima, games) if m < tau and not g.label)
        false_triggers = sum(1 for m, g in zip(minima, games) if m < tau and g.label)
        gains.append(100.0 * (true_triggers - false_triggers) / len(games))
    return gains


def seeded_games(rng: random.Random, n: int, p_success: float = 0.5) -> list[GameRecord]:
    """Games of 0-5 turns whose entropy runs higher when they fail."""
    games = []
    for index in range(n):
        label = rng.random() < p_success
        top = 1.0 if label else 2.3
        features = tuple(
            FeatureVector(
                rng.uniform(0.0, top), rng.uniform(0.0, top / 2), rng.uniform(1.0, 9.0), turn
            )
            for turn in range(1, rng.randint(0, 5) + 1)
        )
        games.append(GameRecord(features=features, label=label, game_id=str(index)))
    return games


def monitor_cells():
    """Every grid cell fitted on seeded games, plus one with a constant
    input column (every training turn has the same turn index)."""
    rng = random.Random(41)
    system = NormalSystem.from_games(seeded_games(rng, 60))
    models = [
        fit_monitor(system, mask, degree) for degree in DEGREES for mask in FEATURE_MASKS
    ]
    flat = [
        GameRecord(features=(FeatureVector(rng.uniform(0.0, 2.3), 0.5, 3.0, 4),), label=i % 2 == 0)
        for i in range(20)
    ]
    models.append(fit_monitor(NormalSystem.from_games(flat), ("entropy",), 3))
    assert models[-1].normalization[-1] == (4.0, 4.0)
    return models


def cell_scaled(model, games) -> list:
    """A model's own scaled inputs over the turns of ``games``."""
    return _scaled(_raw_table(games, model.feature_mask).T, model.normalization)


def test_batch_tau_search_matches_scalar_sweep():
    rng = random.Random(42)
    mixed = seeded_games(rng, 50)
    # Games with no turns: some among the others, and one last.
    mixed.append(GameRecord(features=(), label=False, game_id="empty"))
    assert any(not game.features for game in mixed[:-1])
    all_success = seeded_games(rng, 12, p_success=1.0)
    assert all(game.label for game in all_success)
    no_turns = [GameRecord(features=(), label=label) for label in (False, True, False)]
    # The fine grid has runs of equal gain; the last grid repeats its taus
    # and is not sorted, so only "the first best tau wins" picks among them.
    grids = (DEFAULT_TAUS, (0.0, 0.5, 1.0), (0.6, 0.3, 0.6, 0.3, 0.9))
    ties = 0
    for model in monitor_cells():
        for games in (mixed, all_success, no_turns):
            for taus in grids:
                gains = reference_gains(model, games, taus)
                best = gains.index(max(gains))
                chosen = _best_threshold(model, cell_scaled(model, games), games, taus)
                assert (chosen.tau, chosen.validation_gain) == (taus[best], gains[best])
                ties += gains.count(gains[best]) > 1
    assert ties


def test_tau_search_scores_are_the_live_scores(monkeypatch):
    from roguewatch import monitor

    searched = []  # the scores each tau search hands to ``_best_tau``, in call order
    best_tau = monitor._best_tau

    def recorded(scores, validation, taus):
        searched.append(scores)
        return best_tau(scores, validation, taus)

    monkeypatch.setattr(monitor, "_best_tau", recorded)
    validation = seeded_games(random.Random(44), 80)

    def check(model, scores, chosen):
        live = [model.predict_success(fv) for game in validation for fv in game.features]
        assert scores.tolist() == live
        assert best_tau(live, validation, DEFAULT_TAUS) == (chosen.tau, chosen.validation_gain)

    for model in monitor_cells():
        chosen = _best_threshold(model, cell_scaled(model, validation), validation, DEFAULT_TAUS)
        check(model, searched.pop(), chosen)
    # The grid scales the validation split once and scores every cell from it.
    train = seeded_games(random.Random(41), 60)
    ranked = {(m.feature_mask, m.degree): m for m in grid_search_ranked(train, validation)}
    system = NormalSystem.from_games(train)
    cells = [(mask, degree) for degree in DEGREES for mask in FEATURE_MASKS]
    assert len(searched) == len(cells) == len(ranked)
    for (mask, degree), scores in zip(cells, searched):
        check(fit_monitor(system, mask, degree), scores, ranked[mask, degree])


def test_design_matrix_matches_linear_output():
    # Probes in and a little outside the training range, where the
    # outputs stay of order one and rounding stays far below 1e-12.
    rng = random.Random(43)
    probes = [
        FeatureVector(rng.uniform(-0.2, 2.5), rng.uniform(0.0, 1.3), rng.uniform(0.5, 9.5), t)
        for t in range(1, 7)
        for _ in range(10)
    ]
    for model in monitor_cells():
        names = [f"max_{name}" for name in model.feature_mask] + ["turn_index"]
        raw = np.array([[getattr(fv, name) for name in names] for fv in probes], dtype=float)
        batch = design_matrix(raw, model.normalization, model.degree) @ np.array(model.weights)
        for value, fv in zip(batch, probes):
            assert abs(value - model.linear_output(fv)) <= 1e-12


def reference_fit(train, mask, degree, alpha=1.0) -> tuple:
    """The per-cell fit the shared system replaced: the cell's own design,
    its BLAS normal equations and a LAPACK solve. Returns the bounds, the
    design, the weights and the system's condition number."""
    raw = _raw_table(train, mask)
    bounds = tuple((float(lo), float(hi)) for lo, hi in zip(raw.min(axis=0), raw.max(axis=0)))
    design = design_matrix(raw, bounds, degree)
    labels = np.array([float(game.label) for game in train for _ in game.features])
    penalty = np.eye(design.shape[1]) * alpha
    penalty[0, 0] = 0.0
    gram = design.T @ design + penalty
    return bounds, design, np.linalg.solve(gram, design.T @ labels), np.linalg.cond(gram)


def test_grid_cells_are_exact_slices_of_the_shared_system():
    train = seeded_games(random.Random(41), 60)
    labels = np.array([float(game.label) for game in train for _ in game.features])
    system = NormalSystem.from_games(train)
    for degree in DEGREES:
        for mask in FEATURE_MASKS:
            columns = _columns(mask, degree)
            bounds, design, weights, cond = reference_fit(train, mask, degree)
            own = np.ascontiguousarray(design.T)
            # The cell's design, gram and right-hand side, bit for bit.
            assert np.array_equal(system.columns[columns].T, design)
            gram = np.array([[(row * other).sum() for other in own] for row in own])
            assert np.array_equal(system.gram[np.ix_(columns, columns)], gram)
            assert np.array_equal(system.rhs[columns], np.array([(c * labels).sum() for c in own]))
            # The solve agrees with LAPACK to within the system's conditioning.
            model = fit_monitor(system, mask, degree)
            assert model.normalization == bounds
            error = np.abs(np.array(model.weights) - weights).max() / np.abs(weights).max()
            assert error <= 4 * cond * np.finfo(float).eps
