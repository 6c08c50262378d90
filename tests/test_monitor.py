"""Monitor fitting, gain selection, serialization, and the random baseline."""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from roguewatch.errors import InsufficientDataError, SingularSystemError
from roguewatch.monitor import (
    FEATURE_MASKS,
    GameRecord,
    MonitorModel,
    NormalSystem,
    RandomMonitor,
    _best_threshold,
    _raw_table,
    _scaled,
    design_matrix,
    fit_monitor,
    grid_search,
    grid_search_ranked,
)
from roguewatch.uncertainty import FeatureVector


def fv(entropy=0.0, varentropy=0.0, kurtosis=0.0, turn=1) -> FeatureVector:
    return FeatureVector(entropy, varentropy, kurtosis, turn)


def row(label, **kwargs) -> GameRecord:
    """A one-turn training game."""
    return GameRecord(features=(fv(**kwargs),), label=label, game_id="g")


def fit_on(train, feature_mask, degree, **kwargs) -> MonitorModel:
    """One cell fitted on the system of its own training games."""
    return fit_monitor(NormalSystem.from_games(train), feature_mask, degree, **kwargs)


def best_threshold(model, games, taus) -> MonitorModel:
    """The tau search over the model's own scaled inputs of ``games``."""
    scaled = _scaled(_raw_table(games, model.feature_mask).T, model.normalization)
    return _best_threshold(model, scaled, games, taus)


def line_corpus() -> list[GameRecord]:
    # Labels 0, 1, 2 on entropy 0, 1, 2: pins the exact least-squares line.
    return [
        row(0.0, entropy=0.0, turn=1),
        row(1.0, entropy=1.0, turn=1),
        row(2.0, entropy=2.0, turn=1),
    ]


class TestFit:
    def test_monomial_count_degree_two(self):
        corpus = [row(1.0, entropy=i, turn=i) for i in range(5)]
        model = fit_on(corpus, ("entropy",), degree=2)
        assert len(model.weights) == 6  # 1, x, t, x^2, xt, t^2

    def test_constant_labels_predict_constant(self):
        corpus = [row(1.0, entropy=random.Random(0).random(), turn=i) for i in range(20)]
        model = fit_on(corpus, ("entropy",), degree=1, alpha=1e-9)
        for r in corpus:
            assert model.predict_success(r.features[0]) == pytest.approx(1.0, abs=1e-6)

    def test_exact_line_recovered_with_vanishing_alpha(self):
        model = fit_on(line_corpus(), ("entropy",), degree=1, alpha=1e-12)
        assert model.linear_output(fv(entropy=0.0, turn=1)) == pytest.approx(0.0, abs=1e-6)
        assert model.linear_output(fv(entropy=1.0, turn=1)) == pytest.approx(1.0, abs=1e-6)
        assert model.linear_output(fv(entropy=2.0, turn=1)) == pytest.approx(2.0, abs=1e-6)

    def test_alpha_zero_singular_design_raises(self):
        # One distinct sample cannot support 3 monomials without penalty.
        corpus = [row(1.0, entropy=0.5, turn=1)] * 3
        with pytest.raises(SingularSystemError):
            fit_on(corpus, ("entropy",), degree=1, alpha=0.0)

    def test_empty_corpus_raises(self):
        with pytest.raises(InsufficientDataError):
            fit_on([], ("entropy",), degree=1)

    def test_shrinkage_to_label_mean(self):
        rng = random.Random(4)
        rows = [
            row(float(i % 2), entropy=rng.random(), turn=i % 7 + 1) for i in range(40)
        ]
        model = fit_on(rows, ("entropy",), degree=3, alpha=1e9)
        mean_label = sum(r.label for r in rows) / len(rows)
        for r in rows[:5]:
            assert model.linear_output(r.features[0]) == pytest.approx(mean_label, abs=1e-3)

    def test_normalization_bounds_from_train_only(self):
        corpus = [row(0.0, entropy=0.0, turn=1), row(1.0, entropy=2.0, turn=9)]
        model = fit_on(corpus, ("entropy",), degree=1)
        assert model.normalization[0] == (0.0, 2.0)
        assert model.normalization[1] == (1.0, 9.0)
        # Out-of-range inputs extrapolate linearly, no clamping inside.
        # Degree-1 columns: the intercept, then each scaled input.
        scaled = design_matrix(np.array([[4.0, 17.0]]), model.normalization, 1)[0, 1:]
        assert scaled[0] == pytest.approx(3.0)
        assert scaled[1] == pytest.approx(3.0)


class TestPredict:
    def test_clamping(self):
        model = fit_on(line_corpus(), ("entropy",), degree=1, alpha=1e-12)
        assert model.predict_success(fv(entropy=2.0, turn=1)) == 1.0  # raw 2.0
        assert model.predict_success(fv(entropy=-1.0, turn=1)) == 0.0  # raw -1.0
        assert 0.0 <= model.predict_success(fv(entropy=0.7, turn=1)) <= 1.0


class TestGain:
    def make_model(self, tau=None):
        corpus = [row(0.0, entropy=1.0, turn=1), row(1.0, entropy=0.0, turn=2)]
        return fit_on(corpus, ("entropy",), degree=1)

    def test_hand_counted_gain(self):
        model = self.make_model()
        # Prediction is monotone decreasing in entropy: high entropy -> low score.
        games = []
        for _ in range(3):  # failed games that trigger
            games.append(GameRecord(features=(fv(entropy=1.0, turn=1),), label=False))
        games.append(GameRecord(features=(fv(entropy=0.0, turn=2),), label=False))
        games.append(GameRecord(features=(fv(entropy=1.0, turn=1),), label=True))
        for _ in range(5):  # successful games that stay quiet
            games.append(GameRecord(features=(fv(entropy=0.0, turn=2),), label=True))
        tau = 0.5
        assert best_threshold(model, games, (tau,)).validation_gain == pytest.approx(
            100.0 * (3 - 1) / 10
        )

    def test_tau_zero_never_triggers(self):
        model = self.make_model()
        games = [GameRecord(features=(fv(entropy=1.0, turn=1),), label=False)]
        assert best_threshold(model, games, (0.0,)).validation_gain == 0.0

    def test_perfect_monitor_gain_equals_failed_fraction(self):
        model = self.make_model()
        games = [
            GameRecord(features=(fv(entropy=1.0, turn=1),), label=False),
            GameRecord(features=(fv(entropy=1.0, turn=1),), label=False),
            GameRecord(features=(fv(entropy=0.0, turn=2),), label=True),
            GameRecord(features=(fv(entropy=0.0, turn=2),), label=True),
        ]
        assert best_threshold(model, games, (0.5,)).validation_gain == pytest.approx(50.0)

    def test_trigger_sets_nested_in_tau(self):
        model = self.make_model()
        rng = random.Random(3)
        games = [
            GameRecord(
                features=tuple(
                    fv(entropy=rng.random(), turn=t + 1) for t in range(rng.randint(1, 5))
                ),
                label=bool(rng.random() < 0.5),
            )
            for _ in range(30)
        ]
        previous: set[int] = set()
        for tau in [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]:
            # A lone game's gain is nonzero exactly when it triggers.
            current = {
                i
                for i, g in enumerate(games)
                if best_threshold(model, [g], (tau,)).validation_gain != 0.0
            }
            assert previous <= current
            previous = current


class TestGridSearch:
    def separable_data(self):
        rng = random.Random(7)
        games = []
        for g in range(40):
            label = g % 2 == 0
            features = []
            for turn in range(1, 4):
                h = rng.uniform(0.0, 0.2) if label else rng.uniform(0.8, 2.3)
                features.append(fv(entropy=h, varentropy=h / 3, kurtosis=1.0, turn=turn))
            games.append(GameRecord(features=tuple(features), label=label, game_id=str(g)))
        return games, games

    def test_separable_data_gets_positive_gain(self):
        corpus, games = self.separable_data()
        model = grid_search(corpus, games)
        assert model.validation_gain == pytest.approx(50.0)  # all failed, no false
        assert model.tau is not None

    def test_deterministic(self):
        corpus, games = self.separable_data()
        first = grid_search(corpus, games)
        second = grid_search(corpus, games)
        assert first == second
        assert first.to_json() == second.to_json()

    def test_no_failed_games_selects_tau_zero(self):
        corpus, _ = self.separable_data()
        games = [
            GameRecord(features=(fv(entropy=0.1, turn=1),), label=True)
            for _ in range(10)
        ]
        model = grid_search(corpus, games)
        assert model.validation_gain == 0.0
        assert model.tau == 0.0
        assert model.degree == 1  # tie-break prefers the simplest cell
        assert model.feature_mask == ("entropy",)

    def test_ranked_grid_has_all_cells(self):
        corpus, games = self.separable_data()
        ranked = grid_search_ranked(corpus, games)
        assert len(ranked) == 35  # 5 degrees x 7 masks
        gains = [m.validation_gain for m in ranked]
        assert gains == sorted(gains, reverse=True)

    def test_one_table_one_design_per_split(self, monkeypatch):
        from roguewatch import monitor

        calls = {"_raw_table": 0, "design_matrix": 0, "fit_monitor": 0}
        for name in calls:
            original = getattr(monitor, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(monitor, name, counted)
        corpus, games = self.separable_data()
        monitor.grid_search_ranked(corpus, games)
        # The validation split is scaled, not expanded: one design, for training.
        assert calls == {"_raw_table": 2, "design_matrix": 1, "fit_monitor": 35}

    def test_mask_catalog(self):
        masks = FEATURE_MASKS
        assert len(masks) == 7
        assert masks[0] == ("entropy",)
        assert masks[-1] == ("entropy", "varentropy", "kurtosis")


# Ranks the grid of the golden rogue-accuser corpus (see test_golden.py) and
# prints the JSON of every ranked monitor.
GRID_SCRIPT = """
import sys, tempfile
from pathlib import Path
from roguewatch.core import parse_trajectory_jsonl
from roguewatch.harness import ExperimentConfig, gen_dataset, records_from_games, run_experiment
from roguewatch.monitor import grid_search_ranked

manifest = gen_dataset("whodunit", sizes=(24, 12, 0), seed=5, n_suspects=6)
config = ExperimentConfig.from_json_obj(
    {"agents": {"accuser": {"type": "rogue", "epsilon": 0.35}}, "base_seed": 3}
)
records = []
with tempfile.TemporaryDirectory() as tmp:
    for split in ("train", "validation"):
        run_experiment(config, manifest, split=split, output_dir=Path(tmp) / split)
        text = (Path(tmp) / split / "trajectories.jsonl").read_text()
        records.append(records_from_games(parse_trajectory_jsonl(text), "accuser"))
sys.stdout.write("".join(m.to_json() for m in grid_search_ranked(*records, role="accuser")))
"""


def test_grid_bits_do_not_depend_on_blas_threads():
    src = str(Path(__file__).resolve().parents[1] / "src")
    unset = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
    base = {k: v for k, v in os.environ.items() if k not in unset}
    base["PYTHONPATH"] = src + os.pathsep + base.get("PYTHONPATH", "")
    outputs = [
        subprocess.run(
            [sys.executable, "-c", GRID_SCRIPT],
            env=env,
            capture_output=True,
            text=True,
            check=True,
            timeout=300,
        ).stdout
        for env in (base, {**base, "OPENBLAS_NUM_THREADS": "1"})
    ]
    assert outputs[0] and outputs[0] == outputs[1]


class TestSerialization:
    def test_roundtrip_preserves_predictions(self):
        corpus = [
            row(float(i % 2), entropy=i * 0.37, varentropy=i * 0.11, kurtosis=1.0 + i, turn=i + 1)
            for i in range(25)
        ]
        model = replace(
            fit_on(corpus, ("entropy", "kurtosis"), degree=3), tau=0.4, validation_gain=12.0
        )
        restored = MonitorModel.from_json_obj(json.loads(model.to_json()))
        assert restored == model
        rng = random.Random(11)
        for _ in range(500):
            probe = fv(
                entropy=rng.uniform(-5, 5),
                varentropy=rng.uniform(0, 10),
                kurtosis=rng.uniform(0, 50),
                turn=rng.randint(1, 60),
            )
            assert abs(
                restored.predict_success(probe) - model.predict_success(probe)
            ) <= 1e-12


class TestRandomMonitor:
    def test_extremes(self):
        never = RandomMonitor(0.0, seed=1)
        always = RandomMonitor(1.0, seed=1)
        assert not any(never.predict_success(None) < never.tau for _ in range(100))
        assert all(always.predict_success(None) < always.tau for _ in range(100))

    def test_trigger_fraction(self):
        monitor = RandomMonitor(0.1, seed=5)
        n = 10_000
        hits = sum(monitor.predict_success(None) < monitor.tau for _ in range(n))
        assert abs(hits / n - 0.1) < 0.01
