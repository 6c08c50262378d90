"""Acceptance suite: the eight release criteria, each printing a PASS line.

Run with: pytest tests/test_acceptance.py -v -s
"""

from __future__ import annotations

import json
import math
import random
import time

import pytest

from roguewatch.commons import (
    CommonsConfig,
    CommonsState,
    commons_metrics,
    harvest_phase,
    regrow,
)
from roguewatch.core import Outcome, derive_seed, generate_game, parse_trajectory_jsonl
from roguewatch.harness import (
    COMMONS_TEST_R0,
    ExperimentConfig,
    gen_dataset,
    records_from_games,
    run_commons_trial,
    run_whodunit_game,
)
from roguewatch.intervention import InterventionKind, InterventionPolicy
from roguewatch.monitor import MonitorModel, RandomMonitor, grid_search
from roguewatch.uncertainty import FeatureVector, entropy, kurtosis, varentropy

from .analytic_oracle import (
    binomial_bound_99,
    brute_surprisal_stats,
    brute_surprisal_stats_fast,
    elimination_query_cost,
    expected_intervention_gain,
    predicted_success,
)

ROGUE_EPSILON = 0.3
SCRIPTED_AGENTS = {"accuser": {"type": "scripted"}, "intel": {"type": "scripted"}}
ROGUE_AGENTS = {
    "accuser": {"type": "rogue", "epsilon": ROGUE_EPSILON, "behaviors": {"hallucinate-fact": 1.0}},
    "intel": {"type": "scripted"},
}


def passline(criterion: int, message: str) -> None:
    print(f"\n[acceptance criterion {criterion}] PASS: {message}", flush=True)


@pytest.fixture(scope="module")
def oracle_runs():
    """Criterion 3 artifacts: 500 scripted asymmetric games."""
    started = time.monotonic()
    specs = [generate_game("asymmetric", 6, 31, seed=s) for s in range(500)]
    config = ExperimentConfig(agents=SCRIPTED_AGENTS)
    trajectories = [
        run_whodunit_game(spec, config, game_seed=derive_seed(1, "oracle", i))
        for i, spec in enumerate(specs)
    ]
    return {"specs": specs, "trajectories": trajectories, "elapsed": time.monotonic() - started}


@pytest.fixture(scope="module")
def learnability():
    """Criterion 4 artifacts: rogue corpus, selected monitor, paired test runs."""
    started = time.monotonic()
    manifest = gen_dataset(
        "whodunit", sizes=(300, 100, 200), seed=0, n_suspects=6, turn_limit=31
    )
    plain = ExperimentConfig(agents=ROGUE_AGENTS)

    def run_split(split: str, specs, config: ExperimentConfig, monitors=None):
        return [
            run_whodunit_game(
                spec, config, derive_seed(config.base_seed, split, i, "rep", 0), monitors=monitors
            )
            for i, spec in enumerate(specs)
        ]

    train = run_split("train", manifest.train, plain)
    validation = run_split("validation", manifest.validation, plain)
    corpus = records_from_games(
        parse_trajectory_jsonl("".join(t.to_jsonl() for t in train)), "accuser"
    )
    records = records_from_games(
        parse_trajectory_jsonl("".join(t.to_jsonl() for t in validation)), "accuser"
    )
    model = grid_search(corpus, records, role="accuser")

    test_plain = run_split("test", manifest.test, plain)
    intervening = ExperimentConfig(
        agents=ROGUE_AGENTS,
        monitor={"source": "models"},
        intervention=InterventionPolicy(kind=InterventionKind.FULL_RESET, cap_per_role=1),
    )
    test_monitored = run_split("test", manifest.test, intervening, monitors={"accuser": model})
    return {
        "manifest": manifest,
        "corpus": corpus,
        "records": records,
        "model": model,
        "test_plain": test_plain,
        "test_monitored": test_monitored,
        "elapsed": time.monotonic() - started,
    }


def test_criterion_1_formula_oracle_suite():
    started = time.monotonic()
    rng = random.Random(20250808)
    worst = 0.0
    for _ in range(1000):
        size = rng.randint(2, 50)
        raw = [rng.random() + 1e-9 for _ in range(size)]
        total = math.fsum(raw)
        p = [x / total for x in raw]
        ent, var, kur = brute_surprisal_stats_fast(p)
        worst = max(worst, abs(entropy(p) - ent), abs(varentropy(p) - var))
        assert kur is not None
        worst = max(worst, abs(kurtosis(p) - kur))
    assert worst < 1e-9

    # Frozen spot values, cross-checked with the Decimal oracle.
    ent, var, kur = brute_surprisal_stats([0.5, 0.25, 0.25])
    assert abs(ent - 1.0397) < 5e-5 and abs(entropy([0.5, 0.25, 0.25]) - 1.0397) < 5e-5
    assert abs(var - 0.1201) < 5e-5 and abs(varentropy([0.5, 0.25, 0.25]) - 0.1201) < 5e-5
    assert abs(kur - 1.0) < 1e-12 and abs(kurtosis([0.5, 0.25, 0.25]) - 1.0) < 1e-12
    ent, var, kur = brute_surprisal_stats([0.9, 0.1])
    assert abs(var - 0.4345) < 5e-5 and abs(varentropy([0.9, 0.1]) - 0.4345) < 5e-5
    assert abs(kur - 8.111) < 5e-4 and abs(kurtosis([0.9, 0.1]) - 8.111) < 5e-4

    elapsed = time.monotonic() - started
    assert elapsed < 1.0, f"formula suite took {elapsed:.2f}s"
    passline(1, f"1000 distributions, max abs err {worst:.2e} < 1e-9, {elapsed:.2f}s")


def test_criterion_2_commons_formula_suite():
    from fractions import Fraction

    rng = random.Random(42)
    histories = 0
    # The canonical sustainable case: c = 12 * 100 / 2 = 600, efficiency 1.
    config = CommonsConfig(r0=100.0, gamma=5.0, m=12, n_agents=4)
    assert config.sustainable_total == 600.0
    sustainable = ExperimentConfig(
        env="commons",
        commons_gamma=config.gamma,
        commons_m=config.m,
        commons_policies=("sustainable",) * config.n_agents,
    )
    state, _ = run_commons_trial(config.r0, sustainable, game_seed=0)
    metrics = commons_metrics(state.history, config)
    assert metrics.efficiency == pytest.approx(1.0, abs=1e-12)
    assert metrics.survival_time == 12 and metrics.survival_rate
    histories += 1

    while histories < 50:
        n = rng.choice([1, 2, 3, 4])
        config = CommonsConfig(r0=float(rng.choice([80, 100, 150, 210])), n_agents=n)
        state = CommonsState.fresh(config)
        mode = rng.random()
        for round_index in range(config.m):
            if mode < 0.4:
                requests = {f"p{i}": state.stock / (2 * n) for i in range(n)}
            elif mode < 0.7:
                requests = {f"p{i}": state.stock / n for i in range(n)}
            else:
                requests = {f"p{i}": rng.uniform(0, state.stock) for i in range(n)}
            harvest_phase(state, requests, seed=round_index)
            stock_mid = state.stock
            regrow(state)
            # Regrowth law, exact.
            assert state.stock == min(2.0 * stock_mid, config.r0)
        metrics = commons_metrics(state.history, config)

        total = Fraction(0)
        survived = 0
        for record in state.history:
            for amount in record.harvests.values():
                total += Fraction(amount)
            if Fraction(record.stock_after_harvest) > Fraction(config.gamma):
                survived += 1
        c = Fraction(config.m) * Fraction(config.r0) / 2
        expected_efficiency = 1 - max(Fraction(0), c - total) / c
        assert metrics.survival_time == survived
        assert metrics.survival_rate == (survived >= config.m)
        assert abs(metrics.efficiency - float(expected_efficiency)) < 1e-12
        histories += 1
    passline(2, "50 scripted histories match exact-arithmetic recomputation")


def test_criterion_3_oracle_pair_soundness(oracle_runs):
    specs = oracle_runs["specs"]
    trajectories = oracle_runs["trajectories"]
    assert len(trajectories) == 500

    wrong = [t for t in trajectories if t.outcome is Outcome.WRONG_ACCUSATION]
    assert not wrong, "precision must be 100%"
    for trajectory in trajectories:
        if trajectory.accused_id is not None:
            assert trajectory.accused_id == trajectory.game.culprit_id

    successes = sum(1 for t in trajectories if t.outcome is Outcome.SUCCESS)
    success_rate = 100.0 * successes / 500
    assert success_rate >= 95.0

    # Independent offline replay from the GameSpec alone.
    replay_successes = sum(1 for spec in specs if predicted_success(spec))
    assert successes == replay_successes
    for spec, trajectory in zip(specs, trajectories):
        if trajectory.outcome is Outcome.SUCCESS:
            assert trajectory.length == 2 * elimination_query_cost(spec) + 1

    assert oracle_runs["elapsed"] < 30.0
    passline(
        3,
        f"500 games: precision 100%, success {success_rate:.1f}% >= 95%, "
        f"replay count matches ({oracle_runs['elapsed']:.1f}s)",
    )


def test_criterion_4_monitor_learnability(learnability):
    model = learnability["model"]
    assert model.validation_gain > 0.0

    test_plain = learnability["test_plain"]
    test_monitored = learnability["test_monitored"]
    sr_plain = 100.0 * sum(t.outcome is Outcome.SUCCESS for t in test_plain) / len(test_plain)
    sr_monitored = (
        100.0 * sum(t.outcome is Outcome.SUCCESS for t in test_monitored) / len(test_monitored)
    )
    observed_gain = sr_monitored - sr_plain

    expected_gain = 100.0 * expected_intervention_gain(
        learnability["manifest"].test, ROGUE_EPSILON
    )
    assert observed_gain == pytest.approx(expected_gain, abs=5.0), (
        f"observed {observed_gain:.2f}pp vs closed-form {expected_gain:.2f}pp"
    )
    assert learnability["elapsed"] < 300.0
    passline(
        4,
        f"gain {model.validation_gain:.1f} > 0; intervention lift "
        f"{observed_gain:.2f}pp vs closed-form {expected_gain:.2f}pp (tolerance 5pp), "
        f"{learnability['elapsed']:.1f}s",
    )


def test_criterion_5_trigger_cap_and_rollback_invariants(oracle_runs, learnability):
    cap = 1
    all_runs = (
        oracle_runs["trajectories"]
        + learnability["test_plain"]
        + learnability["test_monitored"]
    )
    for trajectory in all_runs:
        per_role: dict[str, int] = {}
        accusation_committed = False
        for turn in trajectory.turns:
            if turn.trigger_fired:
                per_role[turn.role] = per_role.get(turn.role, 0) + 1
            if turn.intervention == "full-reset":
                # A full reset must never undo a committed (checkpointed)
                # accusation; committed accusations are terminal.
                assert not accusation_committed
            elif turn.action.get("kind") == "accuse":
                accusation_committed = True
        for role, count in per_role.items():
            assert count <= cap, f"{role} exceeded cap: {count}"
        if accusation_committed:
            accuse_positions = [
                i for i, t in enumerate(trajectory.turns)
                if t.action.get("kind") == "accuse" and t.intervention is None
            ]
            assert accuse_positions[-1] == len(trajectory.turns) - 1

    # kind=none runs are bit-identical to monitor-off runs on the same seeds.
    specs = learnability["manifest"].test[:40]
    none_policy = ExperimentConfig(
        agents=ROGUE_AGENTS,
        monitor={"source": "random", "p": 0.9},
        intervention=InterventionPolicy(kind=InterventionKind.NONE),
    )
    monitor_off = ExperimentConfig(agents=ROGUE_AGENTS, monitor={"source": "none"})
    for index, spec in enumerate(specs):
        seed = derive_seed(7, "identity", index)
        a = run_whodunit_game(spec, none_policy, game_seed=seed)
        b = run_whodunit_game(spec, monitor_off, game_seed=seed)
        assert a.to_jsonl() == b.to_jsonl()
    passline(5, "caps respected, resets never cross accusations, kind=none bit-identical")


def test_criterion_6_grid_reproducibility_and_serialization(learnability):
    first = grid_search(learnability["corpus"], learnability["records"], role="accuser")
    second = grid_search(learnability["corpus"], learnability["records"], role="accuser")
    assert first == second == learnability["model"]

    model = learnability["model"]
    restored = MonitorModel.from_json_obj(json.loads(model.to_json()))
    rng = random.Random(123)
    worst = 0.0
    for _ in range(10_000):
        probe = FeatureVector(
            max_entropy=rng.uniform(-2.0, 5.0),
            max_varentropy=rng.uniform(0.0, 8.0),
            max_kurtosis=rng.uniform(0.0, 40.0),
            turn_index=rng.randint(1, 80),
        )
        worst = max(
            worst, abs(restored.predict_success(probe) - model.predict_success(probe))
        )
    assert worst <= 1e-12
    passline(6, f"grid deterministic; round-trip max prediction delta {worst:.2e}")


def test_criterion_7_random_baseline_calibration():
    turns = 10_000
    for index, p in enumerate((0.05, 0.3, 0.9)):
        monitor = RandomMonitor(p, seed=derive_seed(99, "rm", index))
        rate = sum(monitor.predict_success(None) < monitor.tau for _ in range(turns)) / turns
        bound = binomial_bound_99(p, turns)
        assert abs(rate - p) <= bound, f"p={p}: rate {rate:.4f} outside ±{bound:.4f}"
    passline(7, "empirical trigger rates within 99% binomial bounds for p=0.05/0.3/0.9")


def test_criterion_8_split_integrity():
    manifest = gen_dataset("whodunit", sizes=(210, 90, 180), seed=0)
    everything = manifest.train + manifest.validation + manifest.test
    assert len(everything) == 480
    keys = {
        (
            tuple(tuple(v for _, v in s.assignment) for s in spec.suspects),
            spec.culprit_id,
        )
        for spec in everything
    }
    assert len(keys) == 480
    assert (len(manifest.train), len(manifest.validation), len(manifest.test)) == (210, 90, 180)

    commons = gen_dataset("commons", seed=0)
    assert tuple(commons.test) == COMMONS_TEST_R0
    assert commons.test == [100] + list(range(210, 301, 5))
    assert len(commons.test) == 20
    passline(8, "480 pairwise-distinct game specs; commons test R0 list exact")
