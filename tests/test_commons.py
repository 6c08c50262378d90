"""Commons dynamics and metrics against exact-arithmetic recomputation."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from roguewatch.commons import (
    CommonsConfig,
    CommonsState,
    commons_metrics,
    harvest_phase,
    post_discussion,
    regrow,
)
from roguewatch.errors import NegativeRequestError
from roguewatch.harness import ExperimentConfig, run_commons_trial


def fresh(r0=100.0, n=2) -> CommonsState:
    return CommonsState.fresh(CommonsConfig(r0=r0, n_agents=n))


def play(config: CommonsConfig, kinds, seed: int) -> CommonsState:
    """All m rounds of the scripted harvest policies ``kinds``."""
    experiment = ExperimentConfig(
        env="commons",
        commons_gamma=config.gamma,
        commons_m=config.m,
        commons_policies=tuple(kinds),
    )
    state, _ = run_commons_trial(config.r0, experiment, game_seed=seed)
    return state


class TestHarvest:
    def test_plain_harvest(self):
        state = fresh()
        harvest_phase(state, {"a": 10.0, "b": 10.0}, seed=0)
        assert state.stock == 80.0
        assert len(state.history[-1].harvests) == 2

    def test_over_subscription_clips_later_agent(self):
        # Total harvested equals the stock for every processing order.
        for seed in range(8):
            state = fresh(r0=10.0)
            harvest_phase(state, {"a": 8.0, "b": 8.0}, seed=seed)
            assert state.stock == 0.0
            assert sum(state.history[-1].harvests.values()) == 10.0
            amounts = sorted(state.history[-1].harvests.values())
            assert amounts == [2.0, 8.0]

    def test_zero_requests_leave_stock(self):
        state = fresh()
        harvest_phase(state, {"a": 0.0, "b": 0.0}, seed=1)
        assert state.stock == 100.0

    def test_negative_request_rejected(self):
        state = fresh()
        with pytest.raises(NegativeRequestError):
            harvest_phase(state, {"a": -1.0}, seed=0)

    def test_total_order_invariant_property(self):
        rng = random.Random(99)
        for _ in range(50):
            requests = {f"p{i}": rng.uniform(0, 40) for i in range(4)}
            totals = set()
            for seed in range(6):
                state = fresh(n=4)
                harvest_phase(state, dict(requests), seed=seed)
                totals.add(round(100.0 - state.stock, 9))
            assert len(totals) == 1

    def test_checkpoint_after_harvest(self):
        state = fresh()
        harvest_phase(state, {"a": 5.0}, seed=0)
        assert state.channel.checkpoints == (1,)
        post_discussion(state, "let's slow down")
        state.channel.rollback_to_checkpoint()
        assert len(state.channel.events()) == 1
        assert state.history[-1].harvests == {"a": 5.0}  # untouched


class TestRegrow:
    @pytest.mark.parametrize(
        "stock,expected", [(30.0, 60.0), (60.0, 100.0), (0.0, 0.0), (50.0, 100.0)]
    )
    def test_doubling_capped(self, stock, expected):
        state = fresh()
        harvest_phase(state, {"a": 100.0 - stock}, seed=0)
        regrow(state)
        assert state.stock == expected

    def test_requires_harvest_first(self):
        state = fresh()
        with pytest.raises(ValueError):
            regrow(state)


class TestMetrics:
    def test_sustainable_is_fully_efficient(self):
        config = CommonsConfig(r0=100.0, n_agents=4)
        state = play(config, ["sustainable"] * 4, seed=7)
        m = commons_metrics(state.history, config)
        assert sum(sum(r.harvests.values()) for r in state.history) == pytest.approx(600.0)
        assert m.efficiency == pytest.approx(1.0, abs=1e-12)
        assert m.survival_time == 12
        assert m.survival_rate is True

    def test_greedy_collapses_immediately(self):
        config = CommonsConfig(r0=100.0, n_agents=4)
        state = play(config, ["greedy"] * 4, seed=7)
        m = commons_metrics(state.history, config)
        assert m.survival_time == 0
        assert m.survival_rate is False
        assert m.efficiency == pytest.approx(1.0 / 6.0, abs=1e-12)

    def test_zero_harvest_efficiency_zero(self):
        config = CommonsConfig(r0=100.0, n_agents=1)
        state = CommonsState.fresh(config)
        for _ in range(config.m):
            harvest_phase(state, {"a": 0.0}, seed=0)
            regrow(state)
        m = commons_metrics(state.history, config)
        assert m.efficiency == 0.0
        assert m.survival_time == 12

    def test_half_harvest_efficiency(self):
        # Total 300 of c=600 -> 0.5 exactly.
        config = CommonsConfig(r0=100.0, n_agents=1)
        state = CommonsState.fresh(config)
        for _ in range(config.m):
            harvest_phase(state, {"a": 25.0}, seed=0)
            regrow(state)
        m = commons_metrics(state.history, config)
        assert m.efficiency == pytest.approx(0.5, abs=1e-12)

    def test_metrics_match_exact_recomputation(self):
        # Varied scripted histories re-scored with Fraction arithmetic.
        rng = random.Random(5)
        for case in range(30):
            n = rng.choice([1, 2, 4])
            config = CommonsConfig(r0=float(rng.choice([100, 120, 210])), n_agents=n)
            kinds = [rng.choice(["sustainable", "greedy"]) for _ in range(n)]
            state = play(config, kinds, seed=case)
            m = commons_metrics(state.history, config)

            total = Fraction(0)
            survived = 0
            for record in state.history:
                for amount in record.harvests.values():
                    total += Fraction(amount)
                if Fraction(record.stock_after_harvest) > Fraction(config.gamma):
                    survived += 1
            c = Fraction(config.m) * Fraction(config.r0) / 2
            expected_eff = 1 - max(Fraction(0), c - total) / c
            assert m.survival_time == survived
            assert m.survival_rate == (survived >= config.m)
            assert abs(m.efficiency - float(expected_eff)) < 1e-12
            assert 0.0 <= m.efficiency <= 1.0

    def test_stock_bounds_property(self):
        rng = random.Random(17)
        for _ in range(20):
            config = CommonsConfig(r0=100.0, n_agents=3)
            state = CommonsState.fresh(config)
            for r in range(config.m):
                requests = {f"p{i}": rng.uniform(0, 80) for i in range(3)}
                harvest_phase(state, requests, seed=r)
                assert state.stock >= 0.0
                regrow(state)
                assert state.stock <= config.r0
