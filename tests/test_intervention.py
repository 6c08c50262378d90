"""Trigger gating, budgets, and reset semantics."""

from __future__ import annotations

import pytest

from roguewatch.commons import CommonsConfig, CommonsState, harvest_phase, post_discussion
from roguewatch.core import MessageKind, generate_game
from roguewatch.errors import InvalidInterventionError
from roguewatch.harness import ExperimentConfig, run_whodunit_game
from roguewatch.intervention import (
    InterventionKind,
    InterventionPolicy,
    TriggerBudget,
    evaluate_trigger,
    full_reset,
    round_reset,
)
from roguewatch.whodunit import Action, new_game, step


class TestEvaluateTrigger:
    def test_below_tau_with_budget_fires(self):
        budget = TriggerBudget(cap_per_role=1)
        assert evaluate_trigger(0.3, 0.5, budget, "accuser") is True
        assert budget.used["accuser"] == 1

    def test_at_cap_never_fires(self):
        budget = TriggerBudget(cap_per_role=1, used={"accuser": 1})
        assert evaluate_trigger(0.3, 0.5, budget, "accuser") is False
        assert budget.used["accuser"] == 1

    def test_strict_inequality(self):
        budget = TriggerBudget(cap_per_role=2)
        assert evaluate_trigger(0.5, 0.5, budget, "accuser") is False

    def test_caps_are_per_role(self):
        budget = TriggerBudget(cap_per_role=1)
        assert evaluate_trigger(0.1, 0.5, budget, "accuser")
        assert evaluate_trigger(0.1, 0.5, budget, "intel")
        assert not evaluate_trigger(0.1, 0.5, budget, "accuser")


class TestFullReset:
    def test_reset_restores_fresh_state(self):
        spec = generate_game("asymmetric", 5, 31, seed=1)
        state = new_game(spec)
        step(state, Action(MessageKind.REQUEST_BROAD))
        step(
            state,
            Action(MessageKind.RESPOND_BROAD, prop="hat", value="brown", broad_list=(1,)),
        )
        assert state.turn_index == 3
        full_reset(state)
        assert len(state.channel.events()) == 0
        assert state.turn_index == 1
        assert state.next_agent == "Beth"
        assert not state.terminal

    def test_reset_after_accusation_rejected(self):
        spec = generate_game("asymmetric", 5, 31, seed=1)
        state = new_game(spec)
        step(state, Action(MessageKind.ACCUSE, target=1))
        with pytest.raises(InvalidInterventionError):
            full_reset(state)


class TestRoundReset:
    def test_discussion_rolled_back_harvests_kept(self):
        config = CommonsConfig(r0=100.0, n_agents=2)
        state = CommonsState.fresh(config)
        for round_index in range(5):
            harvest_phase(state, {"a": 10.0, "b": 10.0}, seed=round_index)
            post_discussion(state, f"round {round_index} talk a")
            post_discussion(state, f"round {round_index} talk b")
        log_before = [dict(record.harvests) for record in state.history]
        messages_before = len(state.channel.events())
        round_reset(state)
        assert [record.harvests for record in state.history] == log_before
        assert len(state.channel.events()) == messages_before - 2
        assert state.channel.events()[-1][0] is MessageKind.SYSTEM

    def test_round_reset_idempotent_at_checkpoint(self):
        config = CommonsConfig(r0=50.0, n_agents=1)
        state = CommonsState.fresh(config)
        harvest_phase(state, {"a": 5.0}, seed=0)
        round_reset(state)
        round_reset(state)
        assert len(state.channel.events()) == 1


class TestNonePolicyIdentity:
    def test_none_policy_bit_identical_to_monitor_off(self):
        spec = generate_game("asymmetric", 6, 31, seed=3)
        agents = {
            "accuser": {"type": "rogue", "epsilon": 0.3},
            "intel": {"type": "scripted"},
        }
        with_none = ExperimentConfig(
            agents=agents,
            monitor={"source": "random", "p": 0.9},
            intervention=InterventionPolicy(kind=InterventionKind.NONE),
        )
        monitor_off = ExperimentConfig(
            agents=agents,
            monitor={"source": "none"},
            intervention=InterventionPolicy(kind=InterventionKind.NONE),
        )
        a = run_whodunit_game(spec, with_none, game_seed=42)
        b = run_whodunit_game(spec, monitor_off, game_seed=42)
        assert a.to_jsonl() == b.to_jsonl()


class TestResample:
    def test_resample_with_deterministic_backend_is_identity(self):
        # Documented ablation behavior: resampling a deterministic backend
        # returns the same decision, so the run matches the unmonitored one
        # except for the recorded intervention marks.
        spec = generate_game("asymmetric", 6, 31, seed=8)
        agents = {"accuser": {"type": "scripted"}, "intel": {"type": "scripted"}}
        resample = ExperimentConfig(
            agents=agents,
            monitor={"source": "random", "p": 1.0},
            intervention=InterventionPolicy(kind=InterventionKind.RESAMPLE, cap_per_role=1),
        )
        baseline = ExperimentConfig(agents=agents, monitor={"source": "none"})
        a = run_whodunit_game(spec, resample, game_seed=3)
        b = run_whodunit_game(spec, baseline, game_seed=3)
        assert a.outcome == b.outcome
        assert a.length == b.length
        assert [t.action for t in a.turns] == [t.action for t in b.turns]
        assert any(t.intervention == "resample" for t in a.turns)

    def test_policy_serialization(self):
        policy = InterventionPolicy(kind=InterventionKind.FULL_RESET, cap_per_role=2)
        assert InterventionPolicy.from_json_obj(policy.to_json_obj()) == policy


class TestCapTwo:
    def test_at_most_two_resets_per_role(self):
        agents = {
            "accuser": {"type": "rogue", "epsilon": 0.8},
            "intel": {"type": "scripted"},
        }
        config = ExperimentConfig(
            agents=agents,
            monitor={"source": "random", "p": 1.0},
            intervention=InterventionPolicy(kind=InterventionKind.FULL_RESET, cap_per_role=2),
        )
        saw_double = False
        for seed in range(20):
            spec = generate_game("asymmetric", 5, 31, seed=seed)
            trajectory = run_whodunit_game(spec, config, game_seed=seed)
            per_role: dict[str, int] = {}
            for turn in trajectory.turns:
                if turn.trigger_fired:
                    per_role[turn.role] = per_role.get(turn.role, 0) + 1
            assert all(count <= 2 for count in per_role.values())
            saw_double = saw_double or per_role.get("accuser") == 2
        assert saw_double


class TestLengthBound:
    def test_game_length_without_interventions_bounded_by_turn_limit(self):
        agents = {
            "accuser": {"type": "rogue", "epsilon": 0.4,
                        "behaviors": {"hallucinate-fact": 0.5, "repeat-query": 0.5}},
            "intel": {"type": "scripted"},
        }
        config = ExperimentConfig(agents=agents)
        for seed in range(30):
            spec = generate_game("asymmetric", 5, 11, seed=seed)
            trajectory = run_whodunit_game(spec, config, game_seed=seed)
            assert trajectory.length <= spec.turn_limit
