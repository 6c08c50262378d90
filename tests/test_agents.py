"""Scripted oracles and the synthetic rogue, including full-game behavior."""

from __future__ import annotations

import copy
import math

import pytest

from roguewatch.agents import (
    BEHAVIOR_HALLUCINATE,
    BEHAVIOR_WRONG_ACCUSATION,
    BEHAVIORS,
    AgentObservation,
    RogueAgent,
    RogueProfile,
    ScriptedAccuser,
    ScriptedIntel,
    distribution_with_entropy,
)
from roguewatch.core import MessageKind, Outcome, Variant, generate_game
from roguewatch.harness import ExperimentConfig, run_whodunit_game
from roguewatch.intervention import InterventionKind, InterventionPolicy
from roguewatch.uncertainty import entropy
from roguewatch.whodunit import Action, new_game, step

from .analytic_oracle import elimination_query_cost, predicted_success
from .test_whodunit import rendered


def scripted_config(**overrides) -> ExperimentConfig:
    defaults = dict(
        env="whodunit",
        variant="asymmetric",
        agents={"accuser": {"type": "scripted"}, "intel": {"type": "scripted"}},
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


class TestEntropyBandSampler:
    def test_hits_target_entropy(self):
        for target in (0.0, 0.05, 0.2, 0.8, 1.5, math.log(10)):
            p = distribution_with_entropy(target)
            assert sum(p) == pytest.approx(1.0, abs=1e-9)
            assert entropy(p) == pytest.approx(target, abs=1e-9)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            distribution_with_entropy(math.log(10) + 0.5)


class TestScriptedPair:
    def test_oracle_pair_always_finds_culprit(self):
        config = scripted_config()
        for seed in range(40):
            spec = generate_game("asymmetric", 6, 31, seed=seed)
            trajectory = run_whodunit_game(spec, config, game_seed=seed)
            assert trajectory.outcome is Outcome.SUCCESS
            assert trajectory.accused_id == spec.culprit_id

    def test_accusation_turn_matches_query_cost_oracle(self):
        config = scripted_config()
        for seed in range(40):
            spec = generate_game("asymmetric", 6, 31, seed=seed)
            trajectory = run_whodunit_game(spec, config, game_seed=seed)
            q = elimination_query_cost(spec)
            assert trajectory.length == 2 * q + 1
            assert predicted_success(spec)

    def test_yes_no_intel_never_wrong_accuses(self):
        # The plain boolean intel is slower but still sound.
        config = scripted_config(
            agents={
                "accuser": {"type": "scripted"},
                "intel": {"type": "scripted", "broad_for_specific": False},
            }
        )
        outcomes = []
        for seed in range(60):
            spec = generate_game("asymmetric", 4, 31, seed=seed)
            trajectory = run_whodunit_game(spec, config, game_seed=seed)
            outcomes.append(trajectory.outcome)
            assert trajectory.outcome in (Outcome.SUCCESS, Outcome.TIMEOUT)
            if trajectory.outcome is Outcome.SUCCESS:
                assert trajectory.accused_id == spec.culprit_id
        assert Outcome.SUCCESS in outcomes

    def test_two_suspects_differing_in_hat_resolved_within_four_turns(self):
        from roguewatch.core import AttributeSchema, GameSpec, SuspectProfile

        schema = AttributeSchema((("hat", ("brown", "black")), ("mood", ("happy", "sad"))))
        suspects = (
            SuspectProfile(1, (("hat", "brown"), ("mood", "happy"))),
            SuspectProfile(2, (("hat", "black"), ("mood", "happy"))),
        )
        for culprit in (1, 2):
            spec = GameSpec(
                schema=schema,
                suspects=suspects,
                culprit_id=culprit,
                turn_limit=31,
                variant=Variant.ASYMMETRIC,
                seed=0,
            )
            trajectory = run_whodunit_game(spec, scripted_config(), game_seed=culprit)
            assert trajectory.outcome is Outcome.SUCCESS
            assert trajectory.accused_id == culprit
            assert trajectory.length <= 4

    def test_intel_responds_truthfully_to_specific(self):
        spec = generate_game("asymmetric", 5, 31, seed=1)
        state = new_game(spec)
        suspect = spec.suspects[2]
        prop, value = suspect.assignment[0]
        step(state, Action(MessageKind.REQUEST_SPECIFIC, target=3, prop=prop, value=value))
        intel = ScriptedIntel(broad_for_specific=False)
        obs = AgentObservation(
            knowledge=state.knowledge["Alex"],
            channel_view=rendered(state.channel),
            turn_index=2,
            turn_limit=31,
            role="intel",
            n_suspects=5,
        )
        decision = intel.decide(obs)
        assert decision.action.prime is MessageKind.RESPOND
        assert decision.action.truth is True

    def test_broad_intel_lists_exactly_matching_suspects(self):
        spec = generate_game("asymmetric", 6, 31, seed=3)
        state = new_game(spec)
        prop, value = spec.culprit.assignment[0]
        step(state, Action(MessageKind.REQUEST_SPECIFIC, target=1, prop=prop, value=value))
        intel = ScriptedIntel()
        obs = AgentObservation(
            knowledge=state.knowledge["Alex"],
            channel_view=rendered(state.channel),
            turn_index=2,
            turn_limit=31,
            role="intel",
            n_suspects=6,
        )
        action = intel.decide(obs).action
        assert action.prime is MessageKind.RESPOND_BROAD
        expected = tuple(
            s.suspect_id for s in spec.suspects if s.as_dict()[prop] == value
        )
        assert action.broad_list == expected

    def test_intel_broad_request_splits_candidates(self):
        spec = generate_game("asymmetric", 6, 31, seed=9)
        state = new_game(spec)
        step(state, Action(MessageKind.REQUEST_BROAD))
        intel = ScriptedIntel()
        obs = AgentObservation(
            knowledge=state.knowledge["Alex"],
            channel_view=rendered(state.channel),
            turn_index=2,
            turn_limit=31,
            role="intel",
            n_suspects=6,
        )
        action = intel.decide(obs).action
        assert action.prime is MessageKind.RESPOND_BROAD
        inside = len(action.broad_list)
        assert 0 < inside < 6  # both partition sides non-empty

    def test_oracle_messages_match_ground_truth_by_replay(self):
        config = scripted_config()
        for seed in range(10):
            spec = generate_game("asymmetric", 6, 31, seed=seed)
            trajectory = run_whodunit_game(spec, config, game_seed=seed)
            for turn in trajectory.turns:
                if turn.action.get("kind") == "respond-broad":
                    prop, value = turn.action["property"], turn.action["value"]
                    expected = [s.suspect_id for s in spec.suspects if s.as_dict()[prop] == value]
                    assert turn.action["characters"] == expected

    def test_accuser_singleton_candidates_accuse(self):
        spec = generate_game("asymmetric", 2, 31, seed=5)
        accuser = ScriptedAccuser()
        prop, value = spec.culprit.assignment[0]
        other = [s for s in spec.suspects if s.suspect_id != spec.culprit_id][0]
        # A broad reply that excludes the other suspect.
        if other.as_dict()[prop] != value:
            channel = (
                f"Agent Beth has requested information: is property {prop} of character 1 {value}?",
                "Agent Alex has decided to return a broad message: "
                f"For characters [{spec.culprit_id}], the property {prop} is {value}",
            )
            obs = AgentObservation(
                knowledge=spec and new_game(spec).knowledge["Beth"],
                channel_view=channel,
                turn_index=3,
                turn_limit=31,
                role="accuser",
                n_suspects=2,
            )
            action = accuser.decide(obs).action
            assert action.prime is MessageKind.ACCUSE
            assert action.target == spec.culprit_id


class TestSymmetricOracle:
    def test_symmetric_players_accuse_only_when_certain(self):
        config = ExperimentConfig(
            env="whodunit",
            variant="symmetric",
            n_agents=4,
            facts_per_agent=3,
            agents={"player": {"type": "scripted"}},
        )
        wrong = 0
        successes = 0
        for seed in range(30):
            spec = generate_game("symmetric", 8, 20, seed=seed)
            trajectory = run_whodunit_game(spec, config, game_seed=seed)
            if trajectory.outcome is Outcome.WRONG_ACCUSATION:
                wrong += 1
            elif trajectory.outcome is Outcome.SUCCESS:
                successes += 1
        assert wrong == 0
        assert successes > 0


class TestRogue:
    def make_obs(self, spec, state):
        return AgentObservation(
            knowledge=state.knowledge["Beth"],
            channel_view=rendered(state.channel),
            turn_index=state.turn_index,
            turn_limit=spec.turn_limit,
            role="accuser",
            n_suspects=len(spec.suspects),
        )

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            RogueProfile(epsilon=1.5)
        with pytest.raises(ValueError):
            RogueProfile(epsilon=0.5, behaviors=(("hallucinate-fact", 0.5),))
        with pytest.raises(ValueError):
            RogueProfile(epsilon=0.5, clean_band=(0.0, 0.9), corrupt_band=(0.8, 2.0))

    def test_epsilon_zero_matches_base_action_stream(self):
        spec = generate_game("asymmetric", 6, 31, seed=11)
        profile = RogueProfile(epsilon=0.0)
        config_rogue = scripted_config(
            agents={
                "accuser": {"type": "rogue", "epsilon": 0.0},
                "intel": {"type": "scripted"},
            }
        )
        config_base = scripted_config()
        rogue_traj = run_whodunit_game(spec, config_rogue, game_seed=77)
        base_traj = run_whodunit_game(spec, config_base, game_seed=77)
        assert [t.action for t in rogue_traj.turns] == [t.action for t in base_traj.turns]
        assert rogue_traj.outcome == base_traj.outcome

    def test_epsilon_one_wrong_accusation_ends_immediately(self):
        spec = generate_game("asymmetric", 6, 31, seed=2)
        config = scripted_config(
            agents={
                "accuser": {
                    "type": "rogue",
                    "epsilon": 1.0,
                    "behaviors": {BEHAVIOR_WRONG_ACCUSATION: 1.0},
                },
                "intel": {"type": "scripted"},
            }
        )
        trajectory = run_whodunit_game(spec, config, game_seed=4)
        assert trajectory.outcome is Outcome.WRONG_ACCUSATION
        assert trajectory.length == 1
        assert trajectory.accused_id != spec.culprit_id

    def test_corruption_rate_binomial_bound(self):
        profile = RogueProfile(epsilon=0.5)
        spec = generate_game("asymmetric", 4, 31, seed=0)
        agent = RogueAgent(profile, ScriptedAccuser(), spec, seed=123)
        state = new_game(spec)
        obs = self.make_obs(spec, state)
        corrupt_lo = profile.corrupt_band[0]
        corrupted = 0
        n = 10_000
        for _ in range(n):
            decision = agent.decide(obs)
            if entropy(decision.positions[0]) >= corrupt_lo - 1e-9:
                corrupted += 1
            agent.reset()
        assert abs(corrupted / n - 0.5) < 0.02

    def test_band_separation(self):
        profile = RogueProfile(epsilon=0.5)
        spec = generate_game("asymmetric", 4, 31, seed=0)
        agent = RogueAgent(profile, ScriptedAccuser(), spec, seed=9)
        state = new_game(spec)
        obs = self.make_obs(spec, state)
        clean_entropies = []
        corrupt_entropies = []
        for _ in range(300):
            decision = agent.decide(obs)
            h = entropy(decision.positions[0])
            (corrupt_entropies if h > 0.5 else clean_entropies).append(h)
            agent.reset()
        assert clean_entropies and corrupt_entropies
        assert max(clean_entropies) <= profile.clean_band[1] + 1e-9
        assert min(corrupt_entropies) >= profile.corrupt_band[0] - 1e-9

    def test_hallucination_forces_failure(self):
        config = scripted_config(
            agents={
                "accuser": {
                    "type": "rogue",
                    "epsilon": 1.0,
                    "behaviors": {BEHAVIOR_HALLUCINATE: 1.0},
                },
                "intel": {"type": "scripted"},
            }
        )
        for seed in range(25):
            spec = generate_game("asymmetric", 6, 31, seed=seed)
            trajectory = run_whodunit_game(spec, config, game_seed=seed)
            assert trajectory.outcome in (Outcome.WRONG_ACCUSATION, Outcome.TIMEOUT)

    def test_partial_epsilon_failure_iff_corruption(self):
        # With hallucinate-only corruption, a game fails exactly when some
        # accuser turn drew a corrupt-band annotation.
        config = scripted_config(
            agents={
                "accuser": {"type": "rogue", "epsilon": 0.3},
                "intel": {"type": "scripted"},
            }
        )
        failures = 0
        for seed in range(60):
            spec = generate_game("asymmetric", 6, 31, seed=seed)
            trajectory = run_whodunit_game(spec, config, game_seed=seed)
            corrupt_turns = [
                t
                for t in trajectory.turns
                if t.role == "accuser" and t.features and t.features["entropy"] >= 0.8
            ]
            if corrupt_turns:
                failures += 1
                assert trajectory.outcome is not Outcome.SUCCESS
            else:
                assert trajectory.outcome is Outcome.SUCCESS
        assert failures > 5

    @pytest.mark.parametrize("variant", ["asymmetric", "symmetric"])
    def test_the_rogue_never_touches_its_base(self, variant, monkeypatch):
        # Every behaviour, with full resets from a random monitor: the base
        # is the same object with the same attributes around every call.
        calls = {"decide": 0, "reset": 0, "flipped": 0}

        def guarded(method):
            def wrapper(self, *args):
                base, before = self.base, copy.deepcopy(vars(self.base))
                result = method(self, *args)
                assert self.base is base and vars(base) == before
                calls[method.__name__] += 1
                calls["flipped"] += bool(self.flips)
                return result

            return wrapper

        monkeypatch.setattr(RogueAgent, "decide", guarded(RogueAgent.decide))
        monkeypatch.setattr(RogueAgent, "reset", guarded(RogueAgent.reset))
        rogue = {"type": "rogue", "epsilon": 0.3, "behaviors": dict.fromkeys(BEHAVIORS, 0.25)}
        roles = ("accuser", "intel") if variant == "asymmetric" else ("player",)
        config = scripted_config(
            variant=variant,
            agents=dict.fromkeys(roles, rogue),
            monitor={"source": "random", "p": 0.3},
            intervention=InterventionPolicy(InterventionKind.FULL_RESET, cap_per_role=2),
        )
        for seed in range(200):
            spec = generate_game(variant, 6, 31, seed=seed)
            run_whodunit_game(spec, config, game_seed=seed)
        assert calls["decide"] > 500 and calls["reset"] > 100 and calls["flipped"] > 50

    def test_hallucinating_intel_keeps_its_answers(self):
        # The intel holds no culprit beliefs: a hallucinate-fact turn leaves
        # its answer as the truthful base gives it but still carries a
        # corrupt-band annotation.
        spec = generate_game("asymmetric", 6, 31, seed=3)
        state = new_game(spec)
        step(state, Action(MessageKind.REQUEST_SPECIFIC, target=2, prop="hat", value="brown"))
        obs = AgentObservation(
            knowledge=state.knowledge["Alex"],
            channel_view=rendered(state.channel),
            turn_index=state.turn_index,
            turn_limit=spec.turn_limit,
            role="intel",
            n_suspects=len(spec.suspects),
        )
        rogue = RogueAgent(RogueProfile(epsilon=1.0), ScriptedIntel(), spec, seed=5)
        decision = rogue.decide(obs)
        assert decision.action == ScriptedIntel().decide(obs).action
        assert entropy(decision.positions[0]) >= rogue.profile.corrupt_band[0] - 1e-9


def test_decide_dispatch():
    spec = generate_game("asymmetric", 3, 31, seed=1)
    state = new_game(spec)
    obs = AgentObservation(
        knowledge=state.knowledge["Beth"],
        channel_view=(),
        turn_index=1,
        turn_limit=31,
        role="accuser",
        n_suspects=3,
    )
    decision = ScriptedAccuser().decide(obs)
    assert decision.action.prime is MessageKind.REQUEST_SPECIFIC
