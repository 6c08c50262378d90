"""Environment rules: templates, legality, termination, metrics, dealing."""

from __future__ import annotations

import dataclasses

import pytest

from roguewatch.core import (
    AttributeSchema,
    GameSpec,
    MessageKind,
    Outcome,
    Trajectory,
    TurnRecord,
    Variant,
    generate_game,
)
from roguewatch.errors import IllegalActionError, InfeasibleRequestError
from roguewatch.harness import run_metrics
from roguewatch.whodunit import (
    ROLE_ACCUSER,
    ROLE_INTEL,
    ROLE_PLAYER,
    TEMPLATES,
    Action,
    consume_turn,
    deal_symmetric_facts,
    new_game,
    parse_rendered,
    render,
    step,
)


def rendered(channel) -> list[str]:
    """The channel's lines, rendered from its events."""
    return [render(kind, **fields) for kind, fields in channel.events()]


def tiny_spec(hats=("brown", "black", "brown"), culprit=2, moods=("happy", "sad", "sad")) -> GameSpec:
    """Three suspects distinguished by hat and mood."""
    schema = AttributeSchema((("hat", ("brown", "black")), ("mood", ("happy", "sad"))))
    suspects = tuple(
        type(generate_game("asymmetric", 2, 5, 0).suspects[0])(
            suspect_id=i + 1, assignment=(("hat", hats[i]), ("mood", moods[i]))
        )
        for i in range(3)
    )
    return GameSpec(
        schema=schema,
        suspects=suspects,
        culprit_id=culprit,
        turn_limit=31,
        variant=Variant.ASYMMETRIC,
        seed=0,
    )


class TestTemplates:
    def test_request_specific_rendering(self):
        state = new_game(tiny_spec())
        step(state, Action(MessageKind.REQUEST_SPECIFIC, target=1, prop="hat", value="brown"))
        assert rendered(state.channel) == [
            "Agent Beth has requested information: is property hat of character 1 brown?"
        ]

    def test_respond_rendering_yes_and_no(self):
        state = new_game(tiny_spec())
        step(state, Action(MessageKind.REQUEST_SPECIFIC, target=1, prop="hat", value="brown"))
        step(state, Action(MessageKind.RESPOND, truth=True))
        assert rendered(state.channel)[-1] == (
            "Agent Alex has responded that character 1 is brown"
        )
        step(state, Action(MessageKind.REQUEST_SPECIFIC, target=2, prop="hat", value="brown"))
        step(state, Action(MessageKind.RESPOND, truth=False))
        assert rendered(state.channel)[-1] == (
            "Agent Alex has responded that character 2 is not brown"
        )

    def test_broad_rendering(self):
        state = new_game(tiny_spec())
        step(state, Action(MessageKind.REQUEST_BROAD))
        assert rendered(state.channel) == [
            "Agent Beth has asked for general information (a broad message)"
        ]
        step(
            state,
            Action(
                MessageKind.RESPOND_BROAD, prop="hat", value="brown", broad_list=(1, 3)
            ),
        )
        assert rendered(state.channel)[-1] == (
            "Agent Alex has decided to return a broad message: "
            "For characters [1, 3], the property hat is brown"
        )

    def test_accuse_and_share_and_skip_rendering(self):
        spec = generate_game("symmetric", 5, 20, seed=3)
        state = new_game(spec, n_agents=2, facts_per_agent=2, deal_seed=1)
        first = state.next_agent
        fact = state.knowledge[first].culprit_facts[0]
        step(state, Action(MessageKind.SHARE, fact_index=0))
        assert rendered(state.channel)[0] == (
            f"Player {first} has decided to share a fact about the Winner: "
            f"their {fact[0]} is {fact[1]}."
        )
        second = state.next_agent
        step(state, Action(MessageKind.SKIP))
        assert rendered(state.channel)[1] == (
            f"Player {second} has decided to skip their turn."
        )
        step(state, Action(MessageKind.ACCUSE, target=spec.culprit_id))
        assert rendered(state.channel)[2] == f"The winner is {spec.culprit_id}."

    def test_parse_roundtrip(self):
        state = new_game(tiny_spec())
        step(state, Action(MessageKind.REQUEST_SPECIFIC, target=2, prop="mood", value="sad"))
        step(state, Action(MessageKind.RESPOND, truth=True))
        parsed = [parse_rendered(t) for t in rendered(state.channel)]
        assert parsed[0]["kind"] is MessageKind.REQUEST_SPECIFIC
        assert parsed[0]["target"] == 2
        assert parsed[0]["property"] == "mood"
        assert parsed[0]["value"] == "sad"
        assert parsed[1]["kind"] is MessageKind.RESPOND
        assert parsed[1]["truth"] is True
        assert parse_rendered("free-form chatter") is None


# One message of every kind, with the fields it is rendered from.
EVERY_KIND = [
    (MessageKind.REQUEST_SPECIFIC, {"property": "mood", "target": 2, "value": "sad"}),
    (MessageKind.RESPOND_BROAD, {"characters": (1, 3), "property": "hat", "value": "brown"}),
    (MessageKind.RESPOND_BROAD, {"characters": (), "property": "hat", "value": "black"}),
    (MessageKind.RESPOND, {"target": 1, "truth": True, "value": "brown"}),
    (MessageKind.RESPOND, {"target": 12, "truth": False, "value": "dark brown"}),
    (MessageKind.REQUEST_BROAD, {}),
    (MessageKind.SHARE, {"property": "shirt_color", "value": "pink"}),
    (MessageKind.ACCUSE, {"target": 3}),
    (MessageKind.SKIP, {}),
]


class TestTemplateTable:
    def test_every_kind_has_a_case(self):
        assert {kind for kind, _ in EVERY_KIND} == set(TEMPLATES)

    @pytest.mark.parametrize("kind, fields", EVERY_KIND)
    def test_a_rendered_message_parses_back_to_its_kind_and_fields(self, kind, fields):
        line = render(kind, name="Carol", **fields)
        named = {} if kind is MessageKind.ACCUSE else {"name": "Carol"}
        assert parse_rendered(line) == {"kind": kind, **named, **fields}

    def test_step_keeps_the_fields_it_rendered(self):
        state = new_game(tiny_spec())
        step(state, Action(MessageKind.REQUEST_SPECIFIC, target=1, prop="hat", value="brown"))
        step(state, Action(MessageKind.RESPOND, truth=False))
        (_, request), (_, answer) = state.channel.events()
        assert request == {"target": 1, "property": "hat", "value": "brown", "name": "Beth"}
        assert answer == {**request, "truth": False, "name": "Alex"}
        assert rendered(state.channel)[1] == render(MessageKind.RESPOND, **answer)


class TestStep:
    def test_accuse_culprit_succeeds(self):
        state = new_game(tiny_spec(culprit=2))
        step(state, Action(MessageKind.ACCUSE, target=2))
        assert state.outcome is Outcome.SUCCESS
        assert state.accused_id == 2

    def test_accuse_other_fails(self):
        state = new_game(tiny_spec(culprit=2))
        step(state, Action(MessageKind.ACCUSE, target=1))
        assert state.outcome is Outcome.WRONG_ACCUSATION

    def test_accusation_is_checkpointed(self):
        state = new_game(tiny_spec())
        step(state, Action(MessageKind.ACCUSE, target=1))
        assert state.channel.checkpoints == (1,)

    def test_timeout_at_turn_limit(self):
        spec = tiny_spec()
        state = new_game(spec)
        for i in range(spec.turn_limit):
            assert not state.terminal
            if state.next_agent == "Beth":
                step(state, Action(MessageKind.REQUEST_SPECIFIC, target=1, prop="hat", value="brown"))
            else:
                step(state, Action(MessageKind.RESPOND, truth=True))
        assert state.outcome is Outcome.TIMEOUT
        assert len(state.channel.events()) == spec.turn_limit

    def test_round_robin_alternates(self):
        state = new_game(tiny_spec())
        seen = []
        for _ in range(6):
            seen.append(state.next_agent)
            if state.next_agent == "Beth":
                step(state, Action(MessageKind.REQUEST_BROAD))
            else:
                step(state, Action(MessageKind.RESPOND_BROAD, prop="hat", value="brown", broad_list=(1,)))
        assert seen == ["Beth", "Alex"] * 3

    def test_role_forbidden_action(self):
        state = new_game(tiny_spec())
        with pytest.raises(IllegalActionError):
            step(state, Action(MessageKind.RESPOND, truth=True))

    def test_respond_without_pending_request(self):
        state = new_game(tiny_spec())
        step(state, Action(MessageKind.REQUEST_BROAD))
        with pytest.raises(IllegalActionError):
            step(state, Action(MessageKind.RESPOND, truth=True))

    def test_terminal_state_rejects_actions(self):
        state = new_game(tiny_spec())
        step(state, Action(MessageKind.ACCUSE, target=1))
        with pytest.raises(IllegalActionError):
            step(state, Action(MessageKind.REQUEST_BROAD))

    def test_skip_consumes_a_turn(self):
        spec = generate_game("symmetric", 4, 3, seed=8)
        state = new_game(spec, n_agents=3, facts_per_agent=2, deal_seed=0)
        for _ in range(3):
            step(state, Action(MessageKind.SKIP))
        assert state.outcome is Outcome.TIMEOUT


# One action of each kind whose fields are valid on tiny_spec (the share
# needs a sender that holds at least one culprit fact).
VALID_ACTIONS = {
    MessageKind.REQUEST_SPECIFIC: Action(
        MessageKind.REQUEST_SPECIFIC, target=1, prop="hat", value="brown"
    ),
    MessageKind.REQUEST_BROAD: Action(MessageKind.REQUEST_BROAD),
    MessageKind.ACCUSE: Action(MessageKind.ACCUSE, target=2),
    MessageKind.RESPOND: Action(MessageKind.RESPOND, truth=True),
    MessageKind.RESPOND_BROAD: Action(
        MessageKind.RESPOND_BROAD, prop="hat", value="brown", broad_list=(1, 3)
    ),
    MessageKind.SHARE: Action(MessageKind.SHARE, fact_index=0),
    MessageKind.SKIP: Action(MessageKind.SKIP),
}


def state_for(role: str):
    """A game on tiny_spec with an agent of ``role`` to act and a specific
    request pending, so that every action in VALID_ACTIONS has valid fields."""
    request = VALID_ACTIONS[MessageKind.REQUEST_SPECIFIC]
    if role == ROLE_PLAYER:
        spec = dataclasses.replace(tiny_spec(), variant=Variant.SYMMETRIC)
        return new_game(spec, n_agents=2, facts_per_agent=1)
    state = new_game(tiny_spec())
    step(state, request)  # the accuser asks; the intel is to act
    if role == ROLE_ACCUSER:
        consume_turn(state)  # the intel's turn passes; the request stays pending
    return state


# The kinds each role may send, as the paper states them.
SENDS = {
    ROLE_ACCUSER: {MessageKind.REQUEST_SPECIFIC, MessageKind.REQUEST_BROAD, MessageKind.ACCUSE},
    ROLE_INTEL: {MessageKind.RESPOND, MessageKind.RESPOND_BROAD},
    ROLE_PLAYER: {MessageKind.SHARE, MessageKind.ACCUSE, MessageKind.SKIP},
}

# One action of each kind and its trajectory JSON.
JSON_OBJECTS = [
    (
        VALID_ACTIONS[MessageKind.REQUEST_SPECIFIC],
        {"kind": "request-specific", "target": 1, "property": "hat", "value": "brown"},
    ),
    (VALID_ACTIONS[MessageKind.REQUEST_BROAD], {"kind": "request-broad"}),
    (VALID_ACTIONS[MessageKind.ACCUSE], {"kind": "accuse", "target": 2}),
    (VALID_ACTIONS[MessageKind.RESPOND], {"kind": "respond", "truth": True}),
    (
        VALID_ACTIONS[MessageKind.RESPOND_BROAD],
        {"kind": "respond-broad", "property": "hat", "value": "brown", "characters": [1, 3]},
    ),
    (
        Action(MessageKind.SHARE, fact_index=0, fact=("hat", "brown")),
        {"kind": "share", "fact_index": 0, "fact": ["hat", "brown"]},
    ),
    (VALID_ACTIONS[MessageKind.SKIP], {"kind": "skip"}),
]


class TestRoleTable:
    @pytest.mark.parametrize("kind", list(VALID_ACTIONS), ids=lambda k: k.value)
    @pytest.mark.parametrize("role", list(SENDS))
    def test_step_accepts_exactly_the_role_kinds(self, role, kind):
        state = state_for(role)
        assert state.role_of(state.next_agent) == role
        before = (rendered(state.channel), state.turn_index, state.next_agent)
        if kind in SENDS[role]:
            step(state, VALID_ACTIONS[kind])
            assert state.channel.events()[-1][0] is kind
            assert state.turn_index == before[1] + 1
        else:
            with pytest.raises(IllegalActionError, match="cannot send"):
                step(state, VALID_ACTIONS[kind])
            assert (rendered(state.channel), state.turn_index, state.next_agent) == before
            assert state.outcome is None

    @pytest.mark.parametrize(
        "action,obj", JSON_OBJECTS, ids=[obj["kind"] for _, obj in JSON_OBJECTS]
    )
    def test_to_json_obj(self, action, obj):
        assert action.to_json_obj() == obj


class TestDealing:
    def test_disjoint_true_facts(self):
        spec = generate_game("symmetric", 20, 20, seed=21)
        knowledge = deal_symmetric_facts(spec, 4, 3, seed=5)
        culprit_values = spec.culprit.as_dict()
        seen_props = []
        for ks in knowledge.values():
            assert len(ks.culprit_facts) == 3
            for prop, value in ks.culprit_facts:
                assert culprit_values[prop] == value
                seen_props.append(prop)
        assert len(seen_props) == 12
        assert len(set(seen_props)) == 12

    def test_single_agent_single_fact(self):
        spec = generate_game("symmetric", 3, 20, seed=2)
        knowledge = deal_symmetric_facts(spec, 1, 1, seed=0)
        (ks,) = knowledge.values()
        prop, value = ks.culprit_facts[0]
        assert spec.culprit.as_dict()[prop] == value

    def test_infeasible_when_facts_exceed_attributes(self):
        spec = generate_game("symmetric", 3, 20, seed=2)
        with pytest.raises(InfeasibleRequestError):
            deal_symmetric_facts(spec, 7, 3, seed=0)

    def test_deterministic_per_seed(self):
        spec = generate_game("symmetric", 6, 20, seed=4)
        assert deal_symmetric_facts(spec, 4, 3, seed=9) == deal_symmetric_facts(
            spec, 4, 3, seed=9
        )


class TestMetrics:
    @staticmethod
    def fake_traj(spec, outcome, accused, length):
        traj = Trajectory(game=spec, outcome=outcome, accused_id=accused)
        for i in range(1, length + 1):
            traj.turns.append(
                TurnRecord(
                    turn_index=i,
                    dialog_index=i,
                    agent_id="Beth",
                    role="accuser",
                    action={"kind": "skip"},
                    features=None,
                )
            )
        return traj

    def test_all_accused_example(self):
        spec = tiny_spec()
        trajs = [
            self.fake_traj(spec, Outcome.SUCCESS, spec.culprit_id, 5) for _ in range(108)
        ] + [self.fake_traj(spec, Outcome.WRONG_ACCUSATION, 1, 5) for _ in range(72)]
        m = run_metrics("whodunit", [t.summary() for t in trajs])
        assert m["success_rate"] == pytest.approx(60.0)
        assert m["precision"] == pytest.approx(60.0)

    def test_mixed_outcomes_hand_count(self):
        spec = tiny_spec()
        trajs = [
            self.fake_traj(spec, Outcome.SUCCESS, spec.culprit_id, 3),
            self.fake_traj(spec, Outcome.SUCCESS, spec.culprit_id, 5),
            self.fake_traj(spec, Outcome.WRONG_ACCUSATION, 1, 7),
            self.fake_traj(spec, Outcome.TIMEOUT, None, 31),
        ]
        m = run_metrics("whodunit", [t.summary() for t in trajs])
        assert m["success_rate"] == pytest.approx(50.0)
        assert m["precision"] == pytest.approx(100.0 * 2 / 3)
        assert m["avg_length"] == pytest.approx((3 + 5 + 7 + 31) / 4)

    def test_precision_absent_without_accusations(self):
        spec = tiny_spec()
        trajs = [self.fake_traj(spec, Outcome.TIMEOUT, None, 31) for _ in range(3)]
        m = run_metrics("whodunit", [t.summary() for t in trajs])
        assert m["success_rate"] == 0.0
        assert m["precision"] is None
