"""LLM client wire handling, position extraction, and the agent glue,
all against fake transports (no network)."""

from __future__ import annotations

import json
import math
import urllib.error

import pytest

from roguewatch.agents import AgentObservation
from roguewatch.core import MessageKind, generate_game
from roguewatch.errors import ApiError, MalformedGenerationError
from roguewatch.llm import (
    LlmAgent,
    LlmClient,
    LlmConfig,
    extract_positions,
    parse_accuser_output,
    parse_intel_output,
    parse_symmetric_output,
)
from roguewatch.uncertainty import entropy
from roguewatch.whodunit import new_game

CONFIG = LlmConfig(endpoint="http://fake.test/v1/chat/completions", model="fake")


def completion_payload(text: str, tokens: list[str] | None = None) -> dict:
    tokens = tokens if tokens is not None else [text]
    content = []
    for token in tokens:
        content.append(
            {
                "token": token,
                "logprob": -0.1,
                "top_logprobs": [
                    {"token": token, "logprob": -0.1},
                    {"token": "alt", "logprob": -2.5},
                ],
            }
        )
    return {
        "choices": [
            {"message": {"content": text}, "logprobs": {"content": content}}
        ]
    }


class TestClient:
    def test_happy_path(self):
        def transport(config, payload):
            assert payload["temperature"] == 0.0
            assert payload["top_logprobs"] == 10
            assert payload["logprobs"] is True
            assert payload["messages"][0]["role"] == "system"
            return completion_payload("hello", ["hel", "lo"])

        client = LlmClient(CONFIG, transport=transport)
        text, per_token, tokens = client.complete_with_logprobs("sys", "user")
        assert text == "hello"
        assert tokens == ["hel", "lo"]
        assert len(per_token) == 2
        assert per_token[0][0] == ("hel", -0.1)

    def test_retries_then_api_error(self):
        calls = {"n": 0}

        def transport(config, payload):
            calls["n"] += 1
            raise urllib.error.URLError("down")

        client = LlmClient(CONFIG, transport=transport)
        with pytest.raises(ApiError):
            client.complete_with_logprobs("sys", "user")
        assert calls["n"] == CONFIG.retry_budget + 1

    def test_transient_failure_recovers(self):
        calls = {"n": 0}

        def transport(config, payload):
            calls["n"] += 1
            if calls["n"] == 1:
                raise urllib.error.URLError("blip")
            return completion_payload("ok")

        client = LlmClient(CONFIG, transport=transport)
        text, _, _ = client.complete_with_logprobs("sys", "user")
        assert text == "ok"


    @pytest.mark.parametrize(
        "bad",
        [
            {"choices": []},
            {"choices": [None]},
            {"choices": "x"},
            {"choices": [{"message": "x"}]},
            {"choices": [{"message": {"content": None}}]},
        ],
    )
    def test_reply_of_the_wrong_shape_is_retried(self, bad):
        calls = {"n": 0}

        def transport(config, payload):
            calls["n"] += 1
            return bad if calls["n"] == 1 else completion_payload("ok")

        text, _, _ = LlmClient(CONFIG, transport=transport).complete_with_logprobs("sys", "user")
        assert (text, calls["n"]) == ("ok", 2)

        client = LlmClient(CONFIG, transport=lambda config, payload: bad)
        with pytest.raises(ApiError, match="completion .*(choice|message|content)"):
            client.complete_with_logprobs("sys", "user")


class TestExtractPositions:
    def test_numeral_token_selected(self):
        text = '{"character": 3}'
        tokens = ['{"character"', ":", " ", "3", "}"]
        per_token = [
            [(t, -0.2), ("x", -3.0)] for t in tokens
        ]
        vectors = extract_positions(text, per_token, tokens, env_kind="whodunit")
        assert len(vectors) == 1
        assert sum(vectors[0]) == pytest.approx(1.0, abs=1e-12)

    def test_no_numerals_no_signal(self):
        tokens = ["nothing", " here"]
        per_token = [[(t, -0.1)] for t in tokens]
        assert extract_positions("nothing here", per_token, tokens) == []

    def test_renormalization(self):
        # Top-10 masses summing to 0.8 scale up to exactly 1.
        tokens = ["7"]
        masses = [0.3, 0.2, 0.1, 0.1, 0.05, 0.05]
        per_token = [[(str(i), math.log(m)) for i, m in enumerate(masses)]]
        (vector,) = extract_positions("7", per_token, tokens)
        assert sum(vector) == pytest.approx(1.0, abs=1e-12)
        assert vector[0] == pytest.approx(0.3 / 0.8)
        assert entropy(vector) <= math.log(len(vector)) + 1e-12

    def test_multi_token_numeral_contributes_each_token(self):
        text = "character 12 maybe"
        tokens = ["character ", "1", "2", " maybe"]
        per_token = [[(t, -0.5), ("y", -1.5)] for t in tokens]
        vectors = extract_positions(text, per_token, tokens)
        assert len(vectors) == 2

    def test_commons_decimals(self):
        text = "harvest 12.5 fish"
        tokens = ["harvest ", "12", ".", "5", " fish"]
        per_token = [[(t, -0.4)] for t in tokens]
        whodunit = extract_positions(text, per_token, tokens, env_kind="whodunit")
        commons = extract_positions(text, per_token, tokens, env_kind="commons")
        assert len(commons) == 3  # "12", ".", "5"
        assert len(whodunit) == 2  # "12" and "5" as separate integers

    def test_pure_function(self):
        text = "pick 4"
        tokens = ["pick ", "4"]
        per_token = [[(t, -0.3), ("z", -2.0)] for t in tokens]
        first = extract_positions(text, per_token, tokens)
        second = extract_positions(text, per_token, tokens)
        assert first == second


class TestActionParsing:
    def test_accuser_request_specific(self):
        text = json.dumps(
            {"thoughts": "...", "action": 1, "character": 3, "property": "hat", "value": "brown"}
        )
        action = parse_accuser_output(text)
        assert action.prime is MessageKind.REQUEST_SPECIFIC
        assert (action.target, action.prop, action.value) == (3, "hat", "brown")

    def test_accuser_award_with_surrounding_prose(self):
        text = 'Sure!\n```json\n{"thoughts": "done", "action": 3, "character": 7}\n```\nend'
        action = parse_accuser_output(text)
        assert action.prime is MessageKind.ACCUSE
        assert action.target == 7

    def test_missing_action_malformed(self):
        with pytest.raises(MalformedGenerationError):
            parse_accuser_output('{"thoughts": "hmm"}')

    def test_unparseable_malformed(self):
        with pytest.raises(MalformedGenerationError):
            parse_accuser_output("no json at all")

    def test_intel_boolean_and_broad(self):
        yes = parse_intel_output('{"action": 1, "value": true}')
        assert yes.prime is MessageKind.RESPOND and yes.truth is True
        broad = parse_intel_output(
            '{"action": 2, "value": "shirt-button-up", "character": [1, 4]}'
        )
        assert broad.prime is MessageKind.RESPOND_BROAD
        assert broad.prop == "shirt"
        assert broad.value == "button-up"  # split only on the first dash
        assert broad.broad_list == (1, 4)

    def test_symmetric_actions(self):
        share = parse_symmetric_output('{"action": 1, "fact": 2}')
        assert share.prime is MessageKind.SHARE and share.fact_index == 1
        award = parse_symmetric_output('{"action": 2, "character": 5}')
        assert award.prime is MessageKind.ACCUSE and award.target == 5
        skip = parse_symmetric_output('{"action": 3}')
        assert skip.prime is MessageKind.SKIP


class TestLlmAgent:
    def make_obs(self, role="accuser"):
        spec = generate_game("asymmetric", 4, 31, seed=6)
        state = new_game(spec)
        agent_id = "Beth" if role == "accuser" else "Alex"
        return AgentObservation(
            knowledge=state.knowledge[agent_id],
            channel_view=(),
            turn_index=1,
            turn_limit=31,
            role=role,
            n_suspects=4,
        )

    def test_valid_turn_parses_and_annotates(self):
        reply = json.dumps(
            {"thoughts": "ask about character 2", "action": 1, "character": 2,
             "property": "hat", "value": "brown"}
        )

        def transport(config, payload):
            assert "Winner is described as" in payload["messages"][0]["content"]
            return completion_payload(reply, [reply])

        agent = LlmAgent(LlmClient(CONFIG, transport=transport), "accuser", "Beth", "Alex")
        decision = agent.decide(self.make_obs())
        assert decision.action.prime is MessageKind.REQUEST_SPECIFIC
        assert decision.positions  # numerals appear in the reply

    def test_malformed_retries_once_with_reminder(self):
        calls = []

        def transport(config, payload):
            calls.append(payload["messages"][1]["content"])
            if len(calls) == 1:
                return completion_payload("I refuse to answer in JSON")
            return completion_payload('{"action": 2}')

        agent = LlmAgent(LlmClient(CONFIG, transport=transport), "accuser", "Beth", "Alex")
        decision = agent.decide(self.make_obs())
        assert decision.action.prime is MessageKind.REQUEST_BROAD
        assert len(calls) == 2
        assert "Reminder" in calls[1]

    def test_double_malformed_raises(self):
        def transport(config, payload):
            return completion_payload("still not json")

        agent = LlmAgent(LlmClient(CONFIG, transport=transport), "accuser", "Beth", "Alex")
        with pytest.raises(MalformedGenerationError):
            agent.decide(self.make_obs())

    def test_symmetric_prompt_counts_all_players(self):
        spec = generate_game("symmetric", 5, 20, seed=2)
        state = new_game(spec, n_agents=4, facts_per_agent=3, deal_seed=0)
        me = state.order[0]
        others = ", ".join(a for a in state.order if a != me)
        seen = {}

        def transport(config, payload):
            seen["system"] = payload["messages"][0]["content"]
            return completion_payload('{"action": 3}')

        agent = LlmAgent(LlmClient(CONFIG, transport=transport), "player", me, others)
        obs = AgentObservation(
            knowledge=state.knowledge[me],
            channel_view=(),
            turn_index=1,
            turn_limit=20,
            role="player",
            n_suspects=5,
        )
        decision = agent.decide(obs)
        assert decision.action.prime is MessageKind.SKIP
        assert "There are 4 players in total" in seen["system"]
        assert me in seen["system"]

    def test_resample_temperature_override(self):
        temperatures = []

        def transport(config, payload):
            temperatures.append(payload["temperature"])
            return completion_payload('{"action": 2}')

        agent = LlmAgent(LlmClient(CONFIG, transport=transport), "accuser", "Beth", "Alex")
        agent.decide(self.make_obs())
        agent.resample(self.make_obs(), temperature=0.7)
        assert temperatures == [0.0, 0.7]
