"""LLM client wire handling, position extraction, and the agent glue,
against fake transports, plus the HTTP transport against servers on
loopback started by the tests (no network)."""

from __future__ import annotations

import base64
import json
import math
import os
import threading
import urllib.error
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from types import SimpleNamespace

import pytest

from roguewatch import llm
from roguewatch.agents import AgentObservation
from roguewatch.core import MessageKind, generate_game
from roguewatch.errors import ApiError, MalformedGenerationError
from roguewatch.llm import (
    LlmAgent,
    LlmClient,
    LlmConfig,
    _http_transport,
    extract_positions,
    parse_accuser_output,
    parse_output,
)
from roguewatch.uncertainty import entropy
from roguewatch.whodunit import ROLE_INTEL, ROLE_KINDS, ROLE_PLAYER, new_game

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


def numeral_reply(entry) -> dict:
    """A reply whose text is one numeral, with ``entry`` as its one token."""
    return {"choices": [{"message": {"content": "3"}, "logprobs": {"content": [entry]}}]}


def alternatives(*pairs) -> list[dict]:
    """A token's top-k list in the wire shape."""
    return [{"token": token, "logprob": logprob} for token, logprob in pairs]


class TestClient:
    def test_happy_path(self):
        def transport(config, payload):
            assert payload["temperature"] == 0.0
            assert payload["top_logprobs"] == 10
            assert payload["logprobs"] is True
            assert payload["messages"][0]["role"] == "system"
            return completion_payload("hello 7", ["hel", "lo ", "7"])

        client = LlmClient(CONFIG, transport=transport)
        text, positions = client.complete_with_logprobs("sys", "user")
        assert text == "hello 7"
        # One vector, at the numeral token, from its two alternatives.
        total = math.exp(-0.1) + math.exp(-2.5)
        assert positions == [pytest.approx((math.exp(-0.1) / total, math.exp(-2.5) / total))]

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
        text, _ = client.complete_with_logprobs("sys", "user")
        assert text == "ok"


    @pytest.mark.parametrize(
        "bad",
        [
            {"choices": []},
            {"choices": [None]},
            {"choices": "x"},
            {"choices": [{"message": "x"}]},
            {"choices": [{"message": {"content": None}}]},
            numeral_reply({"token": "3", "logprob": -0.1, "top_logprobs": None}),
            numeral_reply({"token": "3", "logprob": -0.1, "top_logprobs": [None]}),
            numeral_reply("x"),
            numeral_reply(
                {"token": "3", "logprob": -0.1, "top_logprobs": [{"token": "3", "logprob": 1000.0}]}
            ),
        ],
    )
    def test_reply_of_the_wrong_shape_is_retried(self, bad):
        calls = {"n": 0}

        def transport(config, payload):
            calls["n"] += 1
            return bad if calls["n"] == 1 else completion_payload("ok")

        text, _ = LlmClient(CONFIG, transport=transport).complete_with_logprobs("sys", "user")
        assert (text, calls["n"]) == ("ok", 2)

        client = LlmClient(CONFIG, transport=lambda config, payload: bad)
        with pytest.raises(ApiError, match="completion .*(choice|message|content)"):
            client.complete_with_logprobs("sys", "user")

    def test_top_k_lists_are_read_only_at_numeral_tokens(self):
        reply = completion_payload("pick 4", ["pick ", "4"])
        reply["choices"][0]["logprobs"]["content"][0]["top_logprobs"] = None
        client = LlmClient(CONFIG, transport=lambda config, payload: reply)
        text, positions = client.complete_with_logprobs("sys", "user")
        assert (text, len(positions)) == ("pick 4", 1)


@pytest.fixture
def serve(monkeypatch):
    """Starts HTTP/1.1 servers on loopback that answer every POST with a
    completion and log each request; proxy variables and the proxies read
    from them are cleared."""
    for name in list(os.environ):
        if name.lower().endswith("_proxy"):
            monkeypatch.delenv(name)
    llm._proxy.cache_clear()
    servers = []

    def start():
        # Tests set drop, errors and truncated to shape replies.
        log = SimpleNamespace(connections=0, requests=[], lock=threading.Lock())
        log.drop, log.errors, log.truncated = False, 0, 0
        reply = json.dumps(completion_payload("ok")).encode()

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"
            timeout = 5  # idle connections end with the test

            def log_message(self, format, *args):  # noqa: A002 - stdlib signature
                pass

            def setup(self):
                super().setup()
                with log.lock:
                    log.connections += 1

            def _reply(self, status, data, length=None):
                self.send_response(status)
                self.send_header("Content-Length", str(length or len(data)))
                self.end_headers()
                self.wfile.write(data)

            def do_POST(self):
                self.rfile.read(int(self.headers["Content-Length"]))
                with log.lock:
                    log.requests.append((self.path, dict(self.headers)))
                    fail, log.errors = log.errors > 0, max(log.errors - 1, 0)
                    truncate, log.truncated = log.truncated > 0, max(log.truncated - 1, 0)
                if log.drop:
                    self.close_connection = True
                elif truncate:  # the connection ends before the promised body does
                    self._reply(200, reply[:100], length=len(reply))
                    self.close_connection = True
                else:
                    self._reply(500, b"{}") if fail else self._reply(200, reply)

            def do_CONNECT(self):
                with log.lock:
                    log.requests.append((self.path, dict(self.headers)))
                self._reply(502, b"")
                self.close_connection = True

        server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        server.daemon_threads = True
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        servers.append((server, thread))
        log.netloc = f"127.0.0.1:{server.server_address[1]}"
        log.config = LlmConfig(
            endpoint=f"http://{log.netloc}/v1/chat/completions", model="m", timeout=10.0
        )
        return log

    yield start
    llm._proxy.cache_clear()
    for server, thread in servers:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)


class TestHttpTransport:
    PAYLOAD = {"model": "m", "messages": []}

    def test_each_request_has_its_own_connection(self, serve):
        log = serve()
        replies = []

        def worker():
            for _ in range(10):
                replies.append(_http_transport(log.config, self.PAYLOAD))

        threads = [threading.Thread(target=worker) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
        assert replies == [completion_payload("ok")] * 20
        assert (log.connections, len(log.requests)) == (20, 20)
        assert {headers["Connection"] for _, headers in log.requests} == {"close"}

    def test_a_dropped_connection_is_not_sent_again(self, serve):
        log = serve()
        log.drop = True
        with pytest.raises(urllib.error.URLError, match="closed connection without response"):
            _http_transport(log.config, self.PAYLOAD)
        assert (log.connections, len(log.requests)) == (1, 1)
        # Only the client's counted retries send it again.
        with pytest.raises(ApiError):
            LlmClient(log.config).complete_with_logprobs("sys", "user")
        assert len(log.requests) == 1 + log.config.retry_budget + 1

    def test_a_500_is_retried(self, serve):
        log = serve()
        log.errors = 1
        with pytest.raises(urllib.error.HTTPError, match="500"):
            _http_transport(log.config, self.PAYLOAD)
        log.errors = 1
        text, _ = LlmClient(log.config).complete_with_logprobs("sys", "user")
        assert (text, len(log.requests), log.connections) == ("ok", 3, 3)
        log.errors = 99
        with pytest.raises(ApiError, match="500"):
            LlmClient(log.config).complete_with_logprobs("sys", "user")
        assert len(log.requests) == 3 + log.config.retry_budget + 1

    def test_a_truncated_reply_is_retried(self, serve):
        log = serve()
        log.truncated = 1
        with pytest.raises(urllib.error.URLError, match="IncompleteRead"):
            _http_transport(log.config, self.PAYLOAD)
        log.truncated = 1
        text, _ = LlmClient(log.config).complete_with_logprobs("sys", "user")
        assert (text, len(log.requests)) == ("ok", 3)

    def test_an_http_proxy_gets_the_absolute_url(self, serve, monkeypatch):
        proxy = serve()
        monkeypatch.setenv("http_proxy", f"http://user:p%40ss@{proxy.netloc}")
        monkeypatch.setenv("LLM_API_KEY", "key")
        endpoint = "http://model.invalid:8000/v1/chat/completions"
        config = LlmConfig(endpoint=endpoint, model="m", timeout=10.0)
        assert _http_transport(config, self.PAYLOAD) == completion_payload("ok")
        ((path, headers),) = proxy.requests
        assert path == endpoint
        assert headers["Host"] == "model.invalid:8000"
        assert (headers["Authorization"], headers["Content-Type"]) == (
            "Bearer key",
            "application/json",
        )
        assert headers["Proxy-Authorization"] == "Basic " + base64.b64encode(b"user:p@ss").decode()

    def test_no_proxy_bypasses_the_proxy(self, serve, monkeypatch):
        proxy, direct = serve(), serve()
        monkeypatch.setenv("http_proxy", f"http://{proxy.netloc}")
        monkeypatch.setenv("no_proxy", "127.0.0.1")
        assert _http_transport(direct.config, self.PAYLOAD) == completion_payload("ok")
        assert (proxy.requests, [path for path, _ in direct.requests]) == (
            [],
            ["/v1/chat/completions"],
        )

    def test_an_https_endpoint_is_tunnelled_through_the_proxy(self, serve, monkeypatch):
        proxy = serve()
        monkeypatch.setenv("https_proxy", f"http://user:pw@{proxy.netloc}")
        config = LlmConfig(endpoint="https://model.invalid/v1/chat/completions", model="m")
        with pytest.raises(OSError, match="Tunnel connection failed: 502"):
            _http_transport(config, self.PAYLOAD)
        ((target, headers),) = proxy.requests
        assert target == "model.invalid:443"
        assert headers["Proxy-Authorization"] == "Basic " + base64.b64encode(b"user:pw").decode()


class TestExtractPositions:
    def test_numeral_token_selected(self):
        text = '{"character": 3}'
        tokens = ['{"character"', ":", " ", "3", "}"]
        per_token = [alternatives((t, -0.2), ("x", -3.0)) for t in tokens]
        vectors = extract_positions(text, per_token, tokens)
        assert len(vectors) == 1
        assert sum(vectors[0]) == pytest.approx(1.0, abs=1e-12)

    def test_no_numerals_no_signal(self):
        tokens = ["nothing", " here"]
        per_token = [alternatives((t, -0.1)) for t in tokens]
        assert extract_positions("nothing here", per_token, tokens) == []

    def test_renormalization(self):
        # Top-10 masses summing to 0.8 scale up to exactly 1.
        tokens = ["7"]
        masses = [0.3, 0.2, 0.1, 0.1, 0.05, 0.05]
        per_token = [alternatives(*((str(i), math.log(m)) for i, m in enumerate(masses)))]
        (vector,) = extract_positions("7", per_token, tokens)
        assert sum(vector) == pytest.approx(1.0, abs=1e-12)
        assert vector[0] == pytest.approx(0.3 / 0.8)
        assert entropy(vector) <= math.log(len(vector)) + 1e-12

    def test_multi_token_numeral_contributes_each_token(self):
        text = "character 12 maybe"
        tokens = ["character ", "1", "2", " maybe"]
        per_token = [alternatives((t, -0.5), ("y", -1.5)) for t in tokens]
        vectors = extract_positions(text, per_token, tokens)
        assert len(vectors) == 2

    def test_commons_decimals(self):
        text = "harvest 12.5 fish"
        tokens = ["harvest ", "12", ".", "5", " fish"]
        per_token = [alternatives((t, -0.4)) for t in tokens]
        whodunit = extract_positions(text, per_token, tokens)
        assert len(whodunit) == 2  # "12" and "5" as separate integers

    def test_a_nan_logprob_is_the_wrong_shape(self):
        """json.loads reads NaN; a numeral's top-k list holding it is refused
        by token, so the client retries the reply."""
        tokens = ["character ", "3"]
        per_token = [alternatives((t, -0.1)) for t in tokens]
        per_token[1] = json.loads('[{"token": "3", "logprob": NaN}, {"token": "4", "logprob": -2}]')
        with pytest.raises(ValueError, match="token 1 top_logprobs of the wrong shape"):
            extract_positions("character 3", per_token, tokens)

    def test_pure_function(self):
        text = "pick 4"
        tokens = ["pick ", "4"]
        per_token = [alternatives((t, -0.3), ("z", -2.0)) for t in tokens]
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

    @pytest.mark.parametrize("thoughts", ["only one fits }", "a { b"])
    def test_a_brace_inside_a_string_is_text(self, thoughts):
        action = parse_accuser_output(
            '{"thoughts": "%s", "action": 3, "character": 2}' % thoughts
        )
        assert (action.prime, action.target) == (MessageKind.ACCUSE, 2)

    def test_missing_action_malformed(self):
        with pytest.raises(MalformedGenerationError):
            parse_accuser_output('{"thoughts": "hmm"}')

    def test_unparseable_malformed(self):
        with pytest.raises(MalformedGenerationError):
            parse_accuser_output("no json at all")

    def test_intel_boolean_and_broad(self):
        yes = parse_output(ROLE_INTEL, '{"action": 1, "value": true}')
        assert yes.prime is MessageKind.RESPOND and yes.truth is True
        broad = parse_output(ROLE_INTEL, 
            '{"action": 2, "value": "shirt-button-up", "character": [1, 4]}'
        )
        assert broad.prime is MessageKind.RESPOND_BROAD
        assert broad.prop == "shirt"
        assert broad.value == "button-up"  # split only on the first dash
        assert broad.broad_list == (1, 4)

    def test_symmetric_actions(self):
        share = parse_output(ROLE_PLAYER, '{"action": 1, "fact": 2}')
        assert share.prime is MessageKind.SHARE and share.fact_index == 1
        award = parse_output(ROLE_PLAYER, '{"action": 2, "character": 5}')
        assert award.prime is MessageKind.ACCUSE and award.target == 5
        skip = parse_output(ROLE_PLAYER, '{"action": 3}')
        assert skip.prime is MessageKind.SKIP


# The fields a generation of each message kind needs, and no others.
MINIMAL_FIELDS = {
    MessageKind.REQUEST_SPECIFIC: {"character": 2, "property": "hat", "value": "brown"},
    MessageKind.REQUEST_BROAD: {},
    MessageKind.ACCUSE: {"character": 2},
    MessageKind.RESPOND: {"value": False},
    MessageKind.RESPOND_BROAD: {"value": "hat-brown", "character": [2]},
    MessageKind.SHARE: {"fact": 1},
    MessageKind.SKIP: {},
}


class TestRoleTable:
    """An action code k names the role's kth kind in ``ROLE_KINDS``."""

    @pytest.mark.parametrize(
        "role, code",
        [(role, code) for role, kinds in ROLE_KINDS.items() for code in range(1, len(kinds) + 1)],
    )
    def test_each_code_parses_to_its_kind(self, role, code):
        kind = ROLE_KINDS[role][code - 1]
        action = parse_output(role, json.dumps({"action": code, **MINIMAL_FIELDS[kind]}))
        assert action.prime is kind

    @pytest.mark.parametrize("role", sorted(ROLE_KINDS))
    def test_codes_outside_the_table_are_malformed(self, role):
        fields = {k: v for kind in ROLE_KINDS[role] for k, v in MINIMAL_FIELDS[kind].items()}
        for code in (0, len(ROLE_KINDS[role]) + 1, "1", [1]):
            with pytest.raises(MalformedGenerationError):
                parse_output(role, json.dumps({"action": code, **fields}))


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
        agent.decide(self.make_obs(), temperature=0.7)
        assert temperatures == [0.0, 0.7]
