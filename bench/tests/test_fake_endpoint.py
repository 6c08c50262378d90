"""One LlmAgent game through the fake endpoint over loopback HTTP."""

import json
import threading

from fake_endpoint import FORMAT_REMINDER, FakeEndpoint, make_server
from roguewatch import harness
from roguewatch.agents import AgentObservation
from roguewatch.llm import LlmAgent, LlmClient, LlmConfig, parse_accuser_output


def test_llm_game_reaches_the_scripted_pair_outcome(monkeypatch):
    for var in ("http_proxy", "https_proxy", "all_proxy"):
        monkeypatch.delenv(var, raising=False)
        monkeypatch.delenv(var.upper(), raising=False)
    endpoint = FakeEndpoint()
    server = make_server(endpoint)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        url = f"http://127.0.0.1:{server.server_address[1]}/v1/chat/completions"
        llm = {"type": "llm", "config": {"endpoint": url, "model": "scripted-oracle"}}
        spec = harness.gen_dataset("whodunit", sizes=(0, 0, 1), seed=3).test[0]
        scripted = harness.run_whodunit_game(spec, harness.ExperimentConfig(), 11)
        played = harness.run_whodunit_game(
            spec, harness.ExperimentConfig(agents={"accuser": llm, "intel": llm}), 11
        )
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert played.outcome is scripted.outcome
    assert played.accused_id == scripted.accused_id == spec.culprit_id
    assert [t.action for t in played.turns] == [t.action for t in scripted.turns]
    assert all(t.features is not None for t in played.turns)
    assert len({t.features["entropy"] for t in played.turns}) > 1
    stats = endpoint.stats()
    assert stats["requests"] == len(played.turns) + stats["malformed"] + stats["errors"]


def test_faults_are_keyed_by_request_and_retries_succeed():
    spec = harness.gen_dataset("whodunit", sizes=(0, 0, 1), seed=3).test[0]
    state = harness.new_game(spec)
    obs = AgentObservation(
        knowledge=state.knowledge["Beth"],
        channel_view=(),
        turn_index=1,
        turn_limit=spec.turn_limit,
        role="accuser",
        n_suspects=len(spec.suspects),
    )
    agent = LlmAgent(LlmClient(LlmConfig("unused", "unused")), "accuser", "Beth", "Alex")
    system, user = agent._prompts(obs)

    def body(user_prompt: str, model: str) -> bytes:
        messages = [
            {"role": "system", "content": system},
            {"role": "user", "content": user_prompt},
        ]
        return json.dumps({"model": model, "messages": messages, "top_logprobs": 10}).encode()

    def replies(endpoint: FakeEndpoint) -> list:
        out = []
        for index in range(300):
            for prompt in (user, user + FORMAT_REMINDER):
                request = body(prompt, f"model-{index}")
                first = endpoint.respond(request)
                retry = endpoint.respond(request)
                assert retry[0] == 200
                content = json.loads(retry[1])["choices"][0]["message"]["content"]
                out.append((first[0], content))
                if prompt != user:
                    parse_accuser_output(out[-1][1])
        return out

    endpoint = FakeEndpoint()
    first_run = replies(endpoint)
    stats = endpoint.stats()
    assert stats["errors"] == sum(status == 500 for status, _ in first_run) > 0
    assert stats["malformed"] > 0
    endpoint.reset()
    # The second run is served from memory and logs the same faults.
    assert replies(endpoint) == first_run
    assert endpoint.stats() == stats
