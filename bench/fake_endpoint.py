"""A deterministic fake chat-completions endpoint for the llm-endpoint
workload.

It rebuilds each agent's observation from the rendered prompts and answers
as the scripted oracle of that role would, in the JSON output format the
asymmetric prompts ask for, with top-k logprobs on every token. The
logprobs vary with a hash of the request, so turns get distinct uncertainty
features.

Faults, each chosen by a hash of the request body so that every run sees
the same ones:

- A share of first attempts gets a generation that holds no JSON object.
  The agent retries with a format reminder, and a reminded request is
  always answered well, so the game goes on as the scripted pair's would.
- A share of requests gets an HTTP 500 the first time its exact body
  arrives after a reset. The client's transport retry then succeeds.

Each request waits ``LATENCY_S`` before it is answered. A reply is built
once per request body and then served from memory, so once a warm-up pass
has sent every request, the endpoint's service time is the latency plus a
lookup and does not depend on the program's code.

Routes: ``POST /v1/chat/completions``, ``GET /stats`` (requests served,
malformed replies, 500s and summed service time since the last reset) and
``POST /reset``. Run as a script it serves on loopback and prints
``PORT <n>`` once it is ready.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import re
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from roguewatch.agents import AgentObservation, ScriptedAccuser, ScriptedIntel  # noqa: E402
from roguewatch.core import MessageKind, SuspectProfile  # noqa: E402
from roguewatch.llm import FORMAT_REMINDER  # noqa: E402
from roguewatch.whodunit import ROLE_ACCUSER, ROLE_INTEL, KnowledgeSet  # noqa: E402

# None of these three is measured from a real endpoint. The shares are set
# so that every 80-game pass of the llm-endpoint workload takes both retry
# paths several times. The latency is kept small, so the client's own CPU
# time (prompts, parsing, position extraction, the game loop) stays a large,
# visible share of a pass instead of being buried under waiting.
MALFORMED_SHARE = 0.05
ERROR_SHARE = 0.03
LATENCY_S = 0.002
NOT_FOUND = b'{"error": "not found"}'
ERROR_REPLY = json.dumps({"error": {"message": "transient fault", "type": "server_error"}}).encode()

_RE_SUSPECT_NUM = re.compile(r"The game involves (\d+) characters")
_RE_WINNER = re.compile(r"The Winner is described as:\n(.+)$", re.S)
_RE_SUSPECT = re.compile(r"^Character (\d+): (.+)\.$", re.M)
_RE_CHANNEL = re.compile(
    r"is:\n(?P<channel>.*)\n\nThe current turn is (?P<turn>\d+) out of (?P<limit>\d+)", re.S
)
# Word-like tokens carry their leading space, as BPE tokens do; numerals stand
# alone so that each is a monitored position.
_RE_TOKEN = re.compile(r"\d+|\s*[A-Za-z_]+|\s*[^\w\s]|\s+")


def _unit(digest: bytes, salt: bytes) -> float:
    """A number in [0, 1) from a request digest and a salt."""
    h = hashlib.blake2b(salt + digest, digest_size=8).digest()
    return int.from_bytes(h, "big") / 2.0**64


def observation_from_prompts(system: str, user: str) -> AgentObservation:
    """The observation an asymmetric-variant agent was prompted with."""
    channel = _RE_CHANNEL.search(user)
    if channel is None:
        raise ValueError("user prompt has no channel section")
    lines = channel["channel"].split("\n")
    view = () if lines == ["(empty)"] else tuple(lines)
    if "The Winner is described as:" in system:
        description = _RE_WINNER.search(system)[1].strip().rstrip(".")
        facts = []
        for part in description.split(", "):
            prop, _, value = part.removeprefix("their ").partition(" is ")
            facts.append((prop, value))
        knowledge = KnowledgeSet(role=ROLE_ACCUSER, culprit_facts=tuple(facts))
        n_suspects = int(_RE_SUSPECT_NUM.search(system)[1])
    elif "Following is information about the Characters:" in system:
        table = []
        for suspect_id, body in _RE_SUSPECT.findall(system):
            pairs = tuple(tuple(part.split(" is ", 1)) for part in body.split(", "))
            table.append(SuspectProfile(suspect_id=int(suspect_id), assignment=pairs))
        knowledge = KnowledgeSet(role=ROLE_INTEL, suspect_table=tuple(table))
        n_suspects = len(table)
    else:
        raise ValueError("not an asymmetric-variant system prompt")
    return AgentObservation(
        knowledge=knowledge,
        channel_view=view,
        turn_index=int(channel["turn"]),
        turn_limit=int(channel["limit"]),
        role=knowledge.role,
        n_suspects=n_suspects,
    )


def scripted_generation(obs: AgentObservation) -> str:
    """What the scripted oracle of the observation's role would do, written
    in that role's prompt output format."""
    if obs.role == ROLE_ACCUSER:
        action = ScriptedAccuser().decide(obs).action
        if action.prime is MessageKind.ACCUSE:
            body = {
                "thoughts": "Only one character fits the description, so I award them.",
                "action": 3,
                "character": action.target,
            }
        else:
            body = {
                "thoughts": "Several characters still fit; I ask about the lowest one.",
                "action": 1,
                "character": action.target,
                "property": action.prop,
                "value": action.value,
            }
    else:
        action = ScriptedIntel().decide(obs).action
        body = {
            "thoughts": "This property and value split the candidates most evenly.",
            "action": 2,
            "value": f"{action.prop}-{action.value}",
            "character": list(action.broad_list),
        }
    return json.dumps(body)


@functools.lru_cache(maxsize=None)
def _levels(top_k: int) -> tuple:
    """For each of 256 peak levels: the chosen token's logprob and the
    top-k tail of made-up alternatives."""
    weights = [0.5**k for k in range(1, top_k)]
    levels = []
    for level in range(256):
        peak = 0.5 + 0.49 * (level + 0.5) / 256
        rest = (1.0 - peak) / sum(weights)
        tail = [
            {"token": f"alt{k}", "logprob": math.log(rest * w)}
            for k, w in enumerate(weights, start=1)
        ]
        levels.append((math.log(peak), tail))
    return tuple(levels)


def completion(text: str, digest: bytes, top_k: int) -> dict:
    """A chat-completions body for ``text`` with hash-varied top-k logprobs."""
    tokens = _RE_TOKEN.findall(text)
    table = _levels(top_k)
    content = []
    for token, level in zip(tokens, hashlib.shake_128(b"tok" + digest).digest(len(tokens))):
        logprob, tail = table[level]
        content.append(
            {
                "token": token,
                "logprob": logprob,
                "top_logprobs": [{"token": token, "logprob": logprob}, *tail],
            }
        )
    return {
        "object": "chat.completion",
        "choices": [
            {
                "index": 0,
                "message": {"role": "assistant", "content": text},
                "logprobs": {"content": content},
                "finish_reason": "stop",
            }
        ],
    }


def _build_reply(body: bytes, digest: bytes) -> tuple[bool, bytes]:
    """Whether the reply is malformed, and the encoded reply."""
    payload = json.loads(body)
    system, user = (m["content"] for m in payload["messages"][:2])
    reminded = user.endswith(FORMAT_REMINDER)
    if reminded:
        user = user[: -len(FORMAT_REMINDER)]
    obs = observation_from_prompts(system, user)
    malformed = not reminded and _unit(digest, b"malformed") < MALFORMED_SHARE
    if malformed:
        text = f"I think character {obs.n_suspects} deserves a closer look next."
    else:
        text = scripted_generation(obs)
    reply = completion(text, digest, payload.get("top_logprobs", 10))
    return malformed, json.dumps(reply).encode()


class FakeEndpoint:
    """Request handling and the fault log, independent of HTTP."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        # Request digest -> (malformed, encoded reply); kept across resets.
        self._replies: dict[bytes, tuple[bool, bytes]] = {}
        self.reset()

    def reset(self) -> None:
        with self._lock:
            self._seen: set[bytes] = set()
            self.requests = 0
            self.malformed = 0
            self.errors = 0
            self.service_s = 0.0

    def stats(self) -> dict:
        with self._lock:
            return {
                "requests": self.requests,
                "malformed": self.malformed,
                "errors": self.errors,
                "service_s": self.service_s,
            }

    def respond(self, body: bytes) -> tuple[int, bytes]:
        """HTTP status and encoded JSON reply for one completion request body."""
        digest = hashlib.blake2b(body, digest_size=16).digest()
        with self._lock:
            self.requests += 1
            fail = _unit(digest, b"500") < ERROR_SHARE and digest not in self._seen
            self._seen.add(digest)
            if fail:
                self.errors += 1
                return 500, ERROR_REPLY
            reply = self._replies.get(digest)
        if reply is None:
            reply = self._replies.setdefault(digest, _build_reply(body, digest))
        malformed, data = reply
        if malformed:
            with self._lock:
                self.malformed += 1
        return 200, data

    def add_service_time(self, seconds: float) -> None:
        with self._lock:
            self.service_s += seconds


def make_server(endpoint: FakeEndpoint, port: int = 0) -> ThreadingHTTPServer:
    class Handler(BaseHTTPRequestHandler):
        wbufsize = 1 << 16  # headers and body leave in one send

        def log_message(self, format, *args):  # noqa: A002 - stdlib signature
            pass

        def _send(self, status: int, data: bytes) -> None:
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

        def do_GET(self):
            if self.path == "/stats":
                self._send(200, json.dumps(endpoint.stats()).encode())
            else:
                self._send(404, NOT_FOUND)

        def do_POST(self):
            start = time.perf_counter()
            body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
            if self.path == "/reset":
                endpoint.reset()
                self._send(200, b"{}")
                return
            if self.path != "/v1/chat/completions":
                self._send(404, NOT_FOUND)
                return
            time.sleep(LATENCY_S)
            status, reply = endpoint.respond(body)
            self._send(status, reply)
            endpoint.add_service_time(time.perf_counter() - start)

    server = ThreadingHTTPServer(("127.0.0.1", port), Handler)
    server.daemon_threads = True
    return server


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--port", type=int, default=0)
    args = parser.parse_args(argv)
    server = make_server(FakeEndpoint(), args.port)
    print(f"PORT {server.server_address[1]}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
