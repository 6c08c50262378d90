"""Chat-completions client with top-k logprob capture, plus the glue that
turns model generations into game actions and monitored positions.

The wire protocol is the common chat-completions HTTP+JSON shape with the
``logprobs``/``top_logprobs`` options. The transport is injectable so tests
(and offline use) can fake the server. The default transport sends each
request on its own ``http.client`` connection, routed through the proxy that
``http_proxy``/``https_proxy``/``no_proxy`` name, as urllib would, and
leaves every retry to the client. API keys are only ever read from a named
environment variable.

A generation's JSON ``action`` code k names the kth message kind in
``whodunit.ROLE_KINDS`` for the agent's role, and one reader per kind
builds the action from the object's fields.

A reply is read for its text and for the probability vectors at its
monitored positions (the numeral tokens). Every token's string is read to
align tokens with the text, but a token's top-k list is read only where a
numeral falls. A reply of the wrong shape anywhere the client reads raises
a ValueError naming the defect, so the client retries it like a transport
fault.
"""

from __future__ import annotations

import functools
import json
import logging
import math
import os
import re
import urllib.error
import urllib.parse
from dataclasses import dataclass, fields
from typing import Callable, Optional, Sequence

from .core import MessageKind, integer, number, section, string
from .errors import ApiError, MalformedGenerationError
from .whodunit import ROLE_ACCUSER, ROLE_INTEL, ROLE_KINDS, Action, render

logger = logging.getLogger("roguewatch.llm")

# Per token, its top-k alternatives as the wire sends them: a list of
# {"token": str, "logprob": float} objects.
TokenLogprobs = Sequence[Sequence[dict]]

_NUMERAL = re.compile(r"\d+")


@dataclass(frozen=True)
class LlmConfig:
    endpoint: str
    model: str
    api_key_env: str = "LLM_API_KEY"
    temperature: float = 0.0
    top_logprobs: int = 10
    retry_budget: int = 2
    timeout: float = 60.0

    def __post_init__(self) -> None:
        for name in ("endpoint", "model", "api_key_env"):
            string(f"config.{name}", getattr(self, name))
        for name in ("temperature", "timeout"):
            number(f"config.{name}", getattr(self, name), 0)
        for name in ("top_logprobs", "retry_budget"):
            integer(f"config.{name}", getattr(self, name), 0)

    @classmethod
    def from_json_obj(cls, obj: dict) -> "LlmConfig":
        """A backend's config, whose endpoint must be an http(s) URL with a
        host; one built in code may hold a placeholder it sends nothing to."""
        config = cls(**section("config", obj, {f.name for f in fields(cls)}, ("endpoint", "model")))
        try:
            url = urllib.parse.urlsplit(config.endpoint)
            url.port  # raises for a port that is not a number below 65536
        except ValueError:
            url = None
        if not (url and url.scheme in ("http", "https") and url.hostname):
            raise ValueError(
                f"config.endpoint: {config.endpoint!r} is not an http(s) URL with a host"
            )
        return config


@functools.lru_cache(maxsize=8)
def _proxy(scheme: str, netloc: str) -> Optional[str]:
    """The proxy an endpoint is reached through, or None to connect
    directly. The proxy variables are read at the first request to an
    endpoint, as urllib's shared opener read them at its first request,
    and not on every request: reading them walks the whole environment."""
    import urllib.request

    proxy = urllib.request.getproxies().get(scheme)
    if not proxy or urllib.request.proxy_bypass(netloc):
        return None
    return proxy


def _connect(config: LlmConfig) -> tuple[object, str, dict]:
    """A new connection for the endpoint, the request target to send on it
    and the request's headers. An ``http`` endpoint behind a proxy is
    requested from the proxy in absolute form; an ``https`` one through a
    CONNECT tunnel."""
    # http.client (with email and ssl) and urllib.request load on the first request.
    import base64
    import http.client

    url = urllib.parse.urlsplit(config.endpoint)
    https = url.scheme == "https"
    connection_class = http.client.HTTPSConnection if https else http.client.HTTPConnection
    target = (url.path or "/") + (f"?{url.query}" if url.query else "")
    headers = {"Content-Type": "application/json", "Connection": "close"}
    proxy = _proxy(url.scheme, url.netloc)
    if proxy is None:
        connection = connection_class(url.hostname, url.port, timeout=config.timeout)
        return connection, target, headers
    proxy_url = urllib.parse.urlsplit(proxy if "://" in proxy else f"http://{proxy}")
    auth = {}
    if proxy_url.username is not None:
        credentials = f"{urllib.parse.unquote(proxy_url.username)}:" + urllib.parse.unquote(
            proxy_url.password or ""
        )
        auth["Proxy-Authorization"] = "Basic " + base64.b64encode(credentials.encode()).decode()
    connection = connection_class(proxy_url.hostname, proxy_url.port, timeout=config.timeout)
    if https:
        connection.set_tunnel(url.hostname, url.port, headers=auth)
        return connection, target, headers
    return connection, config.endpoint, {**headers, **auth}


def _http_transport(config: LlmConfig, payload: dict) -> dict:
    import http.client

    connection, target, headers = _connect(config)
    api_key = os.environ.get(config.api_key_env, "")
    if api_key:
        headers["Authorization"] = f"Bearer {api_key}"
    # Each request has its own connection, so a failure anywhere in it goes
    # to the client's counted retry loop and nothing is sent twice here.
    try:
        connection.request("POST", target, json.dumps(payload).encode(), headers)
        response = connection.getresponse()
        data = response.read()
    except http.client.HTTPException as exc:
        raise urllib.error.URLError(exc) from exc
    finally:
        connection.close()
    if response.status >= 400:
        raise urllib.error.HTTPError(
            config.endpoint, response.status, response.reason, response.headers, None
        )
    return json.loads(data)


class LlmClient:
    """Thin client: render payload, post, retry transport failures and
    replies of the wrong shape, and pull out the generation plus the
    probability vectors at its monitored positions."""

    def __init__(
        self,
        config: LlmConfig,
        transport: Optional[Callable[[LlmConfig, dict], dict]] = None,
    ) -> None:
        self.config = config
        self._transport = transport or _http_transport

    def complete_with_logprobs(
        self,
        system_prompt: str,
        user_prompt: str,
        temperature: Optional[float] = None,
    ) -> tuple[str, list[tuple[float, ...]]]:
        """Returns (generation, probability vectors at its numeral tokens).

        The positions are the whodunit numerals (the only game an LLM agent
        plays), read for every attempt, including a generation the agent
        then rejects as malformed; a top-k list of the wrong shape there is
        retried here like a transport failure."""
        payload = {
            "model": self.config.model,
            "messages": [
                {"role": "system", "content": system_prompt},
                {"role": "user", "content": user_prompt},
            ],
            "temperature": self.config.temperature if temperature is None else temperature,
            "logprobs": True,
            "top_logprobs": self.config.top_logprobs,
        }
        last_error: Optional[Exception] = None
        for attempt in range(self.config.retry_budget + 1):
            try:
                text, per_token, tokens = _read_completion(self._transport(self.config, payload))
                return text, extract_positions(text, per_token, tokens)
            except (urllib.error.URLError, OSError, KeyError, ValueError) as exc:
                last_error = exc
                logger.warning("completion attempt %d failed: %s", attempt + 1, exc)
        raise ApiError(f"completion failed after retries: {last_error}")


def _shaped(value: object, kind: type, what: str):
    if not isinstance(value, kind):
        raise ValueError(f"completion {what} is a {type(value).__name__}, not a {kind.__name__}")
    return value


def _read_completion(raw: dict) -> tuple[str, TokenLogprobs, list[str]]:
    """The reply's text, each token's top-k list as sent and each token's
    string. A reply of the wrong shape raises a ValueError naming its
    defect, so the client retries it."""
    choices = _shaped(raw, dict, "reply")["choices"]
    if not isinstance(choices, list) or not choices:
        raise ValueError("completion has no first choice")
    choice = _shaped(choices[0], dict, "choice")
    text = _shaped(_shaped(choice["message"], dict, "message")["content"], str, "content")
    logprobs = _shaped(choice.get("logprobs") or {}, dict, "logprobs")
    content = _shaped(logprobs.get("content") or [], list, "logprobs content")
    tokens: list[str] = []
    per_token: list[Sequence[dict]] = []
    for index, entry in enumerate(content):
        if not (isinstance(entry, dict) and isinstance(entry.get("token"), str)):
            raise ValueError(f"completion content token {index} is not a token object")
        tokens.append(entry["token"])
        per_token.append(entry.get("top_logprobs", ()))
    return text, per_token, tokens


def extract_positions(
    generation: str,
    per_token: TokenLogprobs,
    tokens: Sequence[str],
) -> list[tuple[float, ...]]:
    """Probability vectors at the monitored positions of a generation: the
    tokens realizing any numeral (suspect ids appear in the structured
    fields and in the thoughts). Top-k masses are renormalized to sum to
    one. Multi-token numerals contribute one vector per constituent token.
    An empty result is a no-signal turn.

    ``per_token`` holds each token's top-k list in the wire shape, and only
    the lists at monitored tokens are read; one of the wrong shape raises a
    ValueError naming the token.
    """
    spans = [m.span() for m in _NUMERAL.finditer(generation)]
    vectors: list[tuple[float, ...]] = []
    if not spans:
        return vectors
    # Tokens and spans both run left to right, so one pass pairs them: each
    # token is placed after the previous one and checked against the first
    # span that does not end before it.
    span = 0
    cursor = 0
    for index, token in enumerate(tokens):
        start = generation.find(token, cursor) if token else -1
        if start < 0:
            start = cursor
        cursor = start + len(token)
        while spans[span][1] <= start:
            span += 1
            if span == len(spans):
                return vectors
        if spans[span][0] >= cursor:
            continue
        wrong = f"completion content token {index} top_logprobs of the wrong shape"
        try:
            masses = [math.exp(alt["logprob"]) for alt in per_token[index]]
        except (TypeError, OverflowError) as exc:
            raise ValueError(f"{wrong}: {exc}") from exc
        total = sum(masses)
        if math.isnan(total):  # json.loads reads NaN
            raise ValueError(f"{wrong}: a logprob is NaN")
        if total > 0.0:
            vectors.append(tuple(m / total for m in masses))
    return vectors


@functools.lru_cache(maxsize=8)  # the package ships five templates
def _load_prompt(name: str) -> str:
    from importlib import resources

    return resources.files("roguewatch.prompts").joinpath(name).read_text()


_JSON_DECODER = json.JSONDecoder()


def _extract_json_block(text: str) -> dict:
    """The JSON object that starts at the generation's first brace."""
    start = text.find("{")
    if start < 0:
        raise MalformedGenerationError("no JSON object in generation")
    try:
        return _JSON_DECODER.raw_decode(text, start)[0]
    except json.JSONDecodeError as exc:
        raise MalformedGenerationError(f"unparseable JSON: {exc}") from exc


def _respond(obj: dict) -> Action:
    value = obj.get("value")
    if isinstance(value, str):
        value = value.strip().lower() in ("true", "yes")
    if not isinstance(value, bool):
        raise ValueError("boolean answer must be true/false")
    return Action(MessageKind.RESPOND, truth=value)


def _respond_broad(obj: dict) -> Action:
    prop, _, value = str(obj["value"]).partition("-")
    characters = obj.get("character") or ()
    if isinstance(characters, str):
        characters = re.findall(r"\d+", characters)
    return Action(
        MessageKind.RESPOND_BROAD,
        prop=prop.strip(),
        value=value.strip(),
        broad_list=tuple(int(c) for c in characters),
    )


# One reader per message kind: the action a generation's JSON object states.
_READERS = {
    MessageKind.REQUEST_SPECIFIC: lambda obj: Action(
        MessageKind.REQUEST_SPECIFIC,
        target=int(obj["character"]),
        prop=str(obj["property"]),
        value=str(obj["value"]),
    ),
    MessageKind.REQUEST_BROAD: lambda obj: Action(MessageKind.REQUEST_BROAD),
    MessageKind.ACCUSE: lambda obj: Action(MessageKind.ACCUSE, target=int(obj["character"])),
    MessageKind.RESPOND: _respond,
    MessageKind.RESPOND_BROAD: _respond_broad,
    MessageKind.SHARE: lambda obj: Action(MessageKind.SHARE, fact_index=int(obj["fact"]) - 1),
    MessageKind.SKIP: lambda obj: Action(MessageKind.SKIP),
}


def parse_output(role: str, text: str) -> Action:
    """The action of a generation by ``role``: its action code k is the
    role's kth kind in ``ROLE_KINDS``, read from the JSON object's fields.
    A generation that states no valid action raises MalformedGenerationError."""
    obj = _extract_json_block(text)
    if "action" not in obj:
        raise MalformedGenerationError("generation missing 'action'")
    code = obj["action"]
    # == rather than a dict lookup, so an unhashable code like [1] is malformed.
    kind = next((kind for k, kind in enumerate(ROLE_KINDS[role], 1) if code == k), None)
    if kind is None:
        raise MalformedGenerationError(f"unknown {role} action {code!r}")
    try:
        return _READERS[kind](obj)
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedGenerationError(f"bad {kind.value}: {exc}") from exc


parse_accuser_output = functools.partial(parse_output, ROLE_ACCUSER)


def describe_suspects(suspects) -> str:
    lines = []
    for suspect in suspects:
        parts = ", ".join(f"{prop} is {value}" for prop, value in suspect.assignment)
        lines.append(f"Character {suspect.suspect_id}: {parts}.")
    return "\n".join(lines)


def describe_winner(facts) -> str:
    return ", ".join(f"their {prop} is {value}" for prop, value in facts) + "."


FORMAT_REMINDER = (
    "\n\nReminder: answer with a single JSON object in the exact Game Mode "
    "output format, including the \"action\" field."
)


class LlmAgent:
    """Backend driving a remote model through the game prompt templates.

    A malformed generation is retried once with a format reminder; a second
    failure raises MalformedGenerationError so the harness can spend the
    turn as an implicit skip.
    """

    def __init__(self, client: LlmClient, role: str, agent_id: str, partner: str = "") -> None:
        self.client = client
        self.role = role
        self.agent_id = agent_id
        self.partner = partner
        # The last knowledge set seen and the system prompt rendered for it.
        self._system: Optional[tuple[object, str]] = None

    def reset(self) -> None:
        pass

    def _prompts(self, obs) -> tuple[str, str]:
        """The system prompt, rendered once per knowledge set, and this
        turn's user prompt, whose channel lines are rendered here from the
        observation's events."""
        if self._system is None or self._system[0] is not obs.knowledge:
            self._system = (obs.knowledge, self._system_prompt(obs))
        system = self._system[1]
        lines = [render(kind, **fields) for kind, fields in obs.events]
        channel = "\n".join(lines) if lines else "(empty)"
        if self.role in (ROLE_ACCUSER, ROLE_INTEL):
            return system, _load_prompt("asym_user.txt").format(
                COMMUNICATION_CHANNEL=channel,
                TURN_COUNT=obs.turn_index,
                MAX_TURN_COUNT=obs.turn_limit,
            )
        facts = "\n".join(
            f"{index + 1}. their {prop} is {value}"
            for index, (prop, value) in enumerate(obs.knowledge.culprit_facts)
        )
        return system, _load_prompt("sym_user.txt").format(
            FACTS=facts,
            COMM_CHANNEL=channel,
            TURN_COUNT=obs.turn_index,
            MAX_TURN_COUNT=obs.turn_limit,
        )

    def _system_prompt(self, obs) -> str:
        table = obs.knowledge.suspect_table  # an accuser has none but knows every culprit fact
        pairs = table[0].assignment if table else obs.knowledge.culprit_facts
        attributes = ", ".join(sorted({p for p, _ in pairs}))
        if self.role == ROLE_ACCUSER:
            return _load_prompt("asym_accuser_system.txt").format(
                NAME=self.agent_id,
                PARTNER_NAME=self.partner,
                SUSPECT_NUM=obs.n_suspects,
                CHARACTER_ATTRIBUTES=attributes,
                WINNER_DESCRIPTION=describe_winner(obs.knowledge.culprit_facts),
            )
        if self.role == ROLE_INTEL:
            return _load_prompt("asym_intel_system.txt").format(
                NAME=self.agent_id,
                PARTNER_NAME=self.partner,
                CHARACTER_ATTRIBUTES=attributes,
                SUSPECT_INFORMATION=describe_suspects(obs.knowledge.suspect_table),
            )
        everyone = [self.agent_id]
        if self.partner:
            everyone += [name.strip() for name in self.partner.split(",")]
        return _load_prompt("sym_system.txt").format(
            NAME=self.agent_id,
            AGENT_COUNT=len(everyone),
            AGENT_NAMES=", ".join(everyone),
            SUSPECT_INFORMATION=describe_suspects(obs.knowledge.suspect_table),
        )

    def _parse(self, text: str) -> Action:
        return parse_output(self.role, text)

    def decide(self, obs, temperature: Optional[float] = None):
        from .agents import AgentDecision

        system, user = self._prompts(obs)
        text, positions = self.client.complete_with_logprobs(
            system, user, temperature=temperature
        )
        try:
            action = self._parse(text)
        except MalformedGenerationError:
            logger.info("malformed generation from %s, retrying once", self.agent_id)
            text, positions = self.client.complete_with_logprobs(
                system, user + FORMAT_REMINDER, temperature=temperature
            )
            action = self._parse(text)  # second failure propagates
        return AgentDecision(action=action, positions=tuple(positions))
