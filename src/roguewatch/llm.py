"""Chat-completions client with top-k logprob capture, plus the glue that
turns model generations into game actions and monitored positions.

The wire protocol is the common chat-completions HTTP+JSON shape with the
``logprobs``/``top_logprobs`` options. The transport is injectable so tests
(and offline use) can fake the server; the default transport is stdlib
urllib. API keys are only ever read from a named environment variable.
"""

from __future__ import annotations

import functools
import json
import logging
import math
import os
import re
import urllib.error
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .core import MessageKind
from .errors import ApiError, MalformedGenerationError
from .whodunit import Action

logger = logging.getLogger("roguewatch.llm")

TokenLogprobs = list[list[tuple[str, float]]]

_WHODUNIT_NUMERAL = re.compile(r"\d+")
_COMMONS_NUMERAL = re.compile(r"\d+(?:\.\d+)?")


@dataclass(frozen=True)
class LlmConfig:
    endpoint: str
    model: str
    api_key_env: str = "LLM_API_KEY"
    temperature: float = 0.0
    top_logprobs: int = 10
    retry_budget: int = 2
    timeout: float = 60.0

    @classmethod
    def from_json_obj(cls, obj: dict) -> "LlmConfig":
        return cls(**obj)


def _http_transport(config: LlmConfig, payload: dict) -> dict:
    import urllib.request  # with http.client, email and ssl: loaded on the first request

    headers = {"Content-Type": "application/json"}
    api_key = os.environ.get(config.api_key_env, "")
    if api_key:
        headers["Authorization"] = f"Bearer {api_key}"
    request = urllib.request.Request(
        config.endpoint, data=json.dumps(payload).encode(), headers=headers
    )
    with urllib.request.urlopen(request, timeout=config.timeout) as response:
        return json.loads(response.read().decode())


class LlmClient:
    """Thin client: render payload, post, retry transport failures, and pull
    out the generation plus aligned per-token top-k log probabilities."""

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
    ) -> tuple[str, TokenLogprobs, list[str]]:
        """Returns (generation, per-token top-k lists, token strings)."""
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
                raw = self._transport(self.config, payload)
                return _parse_completion(raw)
            except (urllib.error.URLError, OSError, KeyError, ValueError) as exc:
                last_error = exc
                logger.warning("completion attempt %d failed: %s", attempt + 1, exc)
        raise ApiError(f"completion failed after retries: {last_error}")


def _shaped(value: object, kind: type, what: str):
    if not isinstance(value, kind):
        raise ValueError(f"completion {what} is a {type(value).__name__}, not a {kind.__name__}")
    return value


def _parse_completion(raw: dict) -> tuple[str, TokenLogprobs, list[str]]:
    """The reply's text and logprobs. A reply of the wrong shape raises a
    ValueError naming its defect, so the client retries it."""
    choices = raw["choices"]
    if not isinstance(choices, list) or not choices:
        raise ValueError("completion has no first choice")
    choice = _shaped(choices[0], dict, "choice")
    text = _shaped(_shaped(choice["message"], dict, "message")["content"], str, "content")
    tokens: list[str] = []
    per_token: TokenLogprobs = []
    content = (choice.get("logprobs") or {}).get("content") or []
    for entry in content:
        tokens.append(entry["token"])
        per_token.append(
            [(alt["token"], alt["logprob"]) for alt in entry.get("top_logprobs", [])]
        )
    return text, per_token, tokens


def extract_positions(
    generation: str,
    per_token: TokenLogprobs,
    tokens: Sequence[str],
    env_kind: str = "whodunit",
) -> list[tuple[float, ...]]:
    """Probability vectors at the monitored positions of a generation.

    For whodunit games those are the tokens realizing any numeral (suspect
    ids appear in the structured fields and in the thoughts); for commons
    games, numerals denoting resource amounts, decimals included. Top-k
    masses are renormalized to sum to one. Multi-token numerals contribute
    one vector per constituent token. An empty result is a no-signal turn.
    """
    pattern = _COMMONS_NUMERAL if env_kind == "commons" else _WHODUNIT_NUMERAL
    spans = [m.span() for m in pattern.finditer(generation)]
    if not spans or not tokens:
        return []

    offsets: list[tuple[int, int]] = []
    cursor = 0
    for token in tokens:
        start = generation.find(token, cursor) if token else -1
        if start < 0:
            start = cursor
        end = start + len(token)
        offsets.append((start, end))
        cursor = end

    picked: list[int] = []
    for span_start, span_end in spans:
        for index, (tok_start, tok_end) in enumerate(offsets):
            if tok_start < span_end and span_start < tok_end and index not in picked:
                picked.append(index)

    vectors: list[tuple[float, ...]] = []
    for index in picked:
        alternatives = per_token[index]
        if not alternatives:
            continue
        masses = [math.exp(lp) for _, lp in alternatives]
        total = sum(masses)
        if total <= 0.0:
            continue
        vectors.append(tuple(m / total for m in masses))
    return vectors


@functools.lru_cache(maxsize=8)  # the package ships five templates
def _load_prompt(name: str) -> str:
    from importlib import resources

    return resources.files("roguewatch.prompts").joinpath(name).read_text()


def _extract_json_block(text: str) -> dict:
    start = text.find("{")
    if start < 0:
        raise MalformedGenerationError("no JSON object in generation")
    depth = 0
    for index in range(start, len(text)):
        if text[index] == "{":
            depth += 1
        elif text[index] == "}":
            depth -= 1
            if depth == 0:
                candidate = text[start : index + 1]
                try:
                    return json.loads(candidate)
                except json.JSONDecodeError as exc:
                    raise MalformedGenerationError(f"unparseable JSON: {exc}") from exc
    raise MalformedGenerationError("unbalanced JSON braces in generation")


def parse_accuser_output(text: str) -> Action:
    obj = _extract_json_block(text)
    if "action" not in obj:
        raise MalformedGenerationError("generation missing 'action'")
    action = obj["action"]
    if action == 1:
        try:
            return Action(
                MessageKind.REQUEST_SPECIFIC,
                target=int(obj["character"]),
                prop=str(obj["property"]),
                value=str(obj["value"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise MalformedGenerationError(f"bad specific request: {exc}") from exc
    if action == 2:
        return Action(MessageKind.REQUEST_BROAD)
    if action == 3:
        try:
            return Action(MessageKind.ACCUSE, target=int(obj["character"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise MalformedGenerationError(f"bad award: {exc}") from exc
    raise MalformedGenerationError(f"unknown accuser action {action!r}")


def parse_intel_output(text: str) -> Action:
    obj = _extract_json_block(text)
    if "action" not in obj:
        raise MalformedGenerationError("generation missing 'action'")
    action = obj["action"]
    if action == 1:
        value = obj.get("value")
        if isinstance(value, str):
            value = value.strip().lower() in ("true", "yes")
        if not isinstance(value, bool):
            raise MalformedGenerationError("boolean answer must be true/false")
        return Action(MessageKind.RESPOND, truth=value)
    if action == 2:
        try:
            prop, _, value = str(obj["value"]).partition("-")
            characters = obj.get("character") or ()
            if isinstance(characters, str):
                characters = [c for c in re.findall(r"\d+", characters)]
            return Action(
                MessageKind.RESPOND_BROAD,
                prop=prop.strip(),
                value=value.strip(),
                broad_list=tuple(int(c) for c in characters),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise MalformedGenerationError(f"bad broad message: {exc}") from exc
    raise MalformedGenerationError(f"unknown intel action {action!r}")


def parse_symmetric_output(text: str) -> Action:
    obj = _extract_json_block(text)
    if "action" not in obj:
        raise MalformedGenerationError("generation missing 'action'")
    action = obj["action"]
    if action == 1:
        try:
            return Action(MessageKind.SHARE, fact_index=int(obj["fact"]) - 1)
        except (KeyError, TypeError, ValueError) as exc:
            raise MalformedGenerationError(f"bad share: {exc}") from exc
    if action == 2:
        try:
            return Action(MessageKind.ACCUSE, target=int(obj["character"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise MalformedGenerationError(f"bad award: {exc}") from exc
    if action == 3:
        return Action(MessageKind.SKIP)
    raise MalformedGenerationError(f"unknown symmetric action {action!r}")


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

    def reset(self) -> None:
        pass

    def _prompts(self, obs) -> tuple[str, str]:
        attributes = ", ".join(sorted({p for p, _ in _schema_pairs(obs)}))
        channel = "\n".join(obs.channel_view) if obs.channel_view else "(empty)"
        if self.role == "accuser":
            system = _load_prompt("asym_accuser_system.txt").format(
                NAME=self.agent_id,
                PARTNER_NAME=self.partner,
                SUSPECT_NUM=obs.n_suspects,
                CHARACTER_ATTRIBUTES=attributes,
                WINNER_DESCRIPTION=describe_winner(obs.knowledge.culprit_facts),
            )
            user = _load_prompt("asym_user.txt").format(
                COMMUNICATION_CHANNEL=channel,
                TURN_COUNT=obs.turn_index,
                MAX_TURN_COUNT=obs.turn_limit,
            )
        elif self.role == "intel":
            system = _load_prompt("asym_intel_system.txt").format(
                NAME=self.agent_id,
                PARTNER_NAME=self.partner,
                CHARACTER_ATTRIBUTES=attributes,
                SUSPECT_INFORMATION=describe_suspects(obs.knowledge.suspect_table),
            )
            user = _load_prompt("asym_user.txt").format(
                COMMUNICATION_CHANNEL=channel,
                TURN_COUNT=obs.turn_index,
                MAX_TURN_COUNT=obs.turn_limit,
            )
        else:
            facts = "\n".join(
                f"{index + 1}. their {prop} is {value}"
                for index, (prop, value) in enumerate(obs.knowledge.culprit_facts)
            )
            everyone = [self.agent_id]
            if self.partner:
                everyone += [name.strip() for name in self.partner.split(",")]
            system = _load_prompt("sym_system.txt").format(
                NAME=self.agent_id,
                AGENT_COUNT=len(everyone),
                AGENT_NAMES=", ".join(everyone),
                SUSPECT_INFORMATION=describe_suspects(obs.knowledge.suspect_table),
            )
            user = _load_prompt("sym_user.txt").format(
                FACTS=facts,
                COMM_CHANNEL=channel,
                TURN_COUNT=obs.turn_index,
                MAX_TURN_COUNT=obs.turn_limit,
            )
        return system, user

    def _parse(self, text: str):
        if self.role == "accuser":
            return parse_accuser_output(text)
        if self.role == "intel":
            return parse_intel_output(text)
        return parse_symmetric_output(text)

    def decide(self, obs, temperature: Optional[float] = None):
        from .agents import AgentDecision

        system, user = self._prompts(obs)
        text, per_token, tokens = self.client.complete_with_logprobs(
            system, user, temperature=temperature
        )
        try:
            action = self._parse(text)
        except MalformedGenerationError:
            logger.info("malformed generation from %s, retrying once", self.agent_id)
            text, per_token, tokens = self.client.complete_with_logprobs(
                system, user + FORMAT_REMINDER, temperature=temperature
            )
            action = self._parse(text)  # second failure propagates
        positions = extract_positions(text, per_token, tokens, env_kind="whodunit")
        return AgentDecision(action=action, positions=tuple(positions))

    def resample(self, obs, temperature: Optional[float] = None):
        """Re-invocation after a discarded decision, optionally at a raised
        temperature (a temperature-0 resample would reproduce the discard)."""
        return self.decide(obs, temperature=temperature)


def _schema_pairs(obs):
    if obs.knowledge.suspect_table:
        return list(obs.knowledge.suspect_table[0].assignment)
    return list(obs.knowledge.culprit_facts)
