"""A seeded fuzzer over the config gate: every config it passes plays.

Each config the gate passes (``VALID``) is mutated one value at a time: the
value of each key, at every depth, and each list element is replaced in turn
by each of 13 wrong values. A mutant must either be refused with a
ValueError whose message starts with a key path, or play 2 games with no
invalid game. For a config with an ``llm`` backend, building each game's
backends is the play, so no network is needed. A seeded sample of the
refusals also goes through ``roguewatch run``, which must print each as one
line and exit with status 2.
"""

from __future__ import annotations

import copy
import dataclasses
import functools
import json
import math
import random
import re

import pytest

from roguewatch import harness
from roguewatch.cli import main as cli_main
from roguewatch.harness import ExperimentConfig, SplitManifest, check_config, run_experiment
from roguewatch.monitor import GameRecord, NormalSystem, fit_monitor
from roguewatch.uncertainty import FeatureVector

from .test_harness import VALID

WRONG = (None, True, "x", -1, 0, 1.5, 1e6, math.nan, math.inf, -math.inf, [], {}, [0.5])
TOP_KEYS = {f.name for f in dataclasses.fields(ExperimentConfig)} | {"config"}
# A key path such as "agents.player.corrupt_band[1]", or the "n_agents x
# facts_per_agent" pair, then the colon of the refusal.
KEY_PATH = re.compile(r"(\w+)(?:\.[\w-]+|\[\d+\])*(?: x \w+)?: ")


def value_paths(obj, prefix=()):
    """The path of each key's value and each list element under ``obj``."""
    if isinstance(obj, dict):
        items = obj.items()
    else:
        items = enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from value_paths(value, prefix + (key,))


def mutated(obj, path, value):
    obj = copy.deepcopy(obj)
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return obj


@functools.lru_cache(maxsize=None)
def two_games(env: str, variant: str) -> SplitManifest:
    if env == "commons":
        return SplitManifest("commons", [], [], [100, 210])
    return harness.gen_dataset("whodunit", sizes=(0, 0, 2), seed=3, variant=variant, n_suspects=6)


def fitted_monitor(role: str, path) -> str:
    """Write a small monitor of ``role``, fitted on seeded synthetic turns
    whose games fail when their entropy is high, and return its path."""
    rng = random.Random(role)
    records = []
    for index in range(20):
        entropy = rng.uniform(0.0, math.log(10.0))
        features = tuple(
            FeatureVector(entropy, rng.random(), rng.random(), turn) for turn in (1, 2, 3)
        )
        records.append(GameRecord(features, label=entropy < 1.0, game_id=str(index)))
    model = fit_monitor(NormalSystem.from_games(records), ("entropy",), 1, role=role)
    path.write_text(dataclasses.replace(model, tau=0.5).to_json())
    return str(path)


def with_fitted_monitors(obj, tmp_path):
    """``obj`` with each ``monitor.paths`` file replaced by a fitted monitor."""
    obj = copy.deepcopy(obj)
    paths = obj.get("monitor", {}).get("paths", {})
    for role in paths:
        paths[role] = fitted_monitor(role, tmp_path / f"{role}.json")
    return obj


def manifest_of(obj) -> SplitManifest:
    return two_games(obj.get("env", "whodunit"), obj.get("variant", "asymmetric"))


def play(obj, manifest) -> str:
    """The refusal of a config, or "" once it has played its games: 2 valid
    games, or for an ``llm`` backend each game's backends built offline."""
    try:
        config = ExperimentConfig.from_json_obj(obj)
        check_config(config)
        if any(spec.get("type") == "llm" for spec in config.agents.values()):
            for game in manifest.test:
                harness.WhodunitEnv(game, config, game_seed=0)
            return ""
        report = run_experiment(config, manifest, split="test")
    except Exception as exc:
        message = str(exc)
        match = KEY_PATH.match(message) if isinstance(exc, ValueError) else None
        if match and match.group(1) in TOP_KEYS:
            return message
        return f"no key path: {type(exc).__name__}: {message}"
    invalid = report["invalid"]
    return "" if invalid == 0 else f"passed the gate, then {invalid} of 2 games were invalid"


def mutants(obj):
    for path in value_paths(obj):
        for value in WRONG:
            yield path, value, mutated(obj, path, value)


@pytest.mark.parametrize("index", range(len(VALID)))
def test_every_mutant_is_refused_by_key_or_plays(index, tmp_path):
    obj = with_fitted_monitors(VALID[index], tmp_path)
    manifest = manifest_of(obj)
    assert play(obj, manifest) == ""
    escapes = []
    for path, value, mutant in mutants(obj):
        outcome = play(mutant, manifest)
        if outcome.startswith(("no key path", "passed the gate")):
            escapes.append(f"{'.'.join(map(str, path))} = {value!r}: {outcome}")
    assert not escapes, "\n".join(escapes)


def test_refusals_print_one_line_through_the_cli(tmp_path, capsys):
    refused = []
    for obj in VALID:
        obj = with_fitted_monitors(obj, tmp_path)
        for _, _, mutant in mutants(obj):
            try:
                check_config(ExperimentConfig.from_json_obj(mutant))
            except ValueError as exc:
                refused.append((mutant, manifest_of(obj), str(exc)))
    sample = random.Random(0).sample(refused, 12)
    for index, (mutant, manifest, message) in enumerate(sample):
        config_path, manifest_path = tmp_path / "config.json", tmp_path / "manifest.json"
        config_path.write_text(json.dumps(mutant))
        manifest_path.write_text(json.dumps(manifest.to_json_obj()))
        out = tmp_path / f"out{index}"
        capsys.readouterr()
        argv = ["run", "--config", str(config_path), "--manifest", str(manifest_path)]
        assert cli_main([*argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"roguewatch: error: {message}\n"
        assert not out.exists()
