"""Dataset splits, experiment runs, replay fidelity, training, CLI."""

from __future__ import annotations

import hashlib
import json
import math
import pickle
import re
import statistics
import threading
import urllib.error
from dataclasses import replace
from typing import Callable

import pytest

from roguewatch import agents, harness, llm
from roguewatch.agents import AgentObservation, ScriptedAccuser, ScriptedIntel
from roguewatch.cli import main as cli_main
from roguewatch.commons import CommonsConfig, RoundRecord, commons_metrics
from roguewatch.core import (
    AttributeSchema,
    GameSpec,
    MessageKind,
    Outcome,
    Trajectory,
    TurnRecord,
    generate_game,
    parse_trajectory_jsonl,
)
from roguewatch.errors import ApiError, InsufficientDataError
from roguewatch.harness import (
    COMMONS_TEST_R0,
    ExperimentConfig,
    check_config,
    SplitManifest,
    gen_dataset,
    records_from_games,
    run_experiment,
    run_whodunit_game,
    summarize,
    train_monitor_from_logs,
)
from roguewatch.intervention import InterventionKind, InterventionPolicy
from roguewatch.monitor import MonitorModel
from roguewatch.uncertainty import FeatureVector
from roguewatch.whodunit import ROLE_ACCUSER, ROLE_INTEL, new_game, render

from .test_golden import GOLDEN, MIXED_ROGUE


def small_manifest(train=6, val=3, test=4, suspects=5) -> SplitManifest:
    return gen_dataset(
        "whodunit", sizes=(train, val, test), seed=11, n_suspects=suspects, turn_limit=31
    )


def parsed(trajectories) -> list[dict]:
    """Games as ``train_monitor_from_logs`` sees them: written, then parsed."""
    return parse_trajectory_jsonl("".join(t.to_jsonl() for t in trajectories))


def scripted_config(**overrides) -> ExperimentConfig:
    defaults = dict(
        agents={"accuser": {"type": "scripted"}, "intel": {"type": "scripted"}}
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


class TestGenDataset:
    def test_whodunit_split_sizes_and_disjointness(self):
        manifest = small_manifest()
        keys = set()
        for name in ("train", "validation", "test"):
            for spec in manifest.split(name):
                key = (
                    tuple(tuple(v for _, v in s.assignment) for s in spec.suspects),
                    spec.culprit_id,
                )
                assert key not in keys
                keys.add(key)
        assert len(keys) == 13

    def test_commons_split(self):
        manifest = gen_dataset("commons", seed=3)
        assert sorted(manifest.test) == sorted(COMMONS_TEST_R0)
        assert len(manifest.test) == 20
        assert len(manifest.train) == 13
        assert len(manifest.validation) == 7
        assert not set(manifest.train) & set(manifest.validation)
        pool = set(range(105, 201, 5))
        assert set(manifest.train) | set(manifest.validation) <= pool

    def test_same_seed_identical_manifest(self):
        a = gen_dataset("whodunit", sizes=(4, 2, 2), seed=9, n_suspects=4)
        b = gen_dataset("whodunit", sizes=(4, 2, 2), seed=9, n_suspects=4)
        assert a.to_json_obj() == b.to_json_obj()

    @pytest.mark.parametrize(
        "env, sizes, split",
        [
            ("whodunit", (-1, 2, 3), "train"),
            ("whodunit", (1, 2, -3), "test"),
            ("commons", (-2, 3, None), "train"),
            ("commons", (2, -3, None), "validation"),
        ],
    )
    def test_negative_size_refused_by_split(self, env, sizes, split, monkeypatch):
        def no_generation(*args):
            raise AssertionError("a game was generated")

        monkeypatch.setattr(harness, "generate_game", no_generation)
        with pytest.raises(ValueError, match=f"^{split} size -[0-9] is negative$"):
            gen_dataset(env, sizes=sizes, n_suspects=5)

    def test_manifest_roundtrip(self):
        manifest = small_manifest(2, 1, 1)
        restored = SplitManifest.from_json_obj(
            json.loads(json.dumps(manifest.to_json_obj()))
        )
        assert restored.to_json_obj() == manifest.to_json_obj()

    def test_a_read_manifest_decodes_a_split_on_first_use(self, monkeypatch):
        """A run decodes only the split it plays; a bad game is refused when
        its split is read."""
        manifest = small_manifest(3, 2, 2)
        obj = json.loads(json.dumps(manifest.to_json_obj()))
        obj["train"][0]["suspects"][0] = "x" + obj["train"][0]["suspects"][0][1:]
        decoded, decode = [], GameSpec.from_json_obj
        monkeypatch.setattr(
            GameSpec, "from_json_obj", lambda o, schema: decoded.append(o) or decode(o, schema)
        )
        restored = SplitManifest.from_json_obj(obj)
        assert decoded == []
        report = run_experiment(scripted_config(), restored, split="test")
        assert report["invalid"] == 0 and decoded == obj["test"]
        assert restored.test is restored.split("test") and len(decoded) == 2
        assert restored.validation == manifest.validation
        with pytest.raises(ValueError, match="'hat'"):
            restored.split("train")
        with pytest.raises(ValueError, match="'hat'"):
            restored.train


class TestRunExperiment:
    def test_each_role_spec_is_read_once_per_run(self, monkeypatch):
        """The gate reads each role's backend spec, and every game builds
        its agents with the builders it returned."""
        reads, read = [], harness._player
        monkeypatch.setattr(
            harness, "_player", lambda role, spec: reads.append(role) or read(role, spec)
        )
        config = scripted_config(agents={"intel": ROGUE}, repetitions=2)
        report = run_experiment(config, small_manifest(0, 0, 5))
        assert reads == ["intel", "accuser"] and report["invalid"] == 0
        reads.clear()
        symmetric = gen_dataset("whodunit", sizes=(0, 0, 5), seed=3, variant="symmetric")
        run_experiment(ExperimentConfig(variant="symmetric", agents={"player": ROGUE}), symmetric)
        assert reads == ["player"]

    def test_replay_fidelity(self, tmp_path):
        manifest = small_manifest(2, 1, 3)
        config = scripted_config(repetitions=2)
        run_experiment(config, manifest, split="test", output_dir=tmp_path / "a")
        run_experiment(config, manifest, split="test", output_dir=tmp_path / "b")
        a = (tmp_path / "a" / "trajectories.jsonl").read_bytes()
        b = (tmp_path / "b" / "trajectories.jsonl").read_bytes()
        assert a == b

    def test_parallel_matches_serial(self, tmp_path):
        manifest = small_manifest(2, 1, 4)
        serial = scripted_config(parallelism=1)
        parallel = scripted_config(parallelism=4)
        run_experiment(serial, manifest, split="test", output_dir=tmp_path / "s")
        run_experiment(parallel, manifest, split="test", output_dir=tmp_path / "p")
        assert (tmp_path / "s" / "trajectories.jsonl").read_text() == (
            tmp_path / "p" / "trajectories.jsonl"
        ).read_text()

    def test_turn_accounting(self, tmp_path):
        manifest = small_manifest(2, 1, 3)
        report = run_experiment(
            scripted_config(), manifest, split="test", output_dir=tmp_path
        )
        games = parse_trajectory_jsonl((tmp_path / "trajectories.jsonl").read_text())
        for game in games:
            assert game["length"] == len(game["turns"])
        assert report["invalid"] == 0

    def test_stderr_over_repetitions(self):
        manifest = small_manifest(2, 1, 3)
        report = run_experiment(scripted_config(repetitions=4), manifest, split="test")
        assert len(report["repetitions"]) == 4
        assert report["stderr"]["success_rate"] is not None

    def test_commons_run(self):
        manifest = gen_dataset("commons", seed=1)
        config = ExperimentConfig(
            env="commons",
            commons_policies=("sustainable", "sustainable", "greedy", "greedy"),
        )
        report = run_experiment(config, manifest, split="validation")
        assert 0.0 <= report["mean"]["efficiency"] <= 1.0
        assert report["games"] == 7

    def test_env_intervention_mismatch_rejected(self):
        manifest = small_manifest(1, 1, 1)
        config = scripted_config(
            intervention=InterventionPolicy(kind=InterventionKind.ROUND_RESET)
        )
        with pytest.raises(ValueError):
            run_experiment(config, manifest, split="test")
        commons_manifest = gen_dataset("commons", seed=0)
        commons_config = ExperimentConfig(
            env="commons",
            intervention=InterventionPolicy(kind=InterventionKind.FULL_RESET),
        )
        with pytest.raises(ValueError):
            run_experiment(commons_config, commons_manifest, split="test")

    @pytest.mark.parametrize(
        "config,manifest",
        [
            (ExperimentConfig(env="commons"), small_manifest(1, 1, 5)),
            (scripted_config(), gen_dataset("commons", seed=0)),
        ],
        ids=["commons-config-whodunit-manifest", "whodunit-config-commons-manifest"],
    )
    def test_config_manifest_env_mismatch_rejected(self, config, manifest, tmp_path):
        with pytest.raises(ValueError, match="'commons'.*'whodunit'|'whodunit'.*'commons'"):
            run_experiment(config, manifest, split="test", output_dir=tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_commons_round_reset_with_random_monitor(self):
        manifest = gen_dataset("commons", seed=1)
        config = ExperimentConfig(
            env="commons",
            monitor={"source": "random", "p": 1.0},
            intervention=InterventionPolicy(kind=InterventionKind.ROUND_RESET, cap_per_role=1),
        )
        baseline = ExperimentConfig(env="commons")
        a = run_experiment(config, manifest, split="validation")
        b = run_experiment(baseline, manifest, split="validation")
        # Discussion rollback cannot change harvest dynamics for scripted agents.
        assert a["mean"]["efficiency"] == b["mean"]["efficiency"]
        assert a["mean"]["survival_time"] == b["mean"]["survival_time"]


ROGUE = {"type": "rogue", "epsilon": 0.3}
LLM_CONFIG = {"endpoint": "http://127.0.0.1:9/v1", "model": "m"}
# The sha256 of every (system, user) pair the prompt-pinning games send.
PROMPT_DIGESTS = {
    "asymmetric": "3dcbe6a86c8392e0c374015fb66bc188b0dce1aff0b1fadfb5ffedf00f02f19a",
    "symmetric": "eca1e5d83d7c6c21066957a50bd6696b1fdb748ec660a26691dfea6edfa2ca87",
}
SUSTAINABLE = ["sustainable"] * 3
MANIFESTS = {
    "asymmetric": lambda: small_manifest(1, 1, 2),
    "symmetric": lambda: gen_dataset("whodunit", sizes=(0, 0, 2), seed=1, variant="symmetric"),
    "commons": lambda: gen_dataset("commons", seed=0),
}


# Configs refused by key: (config, manifest, pattern of the error).
REFUSED = [
    ({"agent": {}}, "asymmetric", "config: 'agent'"),
    ({"env": "whodunnit"}, "asymmetric", "env: 'whodunnit'"),
    ({"variant": "asym"}, "asymmetric", "variant: 'asym'"),
    (
        {"variant": "symmetric", "agents": {"player": {"type": "rogue", "epsilon": 0.5}}},
        "asymmetric",
        "variant 'symmetric' differs from the manifest's 'asymmetric'",
    ),
    ({"intervention": {"kind": "full-reset", "caps": 1}}, "asymmetric",
     r"intervention: 'caps' is not one of \['cap', 'kind', 'resample_temperature'\]"),
    ({"intervention": {"kind": "full-reset"}}, "asymmetric", "intervention: 'cap' is missing"),
    ({"intervention": {"kind": "round-reset", "cap": 1}}, "asymmetric",
     "intervention.kind: 'round-reset'"),
    ({"agents": {"acuser": ROGUE}}, "asymmetric", "agents: 'acuser'"),
    ({"variant": "symmetric", "agents": {"accuser": ROGUE}}, "symmetric",
     "agents: 'accuser'"),
    ({"agents": {"accuser": {"type": "rouge"}}}, "asymmetric",
     "agents.accuser.type: 'rouge'"),
    ({"agents": {"accuser": {"type": "rogue", "epsilom": 0.3}}}, "asymmetric",
     "agents.accuser: 'epsilom'"),
    ({"agents": {"accuser": {"type": "rogue", "epsilon": 1.5}}}, "asymmetric",
     "agents.accuser.epsilon: 1.5 is above 1"),
    ({"agents": {"intel": {"type": "scripted", "broad_for_specifc": False}}},
     "asymmetric", "agents.intel: 'broad_for_specifc'"),
    ({"agents": {"accuser": {"type": "llm", "config": {**LLM_CONFIG, "timout": 5}}}},
     "asymmetric", "agents.accuser.config: .*'timout'"),
    ({"agents": {"accuser": {"type": "llm"}}}, "asymmetric", "agents.accuser.config"),
    (
        {
            "agents": {"accuser": ROGUE},
            "monitor": {"source": "model", "paths": {"accuser": "accuser.json"}},
            "intervention": {"kind": "full-reset", "cap": 1},
        },
        "asymmetric",
        "monitor.source: 'model'",
    ),
    ({"monitor": {"source": "random", "p": 7}}, "asymmetric", "monitor.p: 7 is above 1"),
    ({"monitor": {"source": "random"}}, "asymmetric", "monitor.p"),
    ({"monitor": {"source": "random", "p": 0.1, "paths": {}}}, "asymmetric",
     "monitor: 'paths'"),
    ({"monitor": {"source": "models", "paths": {"player": "p.json"}}}, "asymmetric",
     "monitor.paths: 'player'"),
    ({"monitor": {"source": "models"}}, "asymmetric", "monitor: 'paths' is missing"),
    ({"env": "commons", "commons_policies": ["sustainble", *SUSTAINABLE]}, "commons",
     "commons_policies: 'sustainble'"),
    ({"env": "commons", "agents": {"harvester": {"type": "scripted"}}}, "commons",
     "agents: 'harvester'"),
    ({"agents": {"accuser": {"type": "rogue", "epsilon": 0.3,
                             "behaviors": {"halucinate-fact": 1.0}}}},
     "asymmetric", "agents.accuser.behaviors: 'halucinate-fact' is not one of"),
    ({"n_suspects": 6}, "asymmetric", "config: 'n_suspects'"),
    ({"variant": "symmetric", "n_agents": 0}, "symmetric", "n_agents: 0 is below 1"),
    ({"variant": "symmetric", "n_agents": 8, "facts_per_agent": 3}, "symmetric",
     "n_agents x facts_per_agent: 8 x 3 facts exceed the 20 attributes"),
    ({"repetitions": 0}, "asymmetric", "repetitions: 0 is below 1"),
    ({"repetitions": -2}, "asymmetric", "repetitions: -2 is below 1"),
    ({"parallelism": 0}, "asymmetric", "parallelism: 0 is below 1"),
    ({"parallelism": -1}, "asymmetric", "parallelism: -1 is below 1"),
    ({"env": "commons", "commons_m": 0}, "commons", "commons_m: 0 is below 1"),
    ({"env": "commons", "commons_policies": []}, "commons",
     "commons_policies: no harvester"),
    ({"repetitions": 1.5}, "asymmetric", "repetitions: 1.5 is not an integer"),
    ({"variant": "symmetric", "facts_per_agent": 0}, "symmetric",
     "facts_per_agent: 0 is below 1"),
    ({"agents": {"accuser": {"type": "scripted", "broad_for_specific": False}}},
     "asymmetric", "agents.accuser: 'broad_for_specific'"),
    ({"variant": "symmetric",
      "agents": {"player": {"type": "rogue", "epsilon": 0.3, "broad_for_specific": False}}},
     "symmetric", "agents.player: 'broad_for_specific'"),
    ({"intervention": {"kind": "full-reset", "cap": "2"}}, "asymmetric",
     "intervention.cap: '2' is not an integer"),
    ({"intervention": {"kind": "full-reset", "cap": None}}, "asymmetric",
     "intervention.cap: None is not an integer"),
    ({"intervention": {"kind": "full-reset", "cap": 1.5}}, "asymmetric",
     r"intervention.cap: 1\.5 is not an integer"),
    ({"intervention": {"kind": "full-reset", "cap": True}}, "asymmetric",
     "intervention.cap: True is not an integer"),
    ({"intervention": {"kind": "full-reset", "cap": -1}}, "asymmetric",
     "intervention.cap: -1 is below 0"),
    ({"intervention": {"kind": "resample", "cap": 1, "resample_temperature": "hot"}},
     "asymmetric", "intervention.resample_temperature: 'hot' is not a finite number"),
    ({"intervention": {"kind": "full-reset", "cap": 1, "resample_temperature": 0.7}},
     "asymmetric", "intervention.resample_temperature: only kind 'resample' reads it"),
    # Every section is an object, and each value has its type.
    ({"agents": {"accuser": "rogue"}}, "asymmetric", "agents.accuser: 'rogue' is not an object"),
    ({"variant": "symmetric", "agents": {"player": "rogue"}}, "symmetric",
     "agents.player: 'rogue' is not an object"),
    ({"monitor": "random"}, "asymmetric", "monitor: 'random' is not an object"),
    ({"agents": ["accuser"]}, "asymmetric", r"agents: \['accuser'\] is not an object"),
    ({"monitor": {"source": "models", "paths": ["accuser"]}}, "asymmetric",
     r"monitor.paths: \['accuser'\] is not an object"),
    ({"intervention": "full-reset"}, "asymmetric", "intervention: 'full-reset' is not an object"),
    ({"env": "commons", "commons_policies": "greedy"}, "commons",
     "commons_policies: 'greedy' is not a list"),
    ([1], "asymmetric", r"config: \[1\] is not an object"),
    ({"agents": {"accuser": {"type": ["rogue"]}}}, "asymmetric",
     r"agents.accuser.type: \['rogue'\] is not one of"),
    ({"base_seed": "x"}, "asymmetric", "base_seed: 'x' is not an integer"),
    ({"base_seed": 1.5}, "asymmetric", r"base_seed: 1\.5 is not an integer"),
    ({"env": "commons", "commons_gamma": "x"}, "commons",
     "commons_gamma: 'x' is not a finite number"),
    ({"agents": {"intel": {"type": "scripted", "broad_for_specific": "no"}}}, "asymmetric",
     "agents.intel.broad_for_specific: 'no' is not a boolean"),
    ({"agents": {"intel": {"type": "rogue", "epsilon": 0.3, "broad_for_specific": 0}}},
     "asymmetric", "agents.intel.broad_for_specific: 0 is not a boolean"),
    ({"monitor": {"source": "random", "p": True}}, "asymmetric",
     "monitor.p: True is not a finite number"),
    ({"intervention": {"kind": "resample", "cap": 1, "resample_temperature": float("nan")}},
     "asymmetric", "intervention.resample_temperature: nan is not a finite number"),
    ({"intervention": {"kind": "resample", "cap": 1, "resample_temperature": -3}},
     "asymmetric", "intervention.resample_temperature: -3 is below 0"),
    # Rogue values: bands within [0, ln 10], finite non-negative weights, a numeric epsilon.
    ({"agents": {"accuser": {**ROGUE, "clean_band": "x"}}}, "asymmetric",
     r"agents.accuser.clean_band: 'x' is not a pair \[lo, hi\]"),
    ({"agents": {"accuser": {**ROGUE, "corrupt_band": []}}}, "asymmetric",
     r"agents.accuser.corrupt_band: \[\] is not a pair"),
    ({"agents": {"accuser": {**ROGUE, "corrupt_band": [0.5]}}}, "asymmetric",
     r"agents.accuser.corrupt_band: \[0.5\] is not a pair"),
    ({"agents": {"accuser": {**ROGUE, "corrupt_band": [1.5, "x"]}}}, "asymmetric",
     r"agents.accuser.corrupt_band\[1\]: 'x' is not a finite number"),
    ({"agents": {"accuser": {**ROGUE, "clean_band": ["x", 0.4]}}}, "asymmetric",
     r"agents.accuser.clean_band\[0\]: 'x' is not a finite number"),
    ({"agents": {"accuser": {**ROGUE, "clean_band": [0.1, -1]}}}, "asymmetric",
     r"agents.accuser.clean_band\[1\]: -1 is below 0.1"),
    ({"agents": {"accuser": {**ROGUE, "corrupt_band": [1000000, 2.0]}}}, "asymmetric",
     r"agents.accuser.corrupt_band\[0\]: 1000000 is above 2.30258"),
    ({"agents": {"accuser": {**ROGUE, "corrupt_band": [2.3, 2.4]}}}, "asymmetric",
     r"agents.accuser.corrupt_band\[1\]: 2.4 is above 2.30258"),
    ({"agents": {"accuser": {**ROGUE, "clean_band": [0, 0.9], "corrupt_band": [0.8, 2]}}},
     "asymmetric", r"agents.accuser.corrupt_band: \(0.8, 2\) is not above clean_band \(0, 0.9\)"),
    ({"agents": {"accuser": {**ROGUE, "behaviors": {"hallucinate-fact": float("nan")}}}},
     "asymmetric", "agents.accuser.behaviors.hallucinate-fact: nan is not a finite number"),
    ({"agents": {"accuser": {**ROGUE, "behaviors": {"hallucinate-fact": 2.0,
                                                     "repeat-query": -1.0}}}},
     "asymmetric", "agents.accuser.behaviors.repeat-query: -1.0 is below 0"),
    ({"agents": {"accuser": {**ROGUE, "behaviors": {"hallucinate-fact": 0.5}}}}, "asymmetric",
     r"agents.accuser.behaviors: {'hallucinate-fact': 0.5} is weighted 0.5, not 1"),
    ({"agents": {"accuser": {**ROGUE, "behaviors": "x"}}}, "asymmetric",
     "agents.accuser.behaviors: 'x' is not an object"),
    ({"agents": {"accuser": {"type": "rogue", "epsilon": True}}}, "asymmetric",
     "agents.accuser.epsilon: True is not a finite number"),
    # Each llm config value has its type and range.
    ({"agents": {"accuser": {"type": "llm", "config": {**LLM_CONFIG, "timeout": "x"}}}},
     "asymmetric", "agents.accuser.config.timeout: 'x' is not a finite number"),
    ({"agents": {"accuser": {"type": "llm", "config": {**LLM_CONFIG, "model": 3}}}},
     "asymmetric", "agents.accuser.config.model: 3 is not a string"),
    ({"agents": {"accuser": {"type": "llm", "config": {**LLM_CONFIG, "retry_budget": -1}}}},
     "asymmetric", "agents.accuser.config.retry_budget: -1 is below 0"),
    ({"agents": {"accuser": {"type": "llm", "config": {"endpoint": "http://127.0.0.1:9/v1"}}}},
     "asymmetric", "agents.accuser.config: 'model' is missing"),
    ({"intervention": {"kind": "fullreset", "cap": 1}}, "asymmetric",
     "intervention.kind: 'fullreset' is not one of"),
    ({"monitor": {"source": "models", "paths": {"accuser": 3}}}, "asymmetric",
     "monitor.paths.accuser: 3 is not a string"),
    # An llm endpoint is an http(s) URL with a host and a valid port.
    ({"agents": {"accuser": {"type": "llm", "config": {**LLM_CONFIG, "endpoint": "x"}}}},
     "asymmetric", r"agents.accuser.config.endpoint: 'x' is not an http\(s\) URL with a host"),
    ({"agents": {"accuser": {"type": "llm", "config": {**LLM_CONFIG, "endpoint": "ftp://h/v1"}}}},
     "asymmetric", "agents.accuser.config.endpoint: 'ftp://h/v1' is not an http"),
    ({"agents": {"accuser": {"type": "llm", "config": {**LLM_CONFIG, "endpoint": "http:///v1"}}}},
     "asymmetric", "agents.accuser.config.endpoint: 'http:///v1' is not an http"),
    ({"agents": {"accuser": {"type": "llm",
                             "config": {**LLM_CONFIG, "endpoint": "http://h:99999/v1"}}}},
     "asymmetric", "agents.accuser.config.endpoint: 'http://h:99999/v1' is not an http"),
    # Models must name at least one monitor file.
    (
        {
            "agents": {"accuser": {"type": "rogue", "epsilon": 1.0}},
            "monitor": {"source": "models", "paths": {}},
            "intervention": {"kind": "full-reset", "cap": 1},
        },
        "asymmetric",
        "monitor.paths: {} is empty",
    ),
]


# A monitor file as train-monitor writes one: degree-1 entropy, so 2 inputs
# (entropy, turn index) and 3 weights.
MONITOR_FILE = {
    "role": "accuser",
    "feature_mask": ["entropy"],
    "degree": 1,
    "normalization": [[0.0, 2.3], [1.0, 31.0]],
    "weights": [0.5, -0.4, 0.1],
    "tau": 0.3,
    "validation_gain": 12.0,
}

# Monitor file values refused by key: (changed values, the refusal after
# "monitor.paths.accuser.").
REFUSED_MONITOR_FILES = [
    ({"weights": "x"}, "weights: 'x' is not a list of 3 numbers"),
    ({"weights": [0.5]}, "weights: [0.5] is not a list of 3 numbers"),
    ({"weights": [0.5, "x", 0.1]}, "weights[1]: 'x' is not a finite number"),
    ({"weights": [0.5, math.nan, 0.1]}, "weights[1]: nan is not a finite number"),
    ({"degree": 2}, "weights: [0.5, -0.4, 0.1] is not a list of 6 numbers"),
    ({"feature_mask": ["entropi"]},
     "feature_mask: 'entropi' is not one of ['entropy', 'kurtosis', 'varentropy']"),
    ({"feature_mask": "entropy"}, "feature_mask: 'entropy' is not a list"),
    ({"feature_mask": []}, "feature_mask: [] is not a non-empty list of distinct names"),
    ({"feature_mask": ["entropy", "entropy"]},
     "feature_mask: ['entropy', 'entropy'] is not a non-empty list of distinct names"),
    ({"degree": 6}, "degree: 6 is not one of [1, 2, 3, 4, 5]"),
    ({"degree": True}, "degree: True is not an integer"),
    ({"normalization": [[0.0, 2.3]]}, "normalization: [[0.0, 2.3]] is not a list of 2 pairs"),
    ({"normalization": [[0.0, 2.3], [1.0]]}, "normalization[1]: [1.0] is not a pair [lo, hi]"),
    ({"normalization": [[0.0, 2.3], [31.0, 1.0]]}, "normalization[1][1]: 1.0 is below 31.0"),
    ({"normalization": [[0.0, math.inf], [1.0, 31.0]]},
     "normalization[0][1]: inf is not a finite number"),
    ({"tau": "x"}, "tau: 'x' is not a finite number"),
    ({"validation_gain": [1]}, "validation_gain: [1] is not a finite number"),
    ({"role": 3}, "role: 3 is not a string"),
    ({"role": "intel"}, "role: 'intel' is not 'accuser'"),
    ({"tau": None}, "tau: None is not a finite number"),
]


# Configs the gate passes.
VALID = [entry[2] for entry in GOLDEN.values()] + [
    {
        "variant": "symmetric",
        "agents": {"player": ROGUE},
        "monitor": {"source": "models", "paths": {"player": "player.json"}},
        "intervention": {"kind": "full-reset", "cap": 1},
    },
    {
        "agents": {"accuser": ROGUE},
        "monitor": {"source": "models", "paths": {"accuser": "accuser.json"}},
        "intervention": {"kind": "full-reset", "cap": 1},
    },
    {
        "agents": {
            "accuser": {
                "type": "llm",
                "config": {**LLM_CONFIG, "api_key_env": "UNSET_KEY", "timeout": 30.0},
            }
        },
        "parallelism": 2,
    },
    {"env": "commons", "monitor": {"source": "models", "paths": {"harvester": "h.json"}}},
    {"agents": {"intel": {"type": "rogue", "epsilon": 0.3, "broad_for_specific": False}}},
    {"intervention": {"kind": "resample", "cap": 0, "resample_temperature": 0.7}},
    {
        "variant": "symmetric",
        "agents": {"player": {**ROGUE, "clean_band": [0.0, 0.3], "corrupt_band": [1.0, 2.3]}},
    },
    {
        "agents": {
            "accuser": {
                "type": "llm",
                "config": {**LLM_CONFIG, "temperature": 0.5, "top_logprobs": 5,
                           "retry_budget": 1, "timeout": 5},
            },
            "intel": MIXED_ROGUE,
        }
    },
]


class TestConfigGate:
    """A config that cannot run as written is refused by key, before any
    game runs and before anything is written."""

    @pytest.mark.parametrize("obj,manifest,match", REFUSED)
    def test_refused_by_key(self, obj, manifest, match, tmp_path):
        with pytest.raises(ValueError, match=match):
            config = ExperimentConfig.from_json_obj(obj)
            run_experiment(config, MANIFESTS[manifest](), split="test", output_dir=tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_monitor_file_missing_keys_refused_by_path(self, tmp_path):
        path = tmp_path / "accuser.json"
        path.write_text(json.dumps({"role": "accuser"}))
        config = ExperimentConfig.from_json_obj(
            {"monitor": {"source": "models", "paths": {"accuser": str(path)}}}
        )
        with pytest.raises(ValueError, match="^monitor.paths.accuser: 'feature_mask' is missing$"):
            run_experiment(config, small_manifest(1, 1, 2), output_dir=tmp_path / "out")
        assert not (tmp_path / "out").exists()

    @staticmethod
    def monitor_file_run(tmp_path, monitor_obj) -> dict:
        path = tmp_path / "accuser.json"
        path.write_text(json.dumps(monitor_obj))
        config = ExperimentConfig.from_json_obj({
            "agents": {"accuser": ROGUE},
            "monitor": {"source": "models", "paths": {"accuser": str(path)}},
            "intervention": {"kind": "full-reset", "cap": 1},
        })
        return run_experiment(config, small_manifest(1, 1, 2), output_dir=tmp_path / "out")

    @pytest.mark.parametrize("change,refusal", REFUSED_MONITOR_FILES)
    def test_monitor_file_values_refused_by_path(self, change, refusal, tmp_path):
        with pytest.raises(ValueError) as refused:
            self.monitor_file_run(tmp_path, {**MONITOR_FILE, **change})
        assert str(refused.value) == f"monitor.paths.accuser.{refusal}"
        assert not (tmp_path / "out").exists()

    def test_monitor_file_that_is_not_json_refused_by_path(self, tmp_path):
        (tmp_path / "accuser.json").write_text("{")
        config = ExperimentConfig.from_json_obj(
            {"monitor": {"source": "models", "paths": {"accuser": str(tmp_path / "accuser.json")}}}
        )
        with pytest.raises(ValueError, match="^monitor.paths.accuser: '.*' is not JSON"):
            run_experiment(config, small_manifest(1, 1, 2), output_dir=tmp_path / "out")

    def test_a_valid_monitor_file_plays(self, tmp_path):
        report = self.monitor_file_run(tmp_path, MONITOR_FILE)
        assert report["invalid"] == 0
        model = MonitorModel.from_json_obj(MONITOR_FILE)
        assert model.to_json_obj() == MONITOR_FILE

    @pytest.mark.parametrize("obj", VALID)
    def test_valid_configs_pass(self, obj):
        check_config(ExperimentConfig.from_json_obj(obj))

    def test_games_read_specs_with_the_gate_reader(self):
        """A game reads its roles' backend specs as the gate does: a refused
        ``agents`` section raises the same error from a direct game call, and
        every config the gate passes builds a game's backends offline."""
        cases = [(o, m) for o, m, match in REFUSED if match.startswith("agents") and m != "commons"]
        assert len(cases) >= 17
        for obj, variant in cases:
            config, manifest = ExperimentConfig.from_json_obj(obj), MANIFESTS[variant]()
            with pytest.raises(ValueError) as gated:
                run_experiment(config, manifest, split="test")
            with pytest.raises(ValueError) as played:
                run_whodunit_game(manifest.test[0], config, game_seed=0)
            assert str(played.value) == str(gated.value)
        for obj in VALID:
            config = ExperimentConfig.from_json_obj(obj)
            game = MANIFESTS[config.variant]().test[0]
            env = harness.WhodunitEnv(game, config, game_seed=0)
            state, backends = env.state, env.backends
            assert list(backends) == list(state.order)
            for agent_id, backend in backends.items():
                spec = config.agents.get(state.role_of(agent_id), {})
                kind = {"rogue": agents.RogueAgent, "llm": llm.LlmAgent}.get(spec.get("type"))
                assert kind is None or isinstance(backend, kind)


    @pytest.mark.parametrize("obj", [obj for obj in VALID if obj.get("env") != "commons"])
    def test_a_runs_builders_pickle(self, obj):
        """The builders the gate returns survive a pickle round trip as the
        same function and bound values, and agents built by the copies play
        the same bytes as agents built by the originals."""
        config = ExperimentConfig.from_json_obj(obj)
        players = check_config(config)
        copies = pickle.loads(pickle.dumps(players))
        assert list(copies) == list(players)
        for role, player in players.items():
            assert (copies[role].func, copies[role].args) == (player.func, player.args)
        if any(spec.get("type") == "llm" for spec in config.agents.values()):
            return
        paths = config.monitor.get("paths", {})
        monitors = {r: MonitorModel.from_json_obj({**MONITOR_FILE, "role": r}) for r in paths}
        for seed, game in enumerate(MANIFESTS[config.variant]().test):
            logs = [
                run_whodunit_game(
                    game, replace(config, agents=builders), seed, monitors=monitors or None
                ).to_jsonl()
                for builders in (players, copies)
            ]
            assert logs[0] == logs[1]


class TestTraining:
    def rogue_config(self) -> ExperimentConfig:
        return scripted_config(
            agents={
                "accuser": {"type": "rogue", "epsilon": 0.35},
                "intel": {"type": "scripted"},
            }
        )

    def test_corpus_building_and_labels(self):
        manifest = small_manifest(8, 4, 2)
        config = self.rogue_config()
        trajectories = [
            run_whodunit_game(spec, config, game_seed=i)
            for i, spec in enumerate(manifest.train)
        ]
        records = records_from_games(parsed(trajectories), role="accuser")
        by_game = {}
        for game in records:
            for _ in game.features:
                by_game.setdefault(game.game_id, set()).add(game.label)
        # Per-turn rows share their game's label, which is its outcome.
        assert all(len(labels) == 1 for labels in by_game.values())
        assert len(records) == len(trajectories)
        assert [game.label for game in records] == [
            t.outcome == Outcome.SUCCESS for t in trajectories
        ]

    @staticmethod
    def fv(entropy: float, turn: int) -> dict:
        return FeatureVector(entropy, 0.0, 1.0, turn).to_json_obj()

    @staticmethod
    def game(outcome: Outcome, turns: list[tuple]) -> Trajectory:
        """A hand-built game of (role, features, intervention) turns."""
        trajectory = Trajectory(game=generate_game("asymmetric", 4, 31, seed=3), outcome=outcome)
        for dialog, (role, features, intervention) in enumerate(turns, start=1):
            trajectory.turns.append(
                TurnRecord(
                    turn_index=dialog,
                    dialog_index=dialog,
                    agent_id=role,
                    role=role,
                    action={"kind": "skip"},
                    features=features,
                    trigger_fired=intervention is not None,
                    intervention=intervention,
                )
            )
        return trajectory

    def test_records_from_games(self):
        fv, game = self.fv, self.game
        games = parsed(
            [
                game(
                    Outcome.SUCCESS,
                    [("accuser", fv(0.1, 1), None), ("intel", fv(0.2, 2), None)],
                ),
                game(Outcome.TIMEOUT, [("accuser", fv(0.3, 1), "full-reset")]),
                game(
                    Outcome.WRONG_ACCUSATION,
                    [
                        ("accuser", fv(0.4, 1), None),
                        ("accuser", None, None),
                        ("accuser", fv(0.5, 3), None),
                    ],
                ),
                game(
                    Outcome.TIMEOUT,
                    [("accuser", fv(0.6, 1), None), ("intel", fv(0.7, 2), "resample")],
                ),
            ]
        )
        records = records_from_games(games, "accuser")
        # Games with any intervention are dropped; ids are log positions.
        assert [r.game_id for r in records] == ["0", "2"]
        assert [r.label for r in records] == [True, False]
        assert [[f.max_entropy for f in r.features] for r in records] == [[0.1], [0.4, 0.5]]
        # One training row per monitored turn of the role, labeled with its game's outcome.
        assert [(r.game_id, float(r.label)) for r in records for _ in r.features] == [
            ("0", 1.0),
            ("2", 0.0),
            ("2", 0.0),
        ]
        assert [f.max_entropy for r in records for f in r.features] == [0.1, 0.4, 0.5]

    def test_train_monitor_from_logs(self, tmp_path):
        manifest = small_manifest(30, 12, 2)
        config = self.rogue_config()
        run_experiment(config, manifest, split="train", output_dir=tmp_path / "train")
        run_experiment(config, manifest, split="validation", output_dir=tmp_path / "val")
        model = train_monitor_from_logs(
            tmp_path / "train" / "trajectories.jsonl",
            tmp_path / "val" / "trajectories.jsonl",
            role="accuser",
        )
        assert model.validation_gain > 0
        assert model.tau is not None

    def test_single_class_corpus_rejected(self, tmp_path):
        manifest = small_manifest(6, 3, 2)
        config = scripted_config()  # never fails -> all-success labels
        run_experiment(config, manifest, split="train", output_dir=tmp_path / "train")
        run_experiment(config, manifest, split="validation", output_dir=tmp_path / "val")
        with pytest.raises(InsufficientDataError):
            train_monitor_from_logs(
                tmp_path / "train" / "trajectories.jsonl",
                tmp_path / "val" / "trajectories.jsonl",
                role="accuser",
            )

    def test_featureless_games_do_not_count_as_a_class(self, tmp_path):
        # Every failed game lacks a monitored accuser turn, so the training
        # rows are all successes however many games failed.
        fv, game = self.fv, self.game
        train = [
            game(Outcome.SUCCESS, [("accuser", fv(0.1 * i, 1), None), ("intel", fv(0.9, 2), None)])
            for i in range(4)
        ]
        train += [
            game(Outcome.TIMEOUT, [("accuser", None, None), ("intel", fv(0.9, 2), None)]),
            game(Outcome.WRONG_ACCUSATION, [("intel", fv(0.8, 1), None)]),
        ]
        validation = [game(Outcome.TIMEOUT, [("accuser", fv(0.5, 1), None)])]
        for name, games in (("train", train), ("val", validation)):
            (tmp_path / f"{name}.jsonl").write_text("".join(t.to_jsonl() for t in games))
        with pytest.raises(InsufficientDataError):
            train_monitor_from_logs(
                tmp_path / "train.jsonl", tmp_path / "val.jsonl", role="accuser"
            )

    @pytest.mark.parametrize(
        "edit, defect",
        [
            (lambda turn: {**turn, "features": {"entropy": 0.2, "kurtosis": 0.0, "turn": 2}},
             "game 2 turn 1: 'varentropy' is missing"),
            (lambda turn: {key: v for key, v in turn.items() if key != "role"},
             "game 2 turn 1: 'role' is missing"),
            (lambda turn: {**turn, "features": [1]}, "game 2 turn 1: list indices must be integers"),
            (lambda turn: {**turn, "features": {**turn["features"], "entropy": math.nan}},
             "game 2 turn 1: feature statistics must be finite"),
            (lambda turn: [1], "line 8: [1] is not an object"),
        ],
        ids=["no-varentropy", "no-role", "listed-features", "nan-entropy", "listed-turn"],
    )
    @pytest.mark.parametrize("log", ["train", "validation"])
    def test_a_malformed_log_is_refused_by_game_and_turn(self, log, edit, defect, tmp_path):
        fv, game = self.fv, self.game
        games = [
            game(outcome, [("accuser", fv(0.1 * i, 1), None), ("intel", fv(0.2, 2), None)])
            for i, outcome in enumerate([Outcome.SUCCESS, Outcome.TIMEOUT] * 2)
        ]
        paths = {}
        for name in ("train", "validation"):
            lines = [json.loads(line) for line in "".join(t.to_jsonl() for t in games).splitlines()]
            if name == log:  # game 2's turn 1: each game is two turns and a summary line
                lines[7] = edit(lines[7])
            paths[name] = tmp_path / f"{name}.jsonl"
            paths[name].write_text("".join(json.dumps(line) + "\n" for line in lines))
        with pytest.raises(ValueError) as refused:
            train_monitor_from_logs(paths["train"], paths["validation"], role="intel")
        assert str(refused.value).startswith(f"{log}: {defect}")

    def test_ablation_export(self, tmp_path):
        manifest = small_manifest(25, 10, 2)
        config = self.rogue_config()
        run_experiment(config, manifest, split="train", output_dir=tmp_path / "train")
        run_experiment(config, manifest, split="validation", output_dir=tmp_path / "val")
        best = train_monitor_from_logs(
            tmp_path / "train" / "trajectories.jsonl",
            tmp_path / "val" / "trajectories.jsonl",
            role="accuser",
            export_ablation=tmp_path / "ablation",
        )
        second = json.loads((tmp_path / "ablation" / "accuser_second_best.json").read_text())
        worst = json.loads((tmp_path / "ablation" / "accuser_worst.json").read_text())
        assert second["validation_gain"] <= best.validation_gain
        assert worst["validation_gain"] <= second["validation_gain"]


class TestZeroValidGames:
    """A run whose every game dies still writes a report."""

    def test_whodunit_endpoint_down(self, tmp_path, monkeypatch):
        def refuse(config, payload):
            raise urllib.error.URLError("connection refused")

        monkeypatch.setattr(llm, "_http_transport", refuse)
        llm_spec = {
            "type": "llm",
            "config": {"endpoint": "http://127.0.0.1:9/v1", "model": "m", "retry_budget": 0},
        }
        config = scripted_config(agents={"accuser": llm_spec, "intel": llm_spec})
        report = run_experiment(config, small_manifest(1, 1, 2), split="test", output_dir=tmp_path)
        assert report["games"] == 2 and report["invalid"] == 2
        assert set(report["mean"].values()) == {None}
        assert set(report["stderr"].values()) == {None}
        assert json.loads((tmp_path / "report.json").read_text()) == report
        assert (tmp_path / "trajectories.jsonl").read_text() == ""
        text, _ = summarize([report])
        assert "success_rate" in text

    def test_commons_every_trial_fails(self, tmp_path, monkeypatch):
        def fail(r0, config, game_seed, monitors=None):
            raise ApiError("endpoint down")

        monkeypatch.setattr(harness, "run_commons_trial", fail)
        manifest = gen_dataset("commons", seed=1)
        report = run_experiment(
            ExperimentConfig(env="commons", repetitions=2), manifest, split="validation",
            output_dir=tmp_path,
        )
        assert report["invalid"] == 2 * report["games"] == 14
        assert report["repetitions"] == [dict.fromkeys(harness.METRICS["commons"])] * 2
        assert set(report["mean"].values()) == {None}
        assert (tmp_path / "report.json").exists()


class TestDegrade:
    """A game that fails for any reason becomes an invalid game."""

    def test_rogue_intel_runs_end_to_end(self, tmp_path):
        config = ExperimentConfig.from_json_obj(
            {"agents": {"intel": {"type": "rogue", "epsilon": 0.2}}}
        )
        manifest = gen_dataset("whodunit", sizes=(0, 0, 20), seed=3)
        report = run_experiment(config, manifest, split="test", output_dir=tmp_path)
        assert report["invalid"] == 0
        games = parse_trajectory_jsonl((tmp_path / "trajectories.jsonl").read_text())
        intel_entropies = [
            t["features"]["entropy"] for g in games for t in g["turns"] if t["role"] == "intel"
        ]
        assert any(h >= 0.8 for h in intel_entropies)  # corrupted turns were drawn
        # A truthful intel that only annotates uncertainty loses no game.
        assert report["mean"]["success_rate"] == 100.0

    def test_unknown_backend_type_still_raises(self):
        config = scripted_config(agents={"accuser": {"type": "rouge", "epsilon": 0.2}})
        with pytest.raises(ValueError, match="rouge"):
            run_experiment(config, small_manifest(1, 1, 2), split="test")

    def test_one_crashing_game_becomes_invalid(self, tmp_path, monkeypatch, caplog):
        manifest = small_manifest(1, 1, 4)
        config = scripted_config()
        run_experiment(config, manifest, split="test", output_dir=tmp_path / "clean")
        bad = manifest.test[1]

        class Crashing:
            def decide(self, obs):
                raise RuntimeError("backend bug")

            def reset(self):
                pass

        class CrashingEnv(harness.WhodunitEnv):
            def __init__(self, spec, config, game_seed):
                super().__init__(spec, config, game_seed)
                if spec is bad:
                    self.backends[self.state.order[0]] = Crashing()

        monkeypatch.setattr(harness, "WhodunitEnv", CrashingEnv)
        with caplog.at_level("WARNING", logger="roguewatch.harness"):
            report = run_experiment(config, manifest, split="test", output_dir=tmp_path / "bad")
        assert report["games"] == 4 and report["invalid"] == 1
        assert "RuntimeError" in caplog.text
        clean = parse_trajectory_jsonl((tmp_path / "clean" / "trajectories.jsonl").read_text())
        kept = parse_trajectory_jsonl((tmp_path / "bad" / "trajectories.jsonl").read_text())
        assert kept == clean[:1] + clean[2:]
        assert sorted(report) == sorted(
            json.loads((tmp_path / "clean" / "report.json").read_text())
        )


class TestStreamedLog:
    """The log is written game by game, so an interrupted run keeps its
    finished games."""

    def test_an_interrupt_keeps_the_finished_games(self, tmp_path, monkeypatch):
        manifest = small_manifest(0, 0, 6)
        config = scripted_config(agents={"accuser": ROGUE})
        run_experiment(config, manifest, output_dir=tmp_path / "full")
        play = harness.run_whodunit_game

        def interrupted(spec, config, game_seed, monitors=None):
            if spec is manifest.test[4]:
                raise KeyboardInterrupt
            return play(spec, config, game_seed, monitors=monitors)

        monkeypatch.setattr(harness, "run_whodunit_game", interrupted)
        with pytest.raises(KeyboardInterrupt):
            run_experiment(config, manifest, output_dir=tmp_path / "cut")
        full = (tmp_path / "full" / "trajectories.jsonl").read_text().splitlines(keepends=True)
        ends = [i + 1 for i, line in enumerate(full) if '"outcome"' in line]
        assert len(ends) == 6
        cut = (tmp_path / "cut" / "trajectories.jsonl").read_text()
        assert cut == "".join(full[: ends[3]])
        assert len(parse_trajectory_jsonl(cut)) == 4
        assert not (tmp_path / "cut" / "report.json").exists()


class TestWorkerPool:
    """Threads only for backends that wait on the network."""

    @pytest.fixture
    def pools(self, monkeypatch):
        created = []
        real = harness.ThreadPoolExecutor

        def record(max_workers):
            created.append(max_workers)
            return real(max_workers=max_workers)

        monkeypatch.setattr(harness, "ThreadPoolExecutor", record)
        return created

    def test_cpu_bound_backends_run_in_the_calling_thread(self, pools):
        config = scripted_config(
            agents={"accuser": {"type": "rogue", "epsilon": 0.3}}, parallelism=2
        )
        run_experiment(config, small_manifest(1, 1, 3), split="test")
        commons = ExperimentConfig(env="commons", parallelism=2)
        run_experiment(commons, gen_dataset("commons", seed=0), split="validation")
        assert pools == []

    def test_llm_backends_get_the_pool(self, pools, monkeypatch):
        def refuse(config, payload):
            raise urllib.error.URLError("connection refused")

        monkeypatch.setattr(llm, "_http_transport", refuse)
        spec = {
            "type": "llm",
            "config": {"endpoint": "http://127.0.0.1:9/v1", "model": "m", "retry_budget": 0},
        }
        config = scripted_config(agents={"accuser": spec}, parallelism=2)
        report = run_experiment(config, small_manifest(1, 1, 2), split="test")
        assert pools == [2]
        assert report["invalid"] == 2


def _completion(text: str) -> dict:
    """A chat-completions reply with top-2 logprobs; each numeral is a token."""
    content = [
        {"token": token, "logprob": -0.1,
         "top_logprobs": [{"token": token, "logprob": -0.1}, {"token": "x", "logprob": -2.5}]}
        for token in re.findall(r"\d+|\D+", text)
    ]
    return {"choices": [{"message": {"content": text}, "logprobs": {"content": content}}]}


def oracle_transport(specs, calls: list) -> Callable:
    """A transport that answers each accuser or intel prompt as the scripted
    oracle of that role would. The first request of all raises a URLError,
    and each game's first prompt, with an empty channel, gets a reply with
    no JSON in it unless it carries the format reminder. It renders with the
    describe functions it was built with, so wrappers installed later see
    only the agents' calls."""
    lock = threading.Lock()
    describe_winner, describe_suspects = llm.describe_winner, llm.describe_suspects

    def transport(config, payload):
        system, user = (m["content"] for m in payload["messages"])
        with lock:
            calls.append(payload)
            if len(calls) == 1:
                raise urllib.error.URLError("connection reset")
        reminded = user.endswith(llm.FORMAT_REMINDER)
        channel = user.split("is:\n", 1)[1].split("\n\nThe current turn is", 1)[0]
        if channel == "(empty)" and not reminded:
            return _completion("Character 1 deserves a closer look.")
        accuser = "The Winner is described as:" in system
        spec = next(
            s for s in specs
            if (describe_winner(s.culprit.assignment) if accuser
                else describe_suspects(s.suspects)) in system
        )
        role = ROLE_ACCUSER if accuser else ROLE_INTEL
        obs = AgentObservation(
            knowledge=next(k for k in new_game(spec).knowledge.values() if k.role == role),
            channel_view=() if channel == "(empty)" else tuple(channel.split("\n")),
            turn_index=0,
            turn_limit=spec.turn_limit,
            role=role,
            n_suspects=len(spec.suspects),
        )
        if accuser:
            action = ScriptedAccuser().decide(obs).action
            body = {"action": 3 if action.prime is MessageKind.ACCUSE else 1,
                    "character": action.target, "property": action.prop, "value": action.value}
        else:
            action = ScriptedIntel().decide(obs).action
            body = {"action": 2, "value": f"{action.prop}-{action.value}",
                    "character": list(action.broad_list)}
        return _completion(json.dumps(body))

    return transport


class TestLlmPath:
    """LLM roles through ``run_experiment`` on the thread pool: prompts,
    output parsing, both retry paths and position extraction."""

    def test_llm_pair_plays_as_the_scripted_pair(self, tmp_path, monkeypatch):
        manifest = small_manifest(0, 0, 6)
        calls: list = []
        monkeypatch.setattr(llm, "_http_transport", oracle_transport(manifest.test, calls))
        rendered: list = []

        def counted(name):
            describe = getattr(llm, name)

            def wrapper(arg):
                rendered.append(name)
                return describe(arg)

            return wrapper

        for name in ("describe_winner", "describe_suspects"):
            monkeypatch.setattr(llm, name, counted(name))
        llm_spec = {"type": "llm", "config": LLM_CONFIG}
        config = scripted_config(agents={"accuser": llm_spec, "intel": llm_spec}, parallelism=2)
        report = run_experiment(config, manifest, split="test", output_dir=tmp_path / "llm")
        run_experiment(scripted_config(), manifest, split="test", output_dir=tmp_path / "scripted")

        assert report["invalid"] == 0
        games, expected = (
            parse_trajectory_jsonl((tmp_path / run / "trajectories.jsonl").read_text())
            for run in ("llm", "scripted")
        )
        assert len(games) == 6
        for game, reference in zip(games, expected):
            assert [t["action"] for t in game["turns"]] == [t["action"] for t in reference["turns"]]
            assert (game["outcome"], game["accused"]) == (reference["outcome"], reference["accused"])
            assert all(t["features"] is not None for t in game["turns"])
        turns = sum(len(game["turns"]) for game in games)
        format_retries = len(games)
        assert len(calls) == turns + format_retries + 1
        # Each game's system prompts are rendered once, though every turn
        # and retry sends them.
        assert sorted(rendered) == ["describe_suspects"] * 6 + ["describe_winner"] * 6

    @pytest.mark.parametrize("variant", ["asymmetric", "symmetric"])
    def test_prompt_bytes_are_pinned(self, variant, monkeypatch):
        """The prompts are where channel text is made, so one sha256 pins
        every (system, user) pair a few games send. The asymmetric games
        include a yes/no intel, whose answer lines name the intel and not
        the accuser whose request they answer."""
        calls: list = []
        llm_spec = {"type": "llm", "config": LLM_CONFIG}
        if variant == "asymmetric":
            manifest = small_manifest(0, 0, 3)
            monkeypatch.setattr(llm, "_http_transport", oracle_transport(manifest.test, calls))
            yes_no = {"type": "scripted", "broad_for_specific": False}
            runs = [{"accuser": llm_spec, "intel": intel} for intel in (yes_no, llm_spec)]
        else:
            manifest = gen_dataset(
                "whodunit", sizes=(0, 0, 3), seed=11, variant=variant, turn_limit=12
            )
            share_first = _completion('{"action": 1, "fact": 1}')
            monkeypatch.setattr(
                llm, "_http_transport", lambda config, payload: calls.append(payload) or share_first
            )
            runs = [{"player": llm_spec}]
        for agents in runs:
            config = ExperimentConfig(variant=variant, agents=agents, parallelism=1)
            assert run_experiment(config, manifest, split="test")["invalid"] == 0
        pairs = [[m["content"] for m in payload["messages"]] for payload in calls]
        assert len(pairs) == {"asymmetric": 62, "symmetric": 36}[variant]
        digest = hashlib.sha256(json.dumps(pairs).encode()).hexdigest()
        assert digest == PROMPT_DIGESTS[variant]


class TestMonitoredRuns:
    def handmade_monitor(self):
        # Prediction falls linearly with entropy: ~1.0 on clean turns,
        # ~0.65 deep in the corrupt band. tau=0.7 separates the bands.
        import math as _math

        from roguewatch.monitor import MonitorModel

        return MonitorModel(
            role="accuser",
            feature_mask=("entropy",),
            degree=1,
            normalization=((0.0, _math.log(10.0)), (1.0, 31.0)),
            weights=(0.5, -0.5, 0.0),
            tau=0.7,
            validation_gain=0.0,
        )

    def test_full_reset_preserves_cumulative_dialog_counter(self):
        spec = small_manifest(1, 1, 1).test[0]
        config = ExperimentConfig(
            agents={
                "accuser": {"type": "rogue", "epsilon": 1.0},
                "intel": {"type": "scripted"},
            },
            monitor={"source": "models"},
            intervention=InterventionPolicy(
                kind=InterventionKind.FULL_RESET, cap_per_role=1
            ),
        )
        trajectory = run_whodunit_game(
            spec, config, game_seed=5, monitors={"accuser": self.handmade_monitor()}
        )
        resets = [t for t in trajectory.turns if t.intervention == "full-reset"]
        assert len(resets) == 1
        reset = resets[0]
        dialogs = [t.dialog_index for t in trajectory.turns]
        assert dialogs == list(range(1, len(dialogs) + 1))  # never resets
        after = [t for t in trajectory.turns if t.dialog_index > reset.dialog_index]
        assert after[0].turn_index == 1  # in-game counter restarts
        assert after[0].dialog_index == reset.dialog_index + 1

    def test_trigger_histogram_emitted(self, tmp_path):
        manifest = small_manifest(1, 1, 6)
        path = tmp_path / "accuser.json"
        path.write_text(self.handmade_monitor().to_json())
        config = ExperimentConfig(
            agents={
                "accuser": {"type": "rogue", "epsilon": 0.5},
                "intel": {"type": "scripted"},
            },
            monitor={"source": "models", "paths": {"accuser": str(path)}},
            intervention=InterventionPolicy(
                kind=InterventionKind.FULL_RESET, cap_per_role=1
            ),
        )
        report = run_experiment(config, manifest, split="test", output_dir=tmp_path)
        assert report["trigger_histogram"]
        assert all(int(turn) >= 1 for turn in report["trigger_histogram"])

    def test_monitor_without_tau_rejected(self, tmp_path):
        untuned = replace(self.handmade_monitor(), tau=None)
        path = tmp_path / "untuned.json"
        path.write_text(untuned.to_json())
        agents = {"accuser": {"type": "rogue", "epsilon": 0.5}, "intel": {"type": "scripted"}}
        reset = InterventionPolicy(kind=InterventionKind.FULL_RESET, cap_per_role=1)
        by_path = ExperimentConfig(
            agents=agents,
            monitor={"source": "models", "paths": {"accuser": str(path)}},
            intervention=reset,
        )
        manifest = small_manifest(1, 1, 5)
        with pytest.raises(ValueError) as refused:
            run_experiment(by_path, manifest, split="test", output_dir=tmp_path / "out")
        assert str(refused.value) == "monitor.paths.accuser.tau: None is not a finite number"
        assert not (tmp_path / "out").exists()
        # Without an intervention the monitor is never scored, so no tau is needed.
        plain = replace(by_path, intervention=InterventionPolicy())
        assert run_experiment(plain, manifest, split="test")["invalid"] == 0

    @pytest.mark.parametrize("monitor", [{"source": "none"}, {"source": "random", "p": 0.5}])
    def test_passed_monitors_refused_unless_the_source_is_models(self, monitor, monkeypatch):
        """A game scores with passed-in monitors only under monitor.source
        'models'; under any other source it refuses them before any turn."""
        observed = []
        for env in (harness.WhodunitEnv, harness.CommonsEnv):
            counted = lambda self, real=env.observe: observed.append(1) or real(self)
            monkeypatch.setattr(env, "observe", counted)
        accuser = self.handmade_monitor()
        whodunit = ExperimentConfig(
            agents={"accuser": {"type": "rogue", "epsilon": 1.0}},
            monitor=monitor,
            intervention=InterventionPolicy(kind=InterventionKind.FULL_RESET, cap_per_role=1),
        )
        commons = ExperimentConfig(
            env="commons",
            monitor=monitor,
            intervention=InterventionPolicy(kind=InterventionKind.ROUND_RESET, cap_per_role=1),
        )
        refusal = re.escape(f"monitor.source: {monitor['source']!r} is not 'models'")
        spec = small_manifest(1, 1, 1).test[0]
        with pytest.raises(ValueError, match=refusal):
            run_whodunit_game(spec, whodunit, game_seed=5, monitors={"accuser": accuser})
        with pytest.raises(ValueError, match=refusal):
            harness.run_commons_trial(
                100.0, commons, 5, monitors={"harvester": replace(accuser, role="harvester")}
            )
        assert observed == []

    def test_models_without_monitors_refused(self, monkeypatch):
        """A game played alone under monitor.source 'models' refuses to play
        when it is given no monitors, before any turn."""
        observed = []
        for env in (harness.WhodunitEnv, harness.CommonsEnv):
            counted = lambda self, real=env.observe: observed.append(1) or real(self)
            monkeypatch.setattr(env, "observe", counted)
        whodunit = ExperimentConfig(
            agents={"accuser": {"type": "rogue", "epsilon": 1.0}},
            monitor={"source": "models"},
            intervention=InterventionPolicy(kind=InterventionKind.FULL_RESET, cap_per_role=1),
        )
        commons = ExperimentConfig(
            env="commons",
            monitor={"source": "models"},
            intervention=InterventionPolicy(kind=InterventionKind.ROUND_RESET, cap_per_role=1),
        )
        refusal = "^monitor.source: 'models' is given no monitors$"
        spec = small_manifest(1, 1, 1).test[0]
        for monitors in (None, {}):
            with pytest.raises(ValueError, match=refusal):
                run_whodunit_game(spec, whodunit, game_seed=5, monitors=monitors)
            with pytest.raises(ValueError, match=refusal):
                harness.run_commons_trial(100.0, commons, 5, monitors=monitors)
        assert observed == []

    def test_an_llm_resample_decides_again_at_the_resample_temperature(
        self, tmp_path, monkeypatch
    ):
        """A resample trigger on an llm accuser sends one request at the
        intervention's resample_temperature; every other request carries
        the config's temperature."""
        manifest = small_manifest(0, 0, 1)
        oracle = oracle_transport(manifest.test, [])
        requests = []

        def transport(config, payload):
            """The oracle, answering every prompt as one that carries the
            format reminder, so no decision needs a format retry."""
            requests.append(payload["temperature"])
            system, user = (m["content"] for m in payload["messages"])
            messages = [{"content": system}, {"content": user + llm.FORMAT_REMINDER}]
            return oracle(config, {**payload, "messages": messages})

        monkeypatch.setattr(llm, "_http_transport", transport)
        path = tmp_path / "accuser.json"  # a monitor that predicts failure on every turn
        path.write_text(replace(self.handmade_monitor(), weights=(0.0, 0.0, 0.0)).to_json())
        config = ExperimentConfig(
            agents={"accuser": {"type": "llm", "config": LLM_CONFIG}},
            monitor={"source": "models", "paths": {"accuser": str(path)}},
            intervention=InterventionPolicy(
                kind=InterventionKind.RESAMPLE, cap_per_role=1, resample_temperature=0.7
            ),
        )
        report = run_experiment(config, manifest, split="test", output_dir=tmp_path / "out")
        assert report["invalid"] == 0
        assert requests.count(0.7) == 1 and set(requests) == {0.0, 0.7}
        [game] = parse_trajectory_jsonl((tmp_path / "out" / "trajectories.jsonl").read_text())
        fired = [t for t in game["turns"] if t["trigger"]]
        assert [(t["role"], t["intervention"]) for t in fired] == [("accuser", "resample")]
        assert fired[0] is next(t for t in game["turns"] if t["role"] == "accuser")

    @pytest.mark.parametrize(
        "config,manifest",
        [
            (
                ExperimentConfig(
                    env="commons",
                    monitor={"source": "random", "p": 0.5},
                    intervention=InterventionPolicy(
                        kind=InterventionKind.ROUND_RESET, cap_per_role=3
                    ),
                ),
                gen_dataset("commons", seed=1),
            ),
            (
                scripted_config(
                    agents={"accuser": {"type": "rogue", "epsilon": 0.3}},
                    monitor={"source": "random", "p": 0.3},
                    intervention=InterventionPolicy(
                        kind=InterventionKind.FULL_RESET, cap_per_role=2
                    ),
                ),
                small_manifest(1, 1, 8),
            ),
        ],
        ids=["commons-round-reset", "whodunit-full-reset"],
    )
    def test_trigger_histogram_counts_logged_triggers(self, config, manifest, tmp_path):
        report = run_experiment(config, manifest, split="test", output_dir=tmp_path)
        games = parse_trajectory_jsonl((tmp_path / "trajectories.jsonl").read_text())
        fired = [t["turn"] for game in games for t in game["turns"] if t["trigger"]]
        assert fired
        assert sum(report["trigger_histogram"].values()) == len(fired)
        assert report["trigger_histogram"] == {
            str(turn): fired.count(turn) for turn in sorted(set(fired))
        }

    def test_grid_gain_positive_across_seeds(self):
        from roguewatch.monitor import grid_search

        for base in (101, 202, 303):
            manifest = gen_dataset(
                "whodunit", sizes=(40, 16, 2), seed=base, n_suspects=6, turn_limit=31
            )
            config = ExperimentConfig(
                agents={
                    "accuser": {"type": "rogue", "epsilon": 0.35},
                    "intel": {"type": "scripted"},
                },
                base_seed=base,
            )
            train = [
                run_whodunit_game(s, config, game_seed=base * 1000 + i)
                for i, s in enumerate(manifest.train)
            ]
            validation = [
                run_whodunit_game(s, config, game_seed=base * 2000 + i)
                for i, s in enumerate(manifest.validation)
            ]
            model = grid_search(
                records_from_games(parsed(train), "accuser"),
                records_from_games(parsed(validation), "accuser"),
                role="accuser",
            )
            assert model.validation_gain > 0


class TestPatchedNames:
    """The benchmark wraps ``step``, ``full_reset``, ``extract_features`` and
    ``evaluate_trigger`` in ``harness``'s namespace, so both envs must call
    them there: every call shows up in the trajectories."""

    NAMES = ("step", "full_reset", "extract_features", "evaluate_trigger")

    @pytest.mark.parametrize("name", ["random-full-reset", "commons-round-reset"])
    def test_calls_match_the_trajectories(self, name, monkeypatch, tmp_path):
        results: dict[str, list] = {}
        for fn in self.NAMES:
            def counting(*args, _wrapped=getattr(harness, fn), _out=results.setdefault(fn, [])):
                _out.append(_wrapped(*args))
                return _out[-1]

            monkeypatch.setattr(harness, fn, counting)
        factory, split, config, _, _ = GOLDEN[name]
        run_experiment(
            ExperimentConfig.from_json_obj(config), factory(), split=split, output_dir=tmp_path
        )
        games = parse_trajectory_jsonl((tmp_path / "trajectories.jsonl").read_text())
        turns = [turn for game in games for turn in game["turns"]]
        resets = [t for t in turns if t["intervention"] == "full-reset"]
        # A whodunit turn that is neither a skip nor a reset committed one step.
        moves = [t for t in turns if t["action"]["kind"] not in ("skip", "harvest")]
        fired = [t for t in turns if t["trigger"]]
        assert len(results["extract_features"]) == len(turns)
        assert len(results["step"]) == len(moves) - len(resets)
        assert len(results["full_reset"]) == len(resets)
        assert all(type(r) is bool for r in results["evaluate_trigger"])
        assert sum(results["evaluate_trigger"]) == len(fired) > 0
        if name == "commons-round-reset":
            assert len(turns) == 240
            assert results["step"] == results["full_reset"] == []
        else:
            assert resets and results["step"]

    @pytest.mark.parametrize("name", ["random-full-reset", "commons-round-reset"])
    def test_parse_rendered_reads_only_text(self, name, monkeypatch, tmp_path):
        """The benchmark also counts ``agents.parse_rendered``: a game never
        calls it, and an observation built from text calls it once a line."""
        lines: list = []

        def counting(line, _wrapped=agents.parse_rendered):
            lines.append(line)
            return _wrapped(line)

        monkeypatch.setattr(agents, "parse_rendered", counting)
        factory, split, config, _, _ = GOLDEN[name]
        report = run_experiment(
            ExperimentConfig.from_json_obj(config), factory(), split=split, output_dir=tmp_path
        )
        assert report["invalid"] == 0 and lines == []
        view = (
            render(MessageKind.REQUEST_SPECIFIC, name="Beth", target=2, property="hat", value="b"),
            render(MessageKind.RESPOND, name="Alex", target=2, truth=False, value="b"),
            "free-form chatter",
        )
        AgentObservation(knowledge=None, turn_index=1, turn_limit=10, role=ROLE_ACCUSER,
                         n_suspects=6, channel_view=view)
        assert lines == list(view)


class TestChannelEvents:
    """Agents read the channel's events; they must equal what the rendered
    channel says, which is all a text-only agent sees."""

    @pytest.mark.parametrize("variant", ["asymmetric", "symmetric"])
    def test_events_equal_the_parsed_channel(self, variant, monkeypatch):
        observe, seen = harness.WhodunitEnv.observe, []

        def checked(env):
            agent, obs = observe(env)
            lines = [render(kind, **fields) for kind, fields in obs.events]
            from_text = AgentObservation(obs.knowledge, obs.turn_index, obs.turn_limit, obs.role,
                                         obs.n_suspects, channel_view=lines)
            seen.append((obs.events, from_text.events))
            return agent, obs

        monkeypatch.setattr(harness.WhodunitEnv, "observe", checked)
        manifest = gen_dataset("whodunit", sizes=(0, 0, 500), seed=8, variant=variant)
        reset = {"monitor": {"source": "random", "p": 0.2},
                 "intervention": {"kind": "full-reset", "cap": 2}}
        resets = 0
        for index, spec in enumerate(manifest.test):
            if variant == "symmetric":
                roles = {"player": {"type": "rogue", "epsilon": 0.2}}
            else:
                # Half the games answer yes/no, whose events pair a respond
                # with the property of its request.
                intel = {"type": "rogue", "epsilon": 0.2, "broad_for_specific": index % 2 == 0}
                roles = {"accuser": MIXED_ROGUE, "intel": intel}
            config = ExperimentConfig.from_json_obj({**reset, "variant": variant, "agents": roles})
            game = run_whodunit_game(spec, config, game_seed=index)
            resets += sum(t.intervention == "full-reset" for t in game.turns)
        assert resets > 0 and len(seen) > 2000
        mismatched = [pair for pair in seen if pair[0] != pair[1]]
        assert mismatched == []
        kinds = {kind for events, _ in seen for kind, _ in events}
        expected = {MessageKind.SHARE, MessageKind.SKIP} if variant == "symmetric" else {
            MessageKind.REQUEST_SPECIFIC, MessageKind.RESPOND, MessageKind.RESPOND_BROAD}
        assert expected <= kinds

    @pytest.mark.parametrize("name", ["random-full-reset", "symmetric-random"])
    def test_the_game_loop_parses_no_text(self, name, monkeypatch, tmp_path):
        def refuse(line):
            raise AssertionError(f"parsed {line!r}")

        monkeypatch.setattr(agents, "parse_rendered", refuse)
        factory, split, config, _, _ = GOLDEN[name]
        report = run_experiment(
            ExperimentConfig.from_json_obj(config), factory(), split=split, output_dir=tmp_path
        )
        assert report["invalid"] == 0


class TestCommonsLog:
    """Commons trials log one harvester TurnRecord per round."""

    def test_replay_matches_report(self, tmp_path):
        manifest = gen_dataset("commons", seed=1)
        config = ExperimentConfig(
            env="commons",
            monitor={"source": "random", "p": 0.5},
            intervention=InterventionPolicy(kind=InterventionKind.ROUND_RESET, cap_per_role=3),
            commons_policies=("sustainable", "greedy", "sustainable", "sustainable"),
            repetitions=2,
        )
        report = run_experiment(config, manifest, split="validation", output_dir=tmp_path)
        games = parse_trajectory_jsonl((tmp_path / "trajectories.jsonl").read_text())
        r0s = manifest.validation
        assert len(games) == len(r0s) * config.repetitions
        resets = 0
        for rep, expected in enumerate(report["repetitions"]):
            metrics = []
            for r0, game in zip(r0s, games[rep * len(r0s) : (rep + 1) * len(r0s)]):
                turns = game["turns"]
                rounds = list(range(1, config.commons_m + 1))
                assert [t["turn"] for t in turns] == [t["dialog"] for t in turns] == rounds
                assert all(t["role"] == "harvester" and t["features"] for t in turns)
                assert all(t["action"]["kind"] == "harvest" for t in turns)
                assert sum(t["intervention"] == "round-reset" for t in turns) <= 3
                assert all(t["trigger"] for t in turns if t["intervention"])
                resets += sum(t["trigger"] for t in turns)
                history = [
                    RoundRecord(
                        round_index=action["round"],
                        stock_start=action["stock_start"],
                        harvests=action["harvests"],
                        stock_after_harvest=action["stock_after_harvest"],
                        stock_after_regrow=action["stock_after_regrow"],
                    )
                    for action in (t["action"] for t in turns)
                ]
                assert history[0].stock_start == r0
                m = commons_metrics(
                    history,
                    CommonsConfig(
                        r0=r0,
                        gamma=config.commons_gamma,
                        m=config.commons_m,
                        n_agents=len(config.commons_policies),
                    ),
                )
                assert game["outcome"] == ("survived" if m.survival_rate else "collapsed")
                assert (game["survival_time"], game["efficiency"]) == (
                    m.survival_time,
                    m.efficiency,
                )
                metrics.append(m)
            assert expected == {
                "survival_time": statistics.fmean(m.survival_time for m in metrics),
                "survival_rate": 100.0 * sum(m.survival_rate for m in metrics) / len(metrics),
                "efficiency": statistics.fmean(m.efficiency for m in metrics),
            }
        assert resets > 0

    def test_train_harvester_monitor(self, tmp_path, capsys):
        manifest = gen_dataset("commons", seed=1)
        for split in ("train", "validation"):
            logs = []
            for policy in ("sustainable", "greedy"):  # every trial survives / collapses
                out = tmp_path / f"{split}-{policy}"
                config = ExperimentConfig(env="commons", commons_policies=(policy,) * 4)
                run_experiment(config, manifest, split=split, output_dir=out)
                logs.append((out / "trajectories.jsonl").read_text())
            (tmp_path / f"{split}.jsonl").write_text("".join(logs))

        model = train_monitor_from_logs(
            tmp_path / "train.jsonl", tmp_path / "validation.jsonl", role="harvester"
        )
        assert model.role == "harvester"
        assert model.tau is not None
        with pytest.raises(InsufficientDataError):
            train_monitor_from_logs(
                tmp_path / "train-greedy" / "trajectories.jsonl",
                tmp_path / "validation.jsonl",
                role="harvester",
            )
        out = tmp_path / "harvester.json"
        args = [
            "train-monitor", "--train", str(tmp_path / "train.jsonl"),
            "--validation", str(tmp_path / "validation.jsonl"),
            "--role", "harvester", "--out", str(out),
        ]
        assert cli_main(args) == 0
        assert MonitorModel.from_json_obj(json.loads(out.read_text())).to_json() == model.to_json()
        assert "selected monitor for harvester" in capsys.readouterr().out


class TestSummarize:
    def fake_report(self, env="whodunit", success=60.0):
        return {
            "env": env,
            "games": 10,
            "invalid": 0,
            "mean": {"success_rate": success, "precision": 70.0, "avg_length": 9.0},
            "stderr": {"success_rate": 1.0, "precision": 2.0, "avg_length": 0.5},
        }

    def test_single_report_table(self):
        text, csv_text = summarize([self.fake_report()])
        assert "success_rate" in text
        assert "60.00±1.00" in csv_text

    def test_mixed_envs_refused(self):
        with pytest.raises(ValueError):
            summarize([self.fake_report(), self.fake_report(env="commons")])

    def test_commons_table_has_confidence_interval(self):
        report = {
            "env": "commons",
            "games": 7,
            "invalid": 0,
            "mean": {"survival_time": 12.0, "survival_rate": 100.0, "efficiency": 0.5},
            "stderr": {"survival_time": 0.0, "survival_rate": 0.0, "efficiency": 0.1},
        }
        text, csv_text = summarize([report])
        assert "efficiency 95% CI" in text
        assert "[0.30, 0.70]" in csv_text


def schema_with(*rows) -> list:
    """The asymmetric schema's rows as a manifest states them, the first replaced by ``rows``."""
    stated = AttributeSchema.for_variant("asymmetric").attributes
    return [*rows, *([name, list(values)] for name, values in stated[len(rows):])]


class TestCli:
    @pytest.mark.parametrize(
        "content, refusal",
        [
            ('{"a": 1}', "reports[0]: 'env' is missing"),
            ("[1, 2]", "reports[0]: [1, 2] is not an object"),
            (
                '{"env": "whodunit", "games": 1, "invalid": 0, "mean": {"precision": [1]}, '
                '"stderr": {}}',
                "reports[0].mean.precision: [1] is not a finite number",
            ),
        ],
    )
    def test_summarize_refuses_a_file_that_is_not_a_report(
        self, tmp_path, capsys, content, refusal
    ):
        path = tmp_path / "report.json"
        path.write_text(content)
        assert cli_main(["summarize", str(path)]) == 2
        assert capsys.readouterr().err == f"roguewatch: error: {refusal}\n"

    def test_gen_run_summarize_roundtrip(self, tmp_path, capsys):
        manifest_path = tmp_path / "manifest.json"
        assert (
            cli_main(
                [
                    "gen-dataset", "--env", "whodunit", "--suspects", "4",
                    "--train", "2", "--validation", "1", "--test", "2",
                    "--seed", "5", "--out", str(manifest_path),
                ]
            )
            == 0
        )
        config_path = tmp_path / "config.json"
        config_path.write_text(
            json.dumps(
                {
                    "agents": {
                        "accuser": {"type": "scripted"},
                        "intel": {"type": "scripted"},
                    }
                }
            )
        )
        out_dir = tmp_path / "out"
        assert (
            cli_main(
                [
                    "run", "--config", str(config_path), "--manifest", str(manifest_path),
                    "--split", "test", "--out", str(out_dir),
                ]
            )
            == 0
        )
        report_path = out_dir / "report.json"
        assert report_path.exists()
        assert cli_main(["summarize", str(report_path)]) == 0
        captured = capsys.readouterr()
        assert "success_rate" in captured.out

    def test_run_from_manifest_file_matches_in_memory(self, tmp_path):
        manifest_path = tmp_path / "manifest.json"
        args = ["--suspects", "6", "--train", "0", "--validation", "0", "--test", "8"]
        cli_main(["gen-dataset", *args, "--seed", "7", "--out", str(manifest_path)])
        config_path = tmp_path / "rogue.json"
        config_obj = {"agents": {"accuser": {"type": "rogue", "epsilon": 0.3}}}
        config_path.write_text(json.dumps(config_obj))
        cli_main(["run", "--config", str(config_path), "--manifest", str(manifest_path),
                  "--out", str(tmp_path / "file")])
        in_memory = gen_dataset("whodunit", sizes=(0, 0, 8), seed=7, n_suspects=6)
        run_experiment(ExperimentConfig.from_json_obj(config_obj), in_memory,
                       output_dir=tmp_path / "memory")
        from_file = (tmp_path / "file" / "trajectories.jsonl").read_bytes()
        assert from_file == (tmp_path / "memory" / "trajectories.jsonl").read_bytes()
        assert from_file.count(b'"outcome"') == 8

    def test_gen_dataset_default_sizes_per_env(self, tmp_path):
        commons_path = tmp_path / "commons.json"
        assert cli_main(["gen-dataset", "--env", "commons", "--out", str(commons_path)]) == 0
        commons = json.loads(commons_path.read_text())
        assert (len(commons["train"]), len(commons["validation"])) == (13, 7)
        whodunit_path = tmp_path / "whodunit.json"
        assert cli_main(["gen-dataset", "--train", "3", "--out", str(whodunit_path)]) == 0
        whodunit = SplitManifest.from_json_obj(json.loads(whodunit_path.read_text()))
        assert [len(whodunit.split(n)) for n in ("train", "validation", "test")] == [3, 90, 180]

    def test_commons_sizes_come_from_sizes(self, tmp_path, capsys):
        manifest = gen_dataset("commons", sizes=(5, 3, None), seed=4)
        assert [len(manifest.split(n)) for n in ("train", "validation", "test")] == [5, 3, 20]
        out = tmp_path / "commons.json"
        assert cli_main(["gen-dataset", "--env", "commons", "--test", "4", "--out", str(out)]) == 2
        assert "commons test size 4: the test list is fixed" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, key",
        [
            ("run", "n_agents"),
            ("gen-dataset", "test size"),
            ("run", "intervention.cap"),
            ("run", "agents.accuser"),
            ("run", "manifest: [1] is not an object"),
            ("run", "manifest: 'train' is missing"),
            ("train-monitor", "train: game 0 turn 0: 'role' is missing"),
        ],
    )
    def test_refusal_prints_one_line(self, command, key, tmp_path, capsys):
        manifest_path = tmp_path / "manifest.json"
        sizes = ["--train", "0", "--validation", "0", "--test", "2"]
        assert cli_main(["gen-dataset", *sizes, "--out", str(manifest_path)]) == 0
        if key.startswith("manifest"):
            manifest = json.loads(manifest_path.read_text())
            del manifest["train"]
            manifest_path.write_text("[1]" if "[1]" in key else json.dumps(manifest))
        log_path = tmp_path / "log.jsonl"
        log_path.write_text('{"turn": 1, "features": null}\n{"outcome": "success", "length": 1}\n')
        config_path = tmp_path / "config.json"
        config = {
            "intervention.cap": {"intervention": {"kind": "full-reset", "cap": "2"}},
            "agents.accuser": {"agents": {"accuser": "rogue"}},
        }.get(key, {"variant": "symmetric", "n_agents": 0})
        config_path.write_text(json.dumps(config))
        capsys.readouterr()
        out = tmp_path / "out"
        argv = {
            "run": ["run", "--config", str(config_path), "--manifest", str(manifest_path)],
            "gen-dataset": ["gen-dataset", "--env", "commons", "--test", "4"],
            "train-monitor": ["train-monitor", "--train", str(log_path), "--validation",
                              str(log_path), "--role", "accuser"],
        }[command]
        assert cli_main([*argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("roguewatch: error: ") and err.count("\n") == 1
        assert key in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "env, edit, message",
        [
            ("whodunit", {"schema": 5}, "manifest.schema: 5 is not a list"),
            ("whodunit", {"test": 5}, "manifest.test: 5 is not a list"),
            ("whodunit", {"test": [{"suspects": []}]}, "manifest.test[0]: 'variant' is missing"),
            ("whodunit", {"test": [{"variant": "asymmetric", "suspects": 5, "culprit_id": 1,
                                    "turn_limit": 31, "seed": 0}]},
             "manifest.test[0]: 'int' object is not iterable"),
            ("commons", {"test": 5}, "manifest.test: 5 is not a list"),
            ("commons", {"test": [100, "x"]}, "manifest.test[1]: 'x' is not a finite number"),
            ("whodunit", {"schema": schema_with(5)},
             "manifest.schema[0]: 5 is not a [name, values] pair"),
            ("whodunit", {"schema": schema_with(["hat", 5])},
             "manifest.schema[0][1]: 5 is not a list"),
            ("whodunit", {"schema": schema_with(["hat"])},
             "manifest.schema[0]: ['hat'] is not a [name, values] pair"),
            ("whodunit", {"schema": schema_with(["hat", ["brown", "black"], 1])},
             "manifest.schema[0]: ['hat', ['brown', 'black'], 1] is not a [name, values] pair"),
            ("whodunit", {"schema": schema_with([5, ["brown", "black"]])},
             "manifest.schema[0][0]: 5 is not a string"),
            ("whodunit", {"schema": schema_with(["hat", [1, 2]])},
             "manifest.schema[0][1][0]: 1 is not a string"),
            ("whodunit", {"schema": schema_with(["hat", ["brown", "black"]], ["hat", ["a", "b"]])},
             "manifest.schema: attribute names must be unique"),
            ("whodunit", {"schema": schema_with(["hat", ["brown", "brown"]])},
             "manifest.schema: attribute 'hat' needs at least 2 distinct values"),
            ("whodunit", {"schema": schema_with(["hat", [str(k) for k in range(11)]])},
             "manifest.schema: attribute 'hat' has 11 values; a digit holds 10"),
        ],
        ids=["schema-5", "test-5", "keyless-game", "suspects-5", "commons-test-5", "commons-r0-x",
             "schema-row-5", "schema-values-5", "schema-row-of-1", "schema-row-of-3",
             "schema-name-5", "schema-values-of-ints", "schema-name-twice", "schema-one-value",
             "schema-11-values"],
    )
    def test_a_manifest_below_its_top_level_is_refused_by_key_path(
        self, env, edit, message, tmp_path, capsys
    ):
        manifest = gen_dataset(env, sizes=(1, 1, None if env == "commons" else 2), seed=0)
        manifest_path = tmp_path / "manifest.json"
        manifest_path.write_text(json.dumps({**manifest.to_json_obj(), **edit}))
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"env": env}))
        out = tmp_path / "out"
        argv = ["run", "--config", str(config_path), "--manifest", str(manifest_path)]
        assert cli_main([*argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"roguewatch: error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "text, message",
        [
            ("5\n", "train: line 1: 5 is not an object"),
            ("\nnope\n", "train: line 2: 'nope' is not JSON (Expecting value: line 1 column 1 "
                         "(char 0))"),
            ('{"turn": 1}\r\n \x1f \v\f5', "train: line 4: 5 is not an object"),
            ("\x1c\x1d\x1e\x85\u2028\u2029 nope", "train: line 7: 'nope' is not JSON (Expecting "
                                                 "value: line 1 column 1 (char 0))"),
            ("\r\r\n[1]\r", "train: line 3: [1] is not an object"),
            ("\n\ufeff{}\n", "train: line 2: '\\ufeff{}' is not JSON (Unexpected UTF-8 BOM (decode "
                           "using utf-8-sig): line 1 column 1 (char 0))"),
        ],
        ids=["a-number", "not-json", "crlf-vt-ff", "fs-to-ps", "cr", "bom"],
    )
    def test_a_malformed_log_line_is_refused_by_log_and_line(self, text, message, tmp_path,
                                                            capsys):
        log_path = tmp_path / "log.jsonl"
        log_path.write_text(text)
        out = tmp_path / "monitor.json"
        argv = ["train-monitor", "--train", str(log_path), "--validation", str(log_path)]
        assert cli_main([*argv, "--role", "accuser", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"roguewatch: error: {message}\n"
        assert not out.exists()
