"""The benchmark's workloads, the counters it recounts from their outputs,
and the spans it wraps around the program's public functions.

Each workload drives only what the CLI drives: ``gen_dataset``,
``run_experiment``, ``train_monitor_from_logs`` and ``summarize``, with
configs and manifests passed through JSON files as the CLI passes them.
"""

from __future__ import annotations

import hashlib
import json
import os
import select
import subprocess
import sys
import time
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path

from roguewatch import agents, core, harness, llm, monitor
from roguewatch.monitor import MonitorModel
from roguewatch.uncertainty import FeatureVector

from spans import Tracer

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"

# Walkthrough: the CLI defaults (210/90/180 games, 10 suspects).
WALK_SIZES = (210, 90, 180)
ROGUE_ACCUSER = {
    "agents": {
        "accuser": {"type": "rogue", "epsilon": 0.3},
        "intel": {"type": "scripted"},
    }
}
# Symmetric-reset: every player a rogue, ~600 test games from --seed, and a
# player monitor fitted on games from a fixed seed. The monitor's degree sets
# the per-turn scoring cost, so a monitor refitted per seed would make the
# timed pass vary with the seed for a reason that is not the game loop.
SYM_SIZES = (210, 90, 600)
SYM_MONITOR_SEED = 0
SYM_BASE = {
    "variant": "symmetric",
    "n_agents": 4,
    "facts_per_agent": 3,
    "agents": {"player": {"type": "rogue", "epsilon": 0.1}},
}
# Llm-endpoint: both asymmetric roles answered by the fake endpoint.
LLM_GAMES = 80
FULL_RESET_CAP = 1
PARALLELISM = 2


@dataclass
class RunOutput:
    """One ``run_experiment`` call's files, and the monitors it ran with."""

    out_dir: Path
    monitors: dict = field(default_factory=dict)
    cap: int = 0


@dataclass
class PassResult:
    wall_s: float
    run_s: float  # time inside run_experiment calls
    runs: list[RunOutput]
    extra: dict = field(default_factory=dict)
    steal_s: float = 0.0  # CPU time the host took from this machine during the pass


@dataclass
class Checked:
    """What the benchmark recounted and checked after a pass."""

    games: int = 0
    attempted: int = 0
    invalid: int = 0
    counters: dict = field(default_factory=dict)
    digests: dict = field(default_factory=dict)
    signature: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)


COUNTER_NAMES = (
    "turns",
    "malformed_skips",
    "illegal_skips",
    "triggers_fired",
    "triggers_suppressed",
    "resets",
    "invalid_games",
)


def recount(run: RunOutput, checked: Checked) -> list[dict]:
    """Recount one run's counters from trajectories.jsonl and report.json,
    checking each trigger against the monitor and the per-role cap. Returns
    the parsed games."""
    text = (run.out_dir / "trajectories.jsonl").read_text()
    report = json.loads((run.out_dir / "report.json").read_text())
    games = core.parse_trajectory_jsonl(text)
    c = checked.counters
    for name in COUNTER_NAMES:
        c.setdefault(name, 0)
    for game in games:
        used: dict[str, int] = {}
        for turn in game["turns"]:
            action = turn["action"]
            c["turns"] += 1
            c["malformed_skips"] += bool(action.get("malformed"))
            c["illegal_skips"] += bool(action.get("illegal"))
            c["resets"] += turn["intervention"] == "full-reset"
            model = run.monitors.get(turn["role"])
            if model is None or turn["features"] is None:
                if turn["trigger"]:
                    checked.errors.append(f"{run.out_dir.name}: unmonitored turn triggered")
                continue
            score = model.predict_success(FeatureVector.from_json_obj(turn["features"]))
            below = score < model.tau
            expected = below and used.get(turn["role"], 0) < run.cap
            if turn["trigger"] != expected:
                checked.errors.append(
                    f"{run.out_dir.name}: trigger {turn['trigger']} where score "
                    f"{score:.4f} vs tau {model.tau} and cap {run.cap} give {expected}"
                )
            if expected:
                used[turn["role"]] = used.get(turn["role"], 0) + 1
                c["triggers_fired"] += 1
            elif below:
                c["triggers_suppressed"] += 1
    c["invalid_games"] += report["invalid"]
    if sum(report["trigger_histogram"].values()) != sum(
        t["trigger"] for g in games for t in g["turns"]
    ):
        checked.errors.append(f"{run.out_dir.name}: trigger histogram disagrees with turns")
    if len(games) + report["invalid"] != report["games"] * report["config"]["repetitions"]:
        checked.errors.append(f"{run.out_dir.name}: games lost between report and log")
    checked.games += len(games)
    checked.attempted += report["games"] * report["config"]["repetitions"]
    checked.invalid += report["invalid"]
    checked.digests[run.out_dir.name] = hashlib.sha256(text.encode()).hexdigest()
    return games


def monitor_key(model: MonitorModel) -> dict:
    return {
        "mask": list(model.feature_mask),
        "degree": model.degree,
        "tau": model.tau,
        "gain": model.validation_gain,
    }


class Workload:
    """Set up once per repetition, then run timed passes over the same
    inputs. Subclasses name their inputs and why they are there."""

    name = ""

    def __init__(self, seed: int, work: Path) -> None:
        self.seed = seed
        self.work = work
        work.mkdir(parents=True, exist_ok=True)

    def setup(self) -> dict:
        """Import the package in a fresh interpreter, as each CLI command
        does, then prepare the inputs. Returns what must repeat across
        set-ups."""
        subprocess.run(
            [sys.executable, "-c", "import roguewatch.harness, roguewatch.llm"],
            env={**os.environ, "PYTHONPATH": str(SRC)},
            check=True,
        )
        return self.prepare()

    def prepare(self) -> dict:
        return {}

    def run_pass(self) -> PassResult:
        raise NotImplementedError

    def check(self, result: PassResult) -> Checked:
        checked = Checked()
        for run in result.runs:
            recount(run, checked)
        return checked

    def close(self) -> None:
        pass

    def _write_json(self, name: str, obj: dict) -> Path:
        path = self.work / name
        path.write_text(json.dumps(obj, indent=2))
        return path

    def _run(
        self, config_path: Path, manifest_path: Path, split: str, out: str, seed=None
    ) -> float:
        """``roguewatch run --seed``: config and manifest read from their
        files. Returns the time spent in ``run_experiment``."""
        config = harness.ExperimentConfig.from_json_obj(json.loads(config_path.read_text()))
        config.base_seed = self.seed if seed is None else seed
        manifest = harness.SplitManifest.from_json_obj(json.loads(manifest_path.read_text()))
        start = time.perf_counter()
        harness.run_experiment(config, manifest, split=split, output_dir=self.work / out)
        return time.perf_counter() - start


class Walkthrough(Workload):
    """The README CLI pipeline, serially: gen-dataset, run train and
    validation, train-monitor for the accuser, run test plain and
    monitored (full-reset, cap 1), summarize. The only workload that fits
    monitors and reads JSONL back."""

    name = "walkthrough"

    def prepare(self) -> dict:
        self.rogue = self._write_json("rogue.json", ROGUE_ACCUSER)
        self.monitor_path = self.work / "accuser_monitor.json"
        self.monitored = self._write_json(
            "monitored.json",
            {
                **ROGUE_ACCUSER,
                "monitor": {"source": "models", "paths": {"accuser": str(self.monitor_path)}},
                "intervention": {"kind": "full-reset", "cap": FULL_RESET_CAP},
            },
        )
        return {}

    def run_pass(self) -> PassResult:
        start = time.perf_counter()
        manifest = harness.gen_dataset("whodunit", sizes=WALK_SIZES, seed=self.seed)
        manifest_path = self._write_json("manifest.json", manifest.to_json_obj())
        run_s = self._run(self.rogue, manifest_path, "train", "train")
        run_s += self._run(self.rogue, manifest_path, "validation", "validation")
        model = harness.train_monitor_from_logs(
            self.work / "train" / "trajectories.jsonl",
            self.work / "validation" / "trajectories.jsonl",
            role="accuser",
        )
        self.monitor_path.write_text(model.to_json())
        run_s += self._run(self.rogue, manifest_path, "test", "test_plain")
        run_s += self._run(self.monitored, manifest_path, "test", "test_monitored")
        reports = [
            json.loads((self.work / out / "report.json").read_text())
            for out in ("test_plain", "test_monitored")
        ]
        table, _ = harness.summarize(reports)
        wall_s = time.perf_counter() - start
        runs = [RunOutput(self.work / out) for out in ("train", "validation", "test_plain")]
        runs.append(RunOutput(self.work / "test_monitored", {"accuser": model}, FULL_RESET_CAP))
        return PassResult(wall_s, run_s, runs, {"monitor": model, "table": table})

    def check(self, result: PassResult) -> Checked:
        checked = super().check(result)
        checked.signature["monitor"] = monitor_key(result.extra["monitor"])
        if len(result.extra["table"].splitlines()) != 3:
            checked.errors.append("summarize did not print one row per report")
        return checked


class SymmetricReset(Workload):
    """A monitored run of ~600 symmetric games (4 rogue players at
    epsilon 0.1, 10 suspects, 3 facts each) with a player monitor fitted
    during set-up, full-reset at cap 1, parallelism 2. The game loop does
    the work; nothing is fitted in the timed pass."""

    name = "symmetric-reset"

    def prepare(self) -> dict:
        train_sizes = (SYM_SIZES[0], SYM_SIZES[1], 0)
        corpus = harness.gen_dataset(
            "whodunit", sizes=train_sizes, seed=SYM_MONITOR_SEED, variant="symmetric"
        )
        corpus_path = self._write_json("corpus.json", corpus.to_json_obj())
        plain = self._write_json("plain.json", SYM_BASE)
        self._run(plain, corpus_path, "train", "train", seed=SYM_MONITOR_SEED)
        self._run(plain, corpus_path, "validation", "validation", seed=SYM_MONITOR_SEED)
        self.model = harness.train_monitor_from_logs(
            self.work / "train" / "trajectories.jsonl",
            self.work / "validation" / "trajectories.jsonl",
            role="player",
        )
        monitor_path = self.work / "player_monitor.json"
        monitor_path.write_text(self.model.to_json())
        config = {
            **SYM_BASE,
            "monitor": {"source": "models", "paths": {"player": str(monitor_path)}},
            "intervention": {"kind": "full-reset", "cap": FULL_RESET_CAP},
            "parallelism": PARALLELISM,
            "base_seed": self.seed,
        }
        self.config = harness.ExperimentConfig.from_json_obj(config)
        self.manifest = harness.gen_dataset(
            "whodunit", sizes=(0, 0, SYM_SIZES[2]), seed=self.seed, variant="symmetric"
        )
        return {"monitor": self.model.to_json_obj()}

    def run_pass(self) -> PassResult:
        start = time.perf_counter()
        harness.run_experiment(
            self.config, self.manifest, split="test", output_dir=self.work / "test"
        )
        wall_s = time.perf_counter() - start
        run = RunOutput(self.work / "test", {"player": self.model}, FULL_RESET_CAP)
        return PassResult(wall_s, wall_s, [run])


class LlmEndpoint(Workload):
    """Asymmetric games with both roles played by ``LlmAgent`` against a
    fake chat-completions endpoint in its own process, at parallelism 2.
    The only workload that exercises the llm layer (prompts, both retry
    paths, position extraction) and a pool that waits on I/O. No rogue, no
    fitting."""

    name = "llm-endpoint"
    proc = None

    def prepare(self) -> dict:
        self._stop_endpoint()
        self.url = self._start_endpoint()
        manifest = harness.gen_dataset("whodunit", sizes=(0, 0, LLM_GAMES), seed=self.seed)
        self.manifest_path = self._write_json("manifest.json", manifest.to_json_obj())
        scripted = self._write_json("scripted.json", {"agents": {}})
        self._run(scripted, self.manifest_path, "test", "reference")
        reference = core.parse_trajectory_jsonl(
            (self.work / "reference" / "trajectories.jsonl").read_text()
        )
        self.reference = [self._sequence(game) for game in reference]
        llm_spec = {
            "type": "llm",
            "config": {
                "endpoint": f"{self.url}/v1/chat/completions",
                "model": "scripted-oracle",
                "api_key_env": "ROGUEWATCH_BENCH_UNSET_KEY",
                "timeout": 30.0,
            },
        }
        self.config = self._write_json(
            "llm.json",
            {"agents": {"accuser": llm_spec, "intel": llm_spec}, "parallelism": PARALLELISM},
        )
        return {"reference": self.reference}

    @staticmethod
    def _sequence(game: dict) -> list:
        return [[t["action"] for t in game["turns"]], game["outcome"], game["accused"]]

    def _start_endpoint(self) -> str:
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "fake_endpoint.py")],
            stdout=subprocess.PIPE,
            text=True,
        )
        ready, _, _ = select.select([self.proc.stdout], [], [], 60.0)
        line = self.proc.stdout.readline() if ready else ""
        if not line.startswith("PORT "):
            self._stop_endpoint()
            raise RuntimeError("fake endpoint did not start")
        return f"http://127.0.0.1:{int(line.split()[1])}"

    def _stop_endpoint(self) -> None:
        if self.proc is None:
            return
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        self.proc = None

    def _control(self, path: str, post: bool = False) -> dict:
        request = urllib.request.Request(self.url + path, data=b"{}" if post else None)
        with urllib.request.urlopen(request, timeout=30) as response:
            return json.loads(response.read())

    def run_pass(self) -> PassResult:
        self._control("/reset", post=True)
        start = time.perf_counter()
        run_s = self._run(self.config, self.manifest_path, "test", "test")
        wall_s = time.perf_counter() - start
        return PassResult(
            wall_s, run_s, [RunOutput(self.work / "test")], {"endpoint": self._control("/stats")}
        )

    def check(self, result: PassResult) -> Checked:
        checked = Checked()
        games = recount(result.runs[0], checked)
        if [self._sequence(game) for game in games] != self.reference:
            checked.errors.append("llm actions or outcomes differ from the scripted pair")
        report = json.loads((result.runs[0].out_dir / "report.json").read_text())
        if report["mean"]["precision"] != 100.0:
            checked.errors.append(f"precision {report['mean']['precision']} is not 100")
        if checked.invalid:
            checked.errors.append(f"{checked.invalid} invalid games")
        stats = result.extra["endpoint"]
        c = checked.counters
        c["format_retries"] = stats["malformed"]
        c["transport_retries"] = stats["errors"]
        if stats["requests"] != c["turns"] + stats["malformed"] + stats["errors"]:
            checked.errors.append(f"endpoint log {stats} disagrees with {c['turns']} turns")
        if not (stats["malformed"] and stats["errors"]):
            checked.errors.append("a retry path went unexercised")
        return checked

    def close(self) -> None:
        self._stop_endpoint()


WORKLOADS = {cls.name: cls for cls in (Walkthrough, SymmetricReset, LlmEndpoint)}


def install_spans(tracer: Tracer) -> None:
    """Wrap the program's public functions at the names its callers use."""
    wrap = tracer.wrap
    wrap(harness, "gen_dataset", "harness.gen_dataset")
    wrap(harness, "run_experiment", "harness.run_experiment")
    wrap(harness, "run_whodunit_game", "harness.run_whodunit_game")
    wrap(harness, "train_monitor_from_logs", "harness.train_monitor_from_logs")
    wrap(harness, "summarize", "harness.summarize")
    wrap(harness.SplitManifest, "to_json_obj", "harness.manifest_json")
    wrap(harness.SplitManifest, "from_json_obj", "harness.manifest_json")
    wrap(harness, "generate_game", "core.generate_game")
    wrap(core.Trajectory, "to_jsonl", "core.to_jsonl")
    wrap(harness, "parse_trajectory_jsonl", "core.parse_trajectory_jsonl")
    wrap(harness, "new_game", "whodunit.new_game")
    wrap(harness, "step", "whodunit.step")
    wrap(agents, "parse_rendered", "whodunit.parse_rendered")
    for backend in (
        agents.ScriptedAccuser,
        agents.ScriptedIntel,
        agents.ScriptedSymmetricPlayer,
        agents.RogueAgent,
        llm.LlmAgent,
    ):
        wrap(backend, "decide", "agents.decide")
    wrap(agents, "distribution_with_entropy", "agents.distribution_with_entropy")
    wrap(harness, "extract_features", "uncertainty.extract_features")
    wrap(monitor.MonitorModel, "predict_success", "monitor.predict_success")
    wrap(monitor, "fit_monitor", "monitor.fit_monitor")
    wrap(monitor, "grid_search_ranked", "monitor.tau_search")
    wrap(harness, "full_reset", "intervention.full_reset")
    wrap(llm.LlmClient, "complete_with_logprobs", "llm.complete_with_logprobs")
    wrap(llm.LlmAgent, "_prompts", "llm.prompt")
    wrap(llm.LlmAgent, "_parse", "llm.parse_output")
    wrap(llm, "extract_positions", "llm.extract_positions")

    evaluate = harness.evaluate_trigger

    def evaluate_trigger(probability, tau, budget, role):
        fired = evaluate(probability, tau, budget, role)
        if fired:
            tracer.count("triggers_fired")
        elif probability < tau:
            tracer.count("triggers_suppressed")
        return fired

    tracer.patch(harness, "evaluate_trigger", evaluate_trigger)
