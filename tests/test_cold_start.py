"""Cold start: only fitting a monitor loads numpy, and only an LLM request
loads the HTTP stack, so every other CLI command starts without them."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
HEAVY = ("numpy", "urllib.request", "http.client")

# Runs in a fresh interpreter from the work directory and prints, as one
# JSON object, which heavy modules are loaded after each stage.
CHILD = """
import json, sys

def loaded():
    return [name for name in {heavy!r} if name in sys.modules]

stages = {{}}
import roguewatch, roguewatch.cli, roguewatch.harness, roguewatch.llm
stages["import"] = loaded()
main = roguewatch.cli.main
main(["gen-dataset", "--suspects", "6", "--train", "20", "--validation", "10",
      "--test", "5", "--seed", "7", "--out", "manifest.json"])
for split in ("train", "validation"):
    main(["run", "--config", "rogue.json", "--manifest", "manifest.json",
          "--split", split, "--out", "runs/" + split])
main(["run", "--config", "monitored.json", "--manifest", "manifest.json",
      "--split", "test", "--out", "runs/monitored"])
main(["summarize", "runs/train/report.json", "runs/monitored/report.json"])
stages["commands"] = loaded()
with open("runs/monitored/report.json") as report:
    stages["triggers"] = sum(json.load(report)["trigger_histogram"].values())
main(["train-monitor", "--train", "runs/train/trajectories.jsonl",
      "--validation", "runs/validation/trajectories.jsonl",
      "--role", "accuser", "--out", "fitted.json"])
stages["train-monitor"] = loaded()
print(json.dumps(stages))
""".format(heavy=HEAVY)

ROGUE = {"agents": {"accuser": {"type": "rogue", "epsilon": 0.3}, "intel": {"type": "scripted"}}}
# Prediction falls linearly with entropy; tau 0.7 separates the clean and
# corrupt entropy bands, so the monitored run needs no fitted monitor.
HANDMADE_MONITOR = {
    "role": "accuser",
    "feature_mask": ["entropy"],
    "degree": 1,
    "normalization": [[0.0, math.log(10.0)], [1.0, 31.0]],
    "weights": [0.5, -0.5, 0.0],
    "tau": 0.7,
    "validation_gain": 0.0,
}


@pytest.fixture(scope="module")
def stages(tmp_path_factory) -> dict:
    work = tmp_path_factory.mktemp("cold_start")
    (work / "rogue.json").write_text(json.dumps(ROGUE))
    (work / "handmade.json").write_text(json.dumps(HANDMADE_MONITOR))
    monitored = {
        **ROGUE,
        "monitor": {"source": "models", "paths": {"accuser": "handmade.json"}},
        "intervention": {"kind": "full-reset", "cap": 1},
    }
    (work / "monitored.json").write_text(json.dumps(monitored))
    pythonpath = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    child = subprocess.run(
        [sys.executable, "-c", CHILD],
        cwd=work,
        env={**os.environ, "PYTHONPATH": pythonpath},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert child.returncode == 0, child.stderr
    return json.loads(child.stdout.splitlines()[-1])


def test_importing_the_package_loads_no_heavy_module(stages):
    assert stages["import"] == []


def test_commands_that_fit_nothing_never_load_numpy(stages):
    # gen-dataset, plain and monitored full-reset runs, and summarize; the
    # monitored run scored turns and fired triggers.
    assert stages["commands"] == []
    assert stages["triggers"] > 0


def test_train_monitor_loads_numpy(stages):
    # Shows the check can see numpy once something does load it.
    assert "numpy" in stages["train-monitor"]
