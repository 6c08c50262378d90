"""The roguewatch benchmark.

    python3 bench/run.py --workload walkthrough --seed 1 --seconds 30 --trace 0

Runs from the root of a checkout and imports the package from ``src/``.
Set-up is repeated and its median reported as ``setup_s``; after one
warm-up pass, timed passes repeat for ``--seconds`` and each end-to-end
metric is the median over the quietest quarter of the passes (see
``quiet``). With ``--trace 1`` it runs untraced passes for half the time and
traced passes for the other half, and reports the per-layer split instead.
Every pass is checked: its outputs must repeat exactly across passes (and
set-ups), and each workload's own gates must hold. The last line of
standard output is the result as JSON; the exit code is 1 if a check
failed. ``--workload all`` runs every workload and prints a table.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_REPEATS = 5
MIN_PASSES = 3
MIN_TRACED_PASSES = 2


def load_program() -> None:
    if not (SRC / "roguewatch" / "__init__.py").is_file():
        raise SystemExit(f"error: no package at {SRC / 'roguewatch'}; run from a checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    # The benchmark talks only to its own loopback endpoint.
    for var in ("http_proxy", "https_proxy", "all_proxy"):
        os.environ.pop(var, None)
        os.environ.pop(var.upper(), None)


def commit() -> str:
    """HEAD's commit, read from .git when the checkout has one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "commit": commit(),
    }


def steal_s() -> float:
    """CPU time the hypervisor has taken from this machine's CPUs since boot
    (the steal column of /proc/stat); 0 where it is not reported."""
    try:
        with open("/proc/stat") as stat:
            fields = stat.readline().split()
    except OSError:
        return 0.0
    return int(fields[8]) / os.sysconf("SC_CLK_TCK") if len(fields) > 8 else 0.0


def quiet(passes: list) -> list:
    """The quietest quarter of the passes: those during which the host took
    no more CPU time than in the pass at the first quartile. On a shared
    virtual machine a pass slows by most of what the host takes, and the
    host takes it in bursts of tens of seconds. Where nothing is taken,
    every pass is kept."""
    stolen = sorted(result.steal_s for result, _, _ in passes)
    limit = stolen[(len(stolen) - 1) // 4]
    return [p for p in passes if p[0].steal_s <= limit]


def quantile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


class Runner:
    def __init__(self, workload) -> None:
        self.workload = workload
        self.errors: list[str] = []
        self.first = None

    def compare(self, label: str, checked) -> None:
        """Every pass's outputs, counters and signature must repeat."""
        self.errors.extend(f"{label}: {e}" for e in checked.errors)
        key = (checked.digests, checked.counters, checked.signature, checked.games)
        if self.first is None:
            self.first = key
        elif key != self.first:
            self.errors.append(f"{label}: outputs differ from the first pass")

    def setups(self) -> list[float]:
        times, first = [], None
        for rep in range(SETUP_REPEATS):
            start = time.perf_counter()
            signature = self.workload.setup()
            times.append(time.perf_counter() - start)
            if first is None:
                first = signature
            elif signature != first:
                self.errors.append(f"set-up {rep}: inputs differ from the first set-up")
        return times

    def passes(self, seconds: float, minimum: int, tracer=None) -> list:
        """Timed passes until ``seconds`` have gone and ``minimum`` are done.
        With a tracer, each pass runs under a root span and its snapshot is
        kept; the checks run after the snapshot so they do not count."""
        results = []
        deadline = time.perf_counter() + seconds
        while len(results) < minimum or time.perf_counter() < deadline:
            label = f"{'traced ' if tracer else ''}pass {len(results)}"
            snapshot = None
            stolen = steal_s()
            if tracer is None:
                result = self.workload.run_pass()
            else:
                with tracer.root("pass"):
                    result = self.workload.run_pass()
                snapshot = tracer.take()
            result.steal_s = steal_s() - stolen
            checked = self.workload.check(result)
            if tracer is not None:
                tracer.take()
                self.errors.extend(f"{label}: {e}" for e in cross_check(snapshot, checked))
            self.compare(label, checked)
            results.append((result, checked, snapshot))
        return results


def e2e_metrics(setup_times: list[float], passes: list) -> dict:
    def median(fn):
        return statistics.median(fn(result, checked) for result, checked, _ in quiet(passes))

    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": median(lambda r, c: r.wall_s),
        "games_per_s": median(lambda r, c: c.games / r.run_s),
        "turns_per_s": median(lambda r, c: c.counters["turns"] / r.run_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


# Spans whose call counts and self times are per-layer metrics.
COUNTED = (
    "core.generate_game",
    "whodunit.step",
    "whodunit.parse_rendered",
    "agents.distribution_with_entropy",
    "uncertainty.extract_features",
    "monitor.predict_success",
    "monitor.fit_monitor",
    "intervention.full_reset",
    "llm.complete_with_logprobs",
    "harness.run_whodunit_game",
)
TIMED = (
    "core.generate_game",
    "core.to_jsonl",
    "core.parse_trajectory_jsonl",
    "whodunit.step",
    "whodunit.new_game",
    "whodunit.parse_rendered",
    "agents.decide",
    "agents.distribution_with_entropy",
    "uncertainty.extract_features",
    "monitor.predict_success",
    "monitor.fit_monitor",
    "monitor.tau_search",
    "llm.prompt",
    "llm.parse_output",
    "llm.extract_positions",
    "harness.gen_dataset",
    "harness.run_experiment",
    "harness.run_whodunit_game",
    "harness.train_monitor_from_logs",
    "harness.summarize",
    "harness.manifest_json",
)
# Spans whose self time some per-layer metric reports; the client's self
# time is reported net of the endpoint's service time, which is reported too.
REPORTED = frozenset(TIMED) | {"llm.complete_with_logprobs"}


def layer_metrics(snap, result, checked) -> dict:
    """Per-layer values of one traced pass; names are BENCHMARK.json's."""
    c = checked.counters
    decide = snap.get("agents.decide")
    decisions = decide.calls - decide.nested_calls
    service_s = result.extra.get("endpoint", {}).get("service_s", 0.0)
    metrics = {f"{name}.calls": snap.get(name).calls for name in COUNTED}
    metrics.update({f"{name}.self_s": snap.get(name).self_s for name in TIMED})
    metrics.update(
        {
            "core.jsonl_bytes": sum(
                (out.out_dir / "trajectories.jsonl").stat().st_size for out in result.runs
            ),
            "whodunit.parse_rendered.per_decision": metrics["whodunit.parse_rendered.calls"]
            / decisions,
            "whodunit.malformed_skips": c["malformed_skips"],
            "whodunit.illegal_skips": c["illegal_skips"],
            "agents.decide.calls": decisions,
            "intervention.triggers_fired": c["triggers_fired"],
            "intervention.triggers_suppressed": c["triggers_suppressed"],
            "llm.complete_with_logprobs.self_s": snap.get("llm.complete_with_logprobs").self_s
            - service_s,
            "llm.endpoint.service_s": service_s,
            "llm.format_retries": c.get("format_retries", 0),
            "llm.transport_retries": c.get("transport_retries", 0),
            "harness.concurrency": snap.get("harness.run_whodunit_game").total_s
            / snap.get("harness.run_experiment").total_s,
            "harness.turns": c["turns"],
            "harness.invalid_games": c["invalid_games"],
            "trace.wall_s": result.wall_s,
            "trace.uncovered_share": sum(
                s.self_s for name, s in snap.stats.items() if name not in REPORTED
            )
            / sum(s.self_s for s in snap.stats.values()),
        }
    )
    return metrics


def declared_units(trace: bool) -> dict:
    """Metric names and units as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def cross_check(snap, checked) -> list[str]:
    """Counts the spans saw must equal the counts recounted from outputs."""
    c = checked.counters
    seen = {
        "triggers_fired": snap.counts.get("triggers_fired", 0),
        "triggers_suppressed": snap.counts.get("triggers_suppressed", 0),
        "resets": snap.get("intervention.full_reset").calls,
    }
    if "format_retries" in c:
        decide = snap.get("agents.decide")
        seen["format_retries"] = (
            snap.get("llm.complete_with_logprobs").calls - decide.calls + decide.nested_calls
        )
    return [
        f"spans count {name}={value}, outputs {c[name]}"
        for name, value in seen.items()
        if value != c[name]
    ]


def traced_metrics(runner, seconds: float) -> tuple[dict, list]:
    """Untraced passes, then traced ones, for half of ``seconds`` each."""
    from spans import Tracer
    from workloads import install_spans

    untraced = runner.passes(seconds / 2, MIN_TRACED_PASSES)
    tracer = Tracer(keep_durations=("harness.run_whodunit_game",))
    install_spans(tracer)
    try:
        traced = runner.passes(seconds / 2, MIN_TRACED_PASSES, tracer)
    finally:
        tracer.uninstall()
    # Every value comes from the same pass, the quiet one of median wall
    # time, so that its self times and uncovered share add up to its wall time.
    per_pass = [layer_metrics(snap, result, checked) for result, checked, snap in quiet(traced)]
    metrics = sorted(per_pass, key=lambda p: p["trace.wall_s"])[(len(per_pass) - 1) // 2]
    metrics["trace.overhead"] = metrics["trace.wall_s"] / statistics.median(
        result.wall_s for result, _, _ in quiet(untraced)
    )
    durations = [
        d for _, _, snap in traced for d in snap.get("harness.run_whodunit_game").durations or ()
    ]
    metrics["harness.run_whodunit_game.p50_us"] = quantile(durations, 0.50) * 1e6
    metrics["harness.run_whodunit_game.p99_us"] = quantile(durations, 0.99) * 1e6
    return metrics, untraced + traced


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, list, dict]:
    from workloads import WORKLOADS

    work = BENCH / f".work-{name}-{os.getpid()}"
    workload = WORKLOADS[name](seed, work)
    runner = Runner(workload)
    try:
        setup_times = runner.setups()
        runner.passes(0, 1)  # warm-up: checked, not timed
        if trace:
            metrics, passes = traced_metrics(runner, seconds)
        else:
            passes = runner.passes(seconds, MIN_PASSES)
            metrics = e2e_metrics(setup_times, passes)
    finally:
        workload.close()
        shutil.rmtree(work, ignore_errors=True)
    units = declared_units(trace)
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {set(metrics) ^ set(units)}")
    result = {
        "correct": not runner.errors,
        "attempted": sum(checked.attempted for _, checked, _ in passes),
        "failed": sum(checked.invalid for _, checked, _ in passes),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    timings = [[r.wall_s, r.run_s, r.steal_s] for r, _, _ in passes]
    return result, runner.errors, runner.first[1], timings


def run_all(args) -> int:
    """Every workload in its own process; a table, then the combined JSON."""
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        if not lines:
            combined["correct"] = False
            print(f"{name}: no result (exit {proc.returncode})")
            continue
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"] and proc.returncode == 0
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:44s} {entry['value']:>14.6g} {entry['unit']}")
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="roguewatch benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run still unwinds, so the endpoint process is stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    load_program()
    if args.workload == "all":
        return run_all(args)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)} or all")
    result, errors, counters, passes = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace)
    )
    print("# env " + json.dumps(environment()))
    print("# counters " + json.dumps(counters, sort_keys=True))
    print("# pass_times [wall_s, run_experiment_s, steal_s] " + json.dumps(passes))
    for error in errors[:20]:
        print("# check failed: " + error)
    if len(errors) > 20:
        print(f"# ... and {len(errors) - 20} more failed checks")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
