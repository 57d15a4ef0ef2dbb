"""Benchmark of the cookietrail CLI chain: simulate -> build-jar -> detect -> report.

Usage, from the repository root:

    python3 perfbench/run.py --workload crawl-scale --seed 1 --seconds 55 --trace 0

Load model: a closed loop in one process with one client.  Each command
starts after the previous one finishes, through ``cookietrail.cli.main`` in
this process.  Each repetition runs the whole chain on every ecosystem of the
workload and checks the artifacts against the simulator's ground truth.  The
loop repeats until ``--seconds`` have passed (at least one repetition).

``--trace 0`` prints the end-to-end metrics, medians over repetitions; the
times are scaled to a reference machine speed by the probe in
``calibrate.py``, and the raw medians are printed too.
``--trace 1`` alternates untraced and traced repetitions, adds one traced
repetition at half size for the scaling slopes, and prints the per-layer
metrics; the spans go to ``.perfbench/trace-<workload>-<seed>.ndjson``.
``--workload all`` runs every workload in turn.

Every line but the last is for people; the last line is one JSON object with
``correct``, ``attempted``, ``failed`` (chains) and ``metrics``.  The exit code
is 0 when every chain passed the correctness gate, 1 when one failed and 2
when the program cannot be found or run.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench"

# name -> (unit, better, bound).  Times get the widest bound allowed: even
# after speed scaling, runs of the same code on a shared machine differ by
# about a tenth.
END_TO_END = {
    "analyze_s": ("s", "lower", 0.25),
    "simulate_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MiB", "lower", 0.15),
    "setup_s": ("s", "lower", 0.25),
}
SETUP_MIN_REPEATS = 7
SETUP_MAX_REPEATS = 25
SETUP_BUDGET_S = 1.5


def _import_program():
    """Import the checkout's own ``cookietrail`` from ``src/``; exit 2 if it is not there."""
    source = ROOT / "src"
    if not (source / "cookietrail" / "__init__.py").is_file():
        print(f"perfbench: no program under {source}", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(source), str(ROOT)]
    import cookietrail

    if Path(cookietrail.__file__).resolve().parent != (source / "cookietrail").resolve():
        print(f"perfbench: imported {cookietrail.__file__}, not the checkout's program", file=sys.stderr)
        sys.exit(2)


def _timed_setups(workload, seed: int, directory: Path):
    """Set the workload up several times; returns the last instance and the median set-up time."""
    from cookietrail import simulator

    from perfbench.chain import set_up

    times = []
    while len(times) < SETUP_MIN_REPEATS or (sum(times) < SETUP_BUDGET_S and len(times) < SETUP_MAX_REPEATS):
        shutil.rmtree(directory, ignore_errors=True)
        start = time.perf_counter()
        instance = set_up(workload, seed, directory)
        simulator.default_synonyms()
        times.append(time.perf_counter() - start)
    return instance, statistics.median(times), len(times)


class Gate:
    """Failed chains out of attempted chains; a chain is (repetition label, ecosystem index)."""

    def __init__(self):
        self.attempted = 0
        self.failed: dict[tuple, str] = {}

    def add(self, label: str, chains: int, failures) -> None:
        self.attempted += chains
        for index, message in failures:
            self.failed.setdefault((label, index), message)

    def fail_all(self, labels_chains: list[tuple[str, int]], message: str) -> None:
        for label, chains in labels_chains:
            for index in range(chains):
                self.failed.setdefault((label, index), message)


def _gate_repetitions(gate: Gate, instance, reps, labels, pins) -> None:
    from perfbench.chain import check_digests

    for label, rep in zip(labels, reps):
        gate.add(label, rep.chains, rep.failures)
    for rep_number, index, message in check_digests(instance, reps, pins):
        if index is None:
            gate.fail_all([(label, rep.chains) for label, rep in zip(labels, reps)], message)
        else:
            gate.failed.setdefault((labels[rep_number], index), message)


def run_workload(args, workload) -> tuple[Gate, dict]:
    from perfbench import tracing
    from perfbench.calibrate import Speedometer
    from perfbench.chain import load_pins, run_repetition, set_up

    directory = WORK / f"{workload.name}-{args.seed}-{os.getpid()}"
    pins = load_pins()
    gate = Gate()
    metrics: dict[str, tuple[float, str, int]] = {}  # name -> (value, unit, samples)
    try:
        instance, setup_s, setup_samples = _timed_setups(workload, args.seed, directory / "full")
        meter = Speedometer()
        started = time.perf_counter()
        plain, traced, tracers = [], [], []
        # Stop at the repetition boundary nearest to --seconds (at least one).
        while not plain or (time.perf_counter() - started) * (1 + 0.5 / len(plain)) < args.seconds:
            plain.append(run_repetition(instance, meter=meter, plant_fault=args.plant_fault and not plain))
            if args.trace:
                tracer = tracing.Tracer()
                with tracing.hooks_installed(tracer):
                    traced.append(run_repetition(instance, tracer))
                tracers.append(tracer)
        labels = [f"plain{i}" for i in range(len(plain))] + [f"traced{i}" for i in range(len(traced))]
        _gate_repetitions(gate, instance, plain + traced, labels, pins)
        if args.trace:
            half = set_up(workload, args.seed, directory / "half", scale=0.5)
            half_tracer = tracing.Tracer()
            with tracing.hooks_installed(half_tracer):
                half_rep = run_repetition(half, half_tracer)
            gate.add("half", half_rep.chains, half_rep.failures)
            full_layers = tracing.median_metrics([tracing.layer_metrics(t) for t in tracers])
            values = dict(full_layers)
            values.update(tracing.slopes(full_layers, tracing.layer_metrics(half_tracer), instance.sites, half.sites))
            values["trace.overhead_s"] = (
                statistics.median([r.analyze_s for r in traced]) - statistics.median([r.analyze_s for r in plain])
            )
            for name, (unit, _better) in tracing.PER_LAYER.items():
                metrics[name] = (values[name], unit, len(tracers))
            tracing.write_spans(
                WORK / f"trace-{workload.name}-{args.seed}.ndjson",
                [(f"full{i}", t) for i, t in enumerate(tracers)] + [("half", half_tracer)],
            )
        else:
            scale = meter.scale()
            analyze = statistics.median(r.analyze_s for r in plain)
            simulate = statistics.median(r.simulate_s for r in plain)
            print(f"{workload.name:14s} raw analyze_s {analyze:.6f} s, simulate_s {simulate:.6f} s, "
                  f"setup_s {setup_s:.6f} s; speed scale {scale:.4f} from {len(meter.samples)} probes")
            metrics["analyze_s"] = (analyze * scale, "s", len(plain))
            metrics["simulate_s"] = (simulate * scale, "s", len(plain))
            # This process is fresh and ran nothing but set-up and the chain.
            metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB", 1)
            metrics["setup_s"] = (setup_s * scale, "s", setup_samples)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    return gate, metrics


def _report(name: str, gate: Gate, metrics: dict) -> None:
    for (label, index), message in sorted(gate.failed.items())[:10]:
        print(f"FAIL {name} {label} ecosystem {index}: {message}", file=sys.stderr)
    for metric, (value, unit, samples) in metrics.items():
        print(f"{name:14s} {metric:36s} {value:14.6f} {unit:6s} ({samples} samples)")
    print(f"{name:14s} {'error_rate':36s} {len(gate.failed) / max(1, gate.attempted):14.6f} ratio  "
          f"({len(gate.failed)} of {gate.attempted} chains failed)")


def _run_all(args, names) -> int:
    """Every workload in its own fresh process, so each peak RSS is its own."""
    attempted = failed = 0
    metrics = {}
    for name in names:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.plant_fault:
            argv.append("--plant-fault")
        done = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if done.returncode not in (0, 1) or not lines:
            print(f"perfbench: workload {name} exited {done.returncode}", file=sys.stderr)
            return 2
        result = json.loads(lines[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}/{metric}": value for metric, value in result["metrics"].items()})
    correct = failed == 0 and attempted > 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--plant-fault", action="store_true",
                        help="drop one canonical finding after the first detect, to prove the gate fails")
    args = parser.parse_args(argv)

    _import_program()
    from perfbench.workloads import WORKLOADS

    if args.workload == "all":
        return _run_all(args, list(WORKLOADS))
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)} or 'all'")
    WORK.mkdir(exist_ok=True)
    gate, metrics = run_workload(args, WORKLOADS[args.workload])
    _report(args.workload, gate, metrics)
    correct = not gate.failed and gate.attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": gate.attempted,
        "failed": len(gate.failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _n) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
