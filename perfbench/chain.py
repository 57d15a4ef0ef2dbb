"""One repetition of the CLI chain over a workload, and its correctness gate.

Every command goes through ``cookietrail.cli.main`` in this process, the
same code path as the installed ``cookietrail`` script minus interpreter
start-up.  The gate reads only the artifacts on disk: the simulator's
``truth.json`` is the referee for findings and jar keys, and the SHA-256 of
each artifact must repeat across repetitions and match the digest pinned for
the workload and seed in ``pins.json``.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import shutil
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from cookietrail.cli import main

from .workloads import PSL_TEXT

PINS_PATH = Path(__file__).with_name("pins.json")
# Artifacts whose digests are gated.  The report manifest is recorded but not
# gated: report provenance is expected to change it on purpose.
GATED = ("log", "jar", "findings", "resets", "syncs")
ARTIFACTS = {
    "log": "run.log",
    "jar": "jar.snap",
    "findings": "findings.jsonl",
    "resets": "resets.jsonl",
    "syncs": "syncs.jsonl",
    "manifest": "report/manifest.json",
}
COMMANDS = ("simulate", "build-jar", "detect", "report")


@dataclass
class Ecosystem:
    """Files of one ecosystem; the program sees only these paths and the seed."""

    directory: Path
    seed: int

    def path(self, name: str) -> Path:
        return self.directory / name

    def argv(self, command: str, psl: Path) -> list[str]:
        p = self.path
        rules = ["--psl", str(psl), "--trackers", str(p("trackers.txt"))]
        if command == "simulate":
            return ["simulate", "--config", str(p("config.json")), "--seed", str(self.seed),
                    "--out", str(p("run.log")), "--trackers-out", str(p("trackers.txt")),
                    "--truth-out", str(p("truth.json"))]
        if command == "build-jar":
            return ["build-jar", "--log", str(p("run.log")), "--out", str(p("jar.snap"))]
        if command == "detect":
            return ["detect", "--jar", str(p("jar.snap")), "--log", str(p("run.log")), *rules,
                    "--out", str(p("findings.jsonl")), "--resets-out", str(p("resets.jsonl")),
                    "--syncs-out", str(p("syncs.jsonl"))]
        return ["report", "--findings", str(p("findings.jsonl")), "--jar", str(p("jar.snap")),
                "--log", str(p("run.log")), *rules, "--resets", str(p("resets.jsonl")),
                "--syncs", str(p("syncs.jsonl")), "--out", str(p("report"))]

    def clear_outputs(self) -> None:
        for name in ("run.log", "trackers.txt", "truth.json", "jar.snap", "findings.jsonl",
                     "resets.jsonl", "syncs.jsonl"):
            self.path(name).unlink(missing_ok=True)
        shutil.rmtree(self.path("report"), ignore_errors=True)


@dataclass
class Instance:
    """A workload set up on disk: its ecosystems and the shared suffix list."""

    workload: str
    seed: int
    psl: Path
    ecosystems: list[Ecosystem]
    sites: int


def set_up(workload, seed: int, directory: Path, scale: float = 1.0) -> Instance:
    """Build the workload's configs and write them, with the suffix list, under ``directory``.

    ``directory`` must not exist yet.
    """
    directory.mkdir(parents=True)
    psl = directory / "psl.dat"
    psl.write_text(PSL_TEXT, encoding="utf-8")
    configs = workload.ecosystems(seed, scale)
    ecosystems = []
    for index, config in enumerate(configs):
        eco = Ecosystem(directory / f"eco{index:03d}", seed * 1000 + index)
        eco.directory.mkdir()
        eco.path("config.json").write_text(json.dumps(config.to_obj(), sort_keys=True), encoding="utf-8")
        ecosystems.append(eco)
    return Instance(workload.name, seed, psl, ecosystems, sum(len(c.sites) for c in configs))


@dataclass
class Repetition:
    simulate_s: float = 0.0
    analyze_s: float = 0.0
    chains: int = 0
    failures: list[tuple[int, str]] = field(default_factory=list)  # (ecosystem index, problem)
    digests: list[dict[str, str]] = field(default_factory=list)  # one dict per ecosystem


def run_repetition(instance: Instance, tracer=None, meter=None, *, plant_fault: bool = False) -> Repetition:
    """Run simulate, build-jar, detect and report on every ecosystem, then check each chain.

    ``tracer`` (optional) opens one span per command; ``meter`` (optional)
    takes speed probes between commands.  Timings are wall time of ``main``
    only, so probing, checking and hashing stay outside them.
    """
    rep = Repetition()
    fault_pending = plant_fault
    gc.collect()
    for index, eco in enumerate(instance.ecosystems):
        eco.clear_outputs()
        rep.chains += 1
        if tracer is not None:
            tracer.begin_chain()
        failed = False
        for command in COMMANDS:
            if meter is not None:
                meter.maybe_sample()
            stderr = io.StringIO()
            with contextlib.redirect_stderr(stderr):
                start = time.perf_counter()
                if tracer is not None:
                    with tracer.span(f"cli.{command}"):
                        code = main(eco.argv(command, instance.psl))
                else:
                    code = main(eco.argv(command, instance.psl))
                elapsed = time.perf_counter() - start
            if command == "simulate":
                rep.simulate_s += elapsed
            else:
                rep.analyze_s += elapsed
            if code != 0:
                rep.failures.append((index, f"{command} exited {code}: {stderr.getvalue().strip()[:300]}"))
                failed = True
                break
            if fault_pending and command == "detect":
                fault_pending = not drop_one_finding(eco.path("findings.jsonl"))
        if failed:
            rep.digests.append({})
            continue
        rep.failures.extend((index, problem) for problem in check_against_truth(eco))
        rep.digests.append(digests(eco))
    return rep


# --- correctness gate ------------------------------------------------------------------


def _ndjson_records(path: Path) -> list[dict]:
    lines = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line.strip()]
    if not lines or lines[0] != {"format_version": 1}:
        raise ValueError(f"{path.name}: missing format_version header")
    return lines[1:]


def _finding_tuple(obj: dict) -> tuple:
    return (obj["name"], obj["host"], obj["partition"], obj["sender_site"], obj["stage"])


def check_against_truth(eco: Ecosystem) -> list[str]:
    """Compare canonical findings and jar keys read back from disk with ``truth.json``."""
    problems = []
    try:
        truth = json.loads(eco.path("truth.json").read_text(encoding="utf-8"))
        expected = {_finding_tuple(f) for f in truth["expected_findings"]}
        got = {_finding_tuple(f) for f in _ndjson_records(eco.path("findings.jsonl")) if f["canonical"]}
        if got != expected:
            problems.append(
                f"canonical findings differ from truth: {len(got - expected)} unexpected, {len(expected - got)} missing"
            )
        jar_lines = eco.path("jar.snap").read_text(encoding="utf-8").splitlines()
        jar_keys = {(e["name"], e["host"], e["partition"]) for e in json.loads(jar_lines[1])["entries"]}
        expected_keys = {(k["name"], k["host"], k["partition"]) for k in truth["expected_jar_keys"]}
        if jar_keys != expected_keys:
            problems.append(
                f"jar keys differ from truth: {len(jar_keys - expected_keys)} unexpected, "
                f"{len(expected_keys - jar_keys)} missing"
            )
        for name in ("resets.jsonl", "syncs.jsonl"):
            _ndjson_records(eco.path(name))
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        problems.append(f"unreadable artifact: {exc!r}")
    return problems


def digests(eco: Ecosystem) -> dict[str, str]:
    out = {}
    for kind, name in ARTIFACTS.items():
        path = eco.path(name)
        out[kind] = hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else "missing"
    return out


def combined_digests(per_ecosystem: list[dict[str, str]]) -> dict[str, str]:
    """One digest per artifact kind over all ecosystems, in ecosystem order."""
    return {
        kind: hashlib.sha256("\n".join(d.get(kind, "missing") for d in per_ecosystem).encode()).hexdigest()
        for kind in ARTIFACTS
    }


def load_pins() -> dict:
    return json.loads(PINS_PATH.read_text(encoding="utf-8")) if PINS_PATH.exists() else {}


def check_digests(instance: Instance, reps: list[Repetition], pins: dict) -> list[tuple[int, int | None, str]]:
    """Artifacts must repeat across repetitions and match the pinned digests, if any.

    Returns (repetition, ecosystem index, problem); the index is None for a
    pinned-digest mismatch, which covers all ecosystems at once.
    """
    problems = []
    first = reps[0].digests
    for number, rep in enumerate(reps[1:], start=1):
        for index, (a, b) in enumerate(zip(first, rep.digests)):
            changed = [k for k in GATED if a.get(k) != b.get(k)]
            if changed:
                problems.append((number, index, f"artifacts changed since the first repetition: {', '.join(changed)}"))
    pinned = pins.get(instance.workload, {}).get(str(instance.seed))
    if pinned is not None:
        combined = combined_digests(first)
        for kind in GATED:
            if combined[kind] != pinned[kind]:
                problems.append((0, None, f"{kind} digest {combined[kind][:12]} differs from pinned {pinned[kind][:12]}"))
    return problems


def drop_one_finding(path: Path) -> bool:
    """Planted fault: remove a canonical finding whose (key, sender, stage) is unique.

    Returns False, leaving the file alone, when there is no such finding.
    """
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    tuples = [_finding_tuple(r) if r["canonical"] else None for r in map(json.loads, lines[1:])]
    counts = Counter(tuples)
    victim = next((i for i, t in enumerate(tuples) if t is not None and counts[t] == 1), None)
    if victim is None:
        return False
    del lines[victim + 1]
    path.write_text("".join(lines), encoding="utf-8")
    return True
