"""Pin the artifact digests the benchmark's correctness gate compares against.

Usage, from the repository root:

    python3 perfbench/pin.py --seeds 0-31

Runs one repetition of every workload for each seed, checks it against the
simulator's ground truth, and writes the combined SHA-256 of each artifact
kind to ``perfbench/pins.json``.  Re-pin only in a change whose purpose is to
change the program's output, and say so in that change.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.chain import PINS_PATH, combined_digests, load_pins, run_repetition, set_up  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402


def _seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", required=True, help="seed range, e.g. 0-31")
    args = parser.parse_args()
    pins = load_pins()
    directory = ROOT / ".perfbench" / "pin"
    try:
        for seed in _seeds(args.seeds):
            for name, workload in WORKLOADS.items():
                shutil.rmtree(directory, ignore_errors=True)
                rep = run_repetition(set_up(workload, seed, directory))
                if rep.failures:
                    print(f"{name} seed {seed}: not pinned, {rep.failures[0]}", file=sys.stderr)
                    return 1
                pins.setdefault(name, {})[str(seed)] = combined_digests(rep.digests)
                print(f"pinned {name} seed {seed}", flush=True)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
