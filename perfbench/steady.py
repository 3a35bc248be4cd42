"""Check that the benchmark is steady across seeds.

Usage, from the repository root::

    python3 perfbench/steady.py --workload serve_read --seeds 1-10

Runs ``run.py`` once per seed, one run at a time, and prints for every
end-to-end metric its median and its inter-quartile spread as a share of
the median, beside the metric's bound from ``BENCHMARK.json``.  A
spread above a third of the bound is marked.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

import stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        first, last = text.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(seed) for seed in text.split(",")]


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--out", help="also write every run's result here")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs = []
    for seed in _seeds(args.seeds):
        started = time.perf_counter()
        completed = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds",
             str(spec["run_seconds"]), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        wall = time.perf_counter() - started
        lines = completed.stdout.strip().splitlines()
        if completed.returncode != 0 or not lines:
            print(f"seed {seed}: exit {completed.returncode}\n"
                  f"{completed.stdout[-2000:]}{completed.stderr[-2000:]}")
            return 1
        result = json.loads(lines[-1])
        runs.append(result)
        values = " ".join(f"{name}={metric['value']:.4g}"
                          for name, metric in result["metrics"].items())
        print(f"seed {seed} ({wall:.0f} s, failed {result['failed']}/"
              f"{result['attempted']}): {values}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(runs, indent=1))
    if args.trace or len(runs) < 2:
        return 0
    for entry in spec["end_to_end"]:
        values = [run["metrics"][entry["name"]]["value"] for run in runs]
        spread = stats.quartile_spread(values)
        flag = "" if spread <= entry["bound"] / 3 else "  <-- above bound/3"
        print(f"{entry['name']:>16}: median {stats.median(values):.5g} "
              f"{entry['unit']}, spread {spread:.3f} "
              f"(bound {entry['bound']}){flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
