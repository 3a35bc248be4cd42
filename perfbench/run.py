"""perfbench: the repository's end-to-end and per-layer benchmark.

Usage, from the repository root::

    python3 perfbench/run.py --workload serve_read --seed 1 \
        --seconds 12 --trace 0

Workloads: ``serve_read``, ``update_mixed``, ``reason_scale`` (see
``workloads.py``).  Every input is generated from ``--seed``.  The run
prints one line per metric and note, then, as its last line, one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the ``end_to_end`` ones listed in
``BENCHMARK.json``; with ``--trace 1`` the ``per_layer`` ones, taken
from spans that wrap each layer's entry points.  A traced run also
writes its spans to ``.perfbench_run/<workload>-<seed>.spans.json``.

The run checks its own outputs (byte parity with a fresh in-process
session, proof-constant completeness, planned vs naive chase records)
and exits 1 when any answer diverges.  Other errors exit 2 without a
result line: a failed workload, an end-to-end metric it did not
measure, or a unit that differs from ``BENCHMARK.json``.  A per-layer
metric the workload does not exercise (say ``serve.transport_ms`` on
``reason_scale``) is printed as n/a; its JSON value is 0.0.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _arguments(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = _arguments(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print("perfbench: run from a checkout holding src/repro",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import workloads  # after the path set-up above

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}",
              file=sys.stderr)
        return 2
    run_dir = ROOT / ".perfbench_run"
    run_dir.mkdir(exist_ok=True)
    try:
        result = workloads.WORKLOADS[args.workload](
            args.seed, float(args.seconds), bool(args.trace), run_dir
        )
    except Exception:
        traceback.print_exc()
        return 2

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    produced = result.per_layer if args.trace else result.end_to_end
    metrics, unmeasured = {}, []
    for entry in wanted:
        name = entry["name"]
        if name not in produced:
            if args.trace == 0:
                print(f"perfbench: {args.workload} did not measure {name}",
                      file=sys.stderr)
                return 2
            unmeasured.append(name)
            produced[name] = (0.0, entry["unit"])
        value, unit = produced[name]
        if unit != entry["unit"]:
            print(f"perfbench: {name} measured in {unit}, "
                  f"BENCHMARK.json says {entry['unit']}", file=sys.stderr)
            return 2
        metrics[name] = {"value": value, "unit": unit}

    for line in result.notes:
        print(f"{args.workload}: {line}")
    for name, metric in metrics.items():
        shown = ("n/a (not exercised by this workload)"
                 if name in unmeasured
                 else f"{metric['value']:.6g} {metric['unit']}")
        print(f"{args.workload}: {name} = {shown}")
    share = result.failed / result.attempted if result.attempted else 0.0
    print(f"{args.workload}: failed_share = {share:.6f} "
          f"({result.failed} of {result.attempted} operations)")
    for divergence in result.divergences[:20]:
        print(f"{args.workload}: DIVERGENCE {divergence}")
    if result.spans:
        trace_path = run_dir / f"{args.workload}-{args.seed}.spans.json"
        trace_path.write_text(json.dumps(result.spans))
        print(f"{args.workload}: {len(result.spans)} spans written to "
              f"{trace_path.relative_to(ROOT)}")
    correct = not result.divergences
    print(json.dumps({
        "correct": correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
