"""The product-path benchmark: one command, three workloads.

    python3 perfbench/run.py --workload profile_suite --seed 1 --seconds 15 --trace 0

Workloads (BENCHMARK.json says why each was chosen):

* ``profile_suite`` — one profiled run, in process: VM → Scalene hooks →
  ``ProfileData`` JSON for the ten Table-1 programs in ``full`` mode.
* ``serve_paced`` — service jobs at a fixed rate on a fresh store:
  accept → WAL → dispatch → shard queue → worker → store → terminal.
* ``serve_history`` — a burst of new profiles into stores with a deep
  seeded history, then a reader querying them. Not listed in
  BENCHMARK.json: on a shared two-core host its run-to-run spread
  reached 0.24 of the median over ten seeds, too close to the 0.25 bound
  to hold; run it by hand, and read the deep-store layer costs from
  serve_paced's traced run.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` is the
separate traced run that prints the per-layer metrics, each layer's self
time and the tracing overhead, and writes its spans under
``.bench_build/perfbench``. Every output is checked; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. The program is run from ``src/`` with every
setting at its shipped default.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("profile_suite", "serve_paced", "serve_history")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]  # product defaults only
    sys.path.insert(0, str(ROOT / "src"))

    import common
    import profile_suite
    import serve

    runner = {
        "profile_suite": profile_suite.run,
        "serve_paced": serve.run_paced,
        "serve_history": serve.run_history,
    }[args.workload]
    out = sys.stdout
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}", file=out)
    print(f"commit {common.commit_id()} source-sha256 {common.source_digest()[:16]} "
          f"nproc {os.cpu_count()} python {platform.python_version()}", file=out)
    started = time.perf_counter()
    try:
        result = runner(args.seed, args.seconds, bool(args.trace), out)
    except common.BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    print("metrics:" if not args.trace else "per-layer metrics:", file=out)
    intent = common.load_json("layers.json") if args.trace else {}
    for metric in wanted:
        name, unit = metric["name"], metric["unit"]
        value = result["metrics"].get(name)
        note = ""
        if value is None:
            value, note = 0.0, "  (layer bypassed by this workload)"
        elif name in intent:
            note = f"  -> {intent[name]['moves']}"
            if intent[name]["no_change_on"]:
                note += f"; no change on {intent[name]['no_change_on']}"
        metrics[name] = {"value": value, "unit": unit}
        print(f"  {name:<28} {value:14.4f} {unit:<6}{note}", file=out)
    extra = sorted(set(result["metrics"]) - {m["name"] for m in wanted})
    for name in extra:
        print(f"  ({name} {result['metrics'][name]:.4f})", file=out)
    print(f"operations attempted {result['attempted']} failed {result['failed']}; "
          f"wall {time.perf_counter() - started:.1f} s", file=out)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }), file=out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
