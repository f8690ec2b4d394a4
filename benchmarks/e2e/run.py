"""Run one end-to-end workload in this process and print its metrics.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py --workload gps_flood --seed 11 [--trace 1]
    PYTHONPATH=src python -m benchmarks.e2e --workload life_sprt --seed 11 --smoke

Every metric is printed as ``name value unit``; the last line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}`` holding the
end-to-end metrics of ``BENCHMARK.json`` (``--trace 0``) or its per-layer
metrics (``--trace 1``).  A traced run also writes its spans and per-layer
self-time table to ``.e2e_out/``.  The exit code is non-zero when a query
failed, a checked answer is wrong or the library sources are missing.

Run each workload in a fresh process: the plan, kernel and ledger caches
and the runtime counters are process-global.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[2]
WORKLOAD_NAMES = ("gps_flood", "life_sprt", "fig08_analyst", "shape_zoo")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float,
                        help="length of the timed phase (default: run_seconds "
                             "of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run reporting the per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="1 s timed phase and a single set-up")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"e2e: library sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = float(json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    for path in (str(ROOT / "src"), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)
    start = perf_counter()
    from benchmarks.e2e import report

    return report.run(args, ROOT, imported_s=perf_counter() - start)


if __name__ == "__main__":
    sys.exit(main())
