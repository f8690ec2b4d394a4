"""Compare two sets of end-to-end results, one row per workload.

Each result file is the standard output of one ``run.py --trace 0`` run.
For every end-to-end metric of ``BENCHMARK.json`` a row shows each side's
median and quartiles and a verdict:

- ``unresolved``: either side's quartile spread, as a share of its median,
  exceeds the metric's bound (unless every new run beats, or loses to,
  every base run);
- ``worse``: the new median is worse than the base median by more than the
  bound;
- ``better``: the new median is better than the base median by more than
  the bound and by more than the base's quartile spread;
- ``unchanged``: otherwise.

``better`` is necessary, not sufficient, for claiming a gain: a claim also
needs at least ten alternating pairs of base and new runs, of which the
new side wins nine tenths.

Usage::

    python3 benchmarks/e2e/compare.py --base base/*.txt --new new/*.txt

Exits 1 when any metric is ``worse``, and refuses result files of runs
that were not correct (a failed query or a wrong answer).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def load(paths) -> dict[str, dict[str, list[float]]]:
    """``{workload: {metric: [value per run]}}`` for untraced result files."""
    out: dict = defaultdict(lambda: defaultdict(list))
    for path in paths:
        lines = [ln for ln in Path(path).read_text().splitlines() if ln.strip()]
        header = next((ln for ln in lines if ln.startswith("# e2e ")), None)
        if header is None:
            raise SystemExit(f"{path}: not an e2e result (no '# e2e' header)")
        fields = dict(kv.split("=", 1) for kv in header[len("# e2e "):].split())
        if fields.get("trace") != "0":
            continue
        result = json.loads(lines[-1])
        if not result["correct"]:
            raise SystemExit(f"{path}: the run was not correct")
        for name, metric in result["metrics"].items():
            out[fields["workload"]][name].append(float(metric["value"]))
    return out


def summary(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base: list[float], new: list[float], better: str, bound: float) -> str:
    sign = 1.0 if better == "higher" else -1.0
    (b1, bm, b3), (n1, nm, n3) = summary(base), summary(new)
    base_spread = (b3 - b1) / abs(bm) if bm else 0.0
    if max(base_spread, (n3 - n1) / abs(nm) if nm else 0.0) > bound:
        if min(sign * v for v in new) > max(sign * v for v in base):
            return "better"
        if max(sign * v for v in new) < min(sign * v for v in base):
            return "worse"
        return "unresolved"
    gain = sign * (nm - bm) / abs(bm) if bm else 0.0
    if gain < -bound:
        return "worse"
    if gain > max(bound, base_spread):
        return "better"
    return "unchanged"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", nargs="+", required=True, help="result files of the base")
    parser.add_argument("--new", nargs="+", required=True, help="result files of the change")
    args = parser.parse_args(argv)
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    base, new = load(args.base), load(args.new)
    worse = False
    for workload in sorted(set(base) & set(new)):
        cells = [f"{workload} (runs {len(next(iter(base[workload].values())))}"
                 f"/{len(next(iter(new[workload].values())))})"]
        for m in metrics:
            b, n = base[workload].get(m["name"]), new[workload].get(m["name"])
            if not b or not n:
                cells.append(f"{m['name']} missing")
                continue
            v = verdict(b, n, m["better"], m["bound"])
            worse |= v == "worse"
            (b1, bm, b3), (n1, nm, n3) = summary(b), summary(n)
            cells.append(
                f"{m['name']} {bm:.4g} [{b1:.4g}, {b3:.4g}] -> {nm:.4g} [{n1:.4g}, {n3:.4g}] "
                f"{(nm - bm) / bm:+.1%} {v}" if bm else f"{m['name']} {v}"
            )
        print(" | ".join(cells))
    for workload in sorted(set(base) ^ set(new)):
        print(f"{workload}: results on one side only")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
