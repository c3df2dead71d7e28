"""Measure the baseline: run every workload on several seeds, untraced, plus
one traced run per workload, and write medians and quartile spreads.

    python3 perfbench/baseline.py --runs 10 --out perfbench/BASELINE.json

The spread of a metric is (Q3 - Q1) / median over the runs, with the
quartiles of statistics.quantiles(values, n=4).  Takes about
runs x workloads x 45 s on a two-CPU machine.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def bench(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    lines = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True,
                           check=True).stdout.strip().splitlines()
    return json.loads(lines[-2])["meta"], json.loads(lines[-1])


def describe(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "runs": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--out", type=Path, default=HERE / "BASELINE.json")
    args = parser.parse_args(argv)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    out: dict = {"run_seconds": seconds, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        values: dict[str, list[float]] = {}
        elapsed, raw, scales = [], [], []
        for seed in range(1, args.runs + 1):
            start = time.monotonic()
            meta, result = bench(workload, seed, seconds, 0)
            elapsed.append(round(time.monotonic() - start, 1))
            raw.append(statistics.median(meta["raw_wall_s"]))
            scales.append(meta["scale"])
            if not result["correct"]:
                raise SystemExit(f"{workload} seed {seed} is not correct: {meta['problems']}")
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            shown = " ".join(f"{k}={m['value']:.4f} {m['unit']}" for k, m in result["metrics"].items())
            print(f"{workload} seed {seed} ({elapsed[-1]} s): {shown}", flush=True)
        meta, traced = bench(workload, 1, seconds, 1)
        if not traced["correct"]:
            raise SystemExit(f"{workload} traced run is not correct: {meta['problems']}")
        out["workloads"][workload] = {
            "end_to_end": {name: describe(v) for name, v in values.items()},
            "per_layer": {name: m["value"] for name, m in traced["metrics"].items()},
            "run_elapsed_s": elapsed,
            "raw_wall_s": describe(raw),
            "scale": scales,
            "tracing_overhead": meta["tracing_overhead"],
            "trace_coverage": meta["trace_coverage"],
        }
        out["meta"] = {k: meta[k] for k in ("git_sha", "src_sha256", "src_py_lines", "python",
                                            "platform", "nproc")}
    args.out.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
