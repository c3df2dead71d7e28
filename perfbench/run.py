"""The catwb benchmark.

    python3 perfbench/run.py --workload verify-cold --seed 1 --seconds 45 --trace 0

Run from the root of a checkout.  Each pass of a workload is a fresh process
(perfbench/job.py) with PYTHONPATH set to the checkout's src/, so no
in-process cache carries over between passes.  One process runs at a time.
Passes repeat while the next one can still end within --seconds of the start
of the run.  Every pass is checked for correctness.  The last line of
standard output is one JSON object: correct, attempted, failed and metrics,
the end-to-end metrics with --trace 0 and the per-layer metrics with --trace 1.
The line before it is the run's metadata.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from checks import counter_problems, fuss_catalan, load_reference, verify_problems

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

WORKLOADS = ("verify-cold", "verify-warm", "ncm-sweep")

# Brute-force F=M jobs of ncm-sweep, |NC^m| from 2,079 to 13,300.
NCM_JOBS = (("A6", 2), ("A5", 3), ("D4", 6), ("B4", 4), ("A4", 5), ("F4", 3), ("H3", 6),
            ("D5", 2), ("B5", 2))

# Other tenants of the host slow this machine's CPUs by up to 1.8x, for
# seconds to minutes at a time, so raw run medians drift by 25-50% from run
# to run.  Between passes, the run therefore times a fixed job that does not
# depend on catwb (job.calibrate, a fresh interpreter importing part of the
# standard library and sorting Fractions), and every reported time is scaled
# by CAL_REF_S / (mean calibration time of the run): seconds on a machine
# where the calibration job takes CAL_REF_S, about its time on an idle CPU of
# the machine the baseline was measured on.  The speed switches between a
# fast and a slow state that last seconds, so times are means, which weigh
# each state by how long it lasted, as a pass does; the median of such a
# two-state sample jumps between the states.
CAL_REF_S = 0.1
CAL_EVERY_S = 0.5  # one calibration per this much pass time, at least two

SETUP_PROBES = 5  # import-only processes per run, so setup_s is a mean of many
JOB_TIMEOUT_S = 120


class SetupError(RuntimeError):
    """Nothing could be measured in this checkout; no result is printed."""


@dataclass
class Proc:
    """One job process; `result` is None when it did not finish its pass."""

    wall: float  # spawn to exit
    setup: float | None  # spawn to catwb imported and ready
    rss_mb: float
    result: dict | None


@dataclass
class Pass:
    proc: Proc
    traced: bool
    jobs: int
    failed: int
    problems: list[str] = field(default_factory=list)


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("CATWB_")}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def _terminate(signum, frame) -> None:
    """On SIGTERM, unwind: `spawn` kills and reaps its job process."""
    raise SystemExit(128 + signum)


def spawn(kind: str, workdir: Path, *args: str, trace: bool = False) -> Proc:
    """Run job.py once and wait for it; wall time is from spawn to exit."""
    workdir.mkdir(parents=True, exist_ok=True)
    result = workdir / "result.json"
    result.unlink(missing_ok=True)
    argv = [sys.executable, str(HERE / "job.py"), kind, "--result", str(result), *args]
    if trace:
        argv.append("--trace")
    with open(workdir / "log.txt", "ab") as log:
        start = time.monotonic()
        proc = subprocess.Popen(argv, cwd=workdir, env=_child_env(), stdout=log,
                                stderr=subprocess.STDOUT)
    timer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    wall = time.monotonic() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    out = json.loads(result.read_text()) if proc.returncode == 0 and result.exists() else None
    setup = out["ready"] - start if out else None
    return Proc(wall, setup, usage.ru_maxrss / 1024, out)


def crash(workdir: Path) -> str:
    log = (workdir / "log.txt").read_text(errors="replace")
    return f"job process failed: {log[-1000:]}"


def verify_pass(workdir: Path, cache_dir: Path, seed: int, reference, trace: bool) -> Pass:
    report_path = cache_dir / "verify_all.json"
    report_path.unlink(missing_ok=True)
    proc = spawn("verify", workdir, "--seed", str(seed), "--cache-dir", str(cache_dir),
                 trace=trace)
    if proc.result is None:
        return Pass(proc, trace, 1, 1, [crash(workdir)])
    report = json.loads(report_path.read_text()) if report_path.exists() else None
    problems = verify_problems(proc.result["exit"], report, reference)
    return Pass(proc, trace, 1, int(bool(problems)), problems)


def ncm_pass(workdir: Path, jobs, trace: bool) -> Pass:
    spec = ",".join(f"{name}/{m}" for name, m in jobs)
    proc = spawn("ncm", workdir, "--jobs", spec, trace=trace)
    if proc.result is None:
        return Pass(proc, trace, len(jobs), len(jobs), [crash(workdir)])
    problems = []
    failed = 0
    for name, m, equal, diagonal in proc.result["outcomes"]:
        bad = []
        if not equal:
            bad.append(f"F=M brute {name} m={m} is not equal")
        if Fraction(diagonal) != fuss_catalan(name, m):
            bad.append(f"M-triangle diagonal of {name} m={m} sums to {diagonal}, "
                       f"expected Cat^({m}) = {fuss_catalan(name, m)}")
        failed += bool(bad)
        problems += bad
    if [tuple(o[:2]) for o in proc.result["outcomes"]] != list(jobs):
        failed = len(jobs)
        problems.append("the jobs run are not the jobs asked for")
    return Pass(proc, trace, len(jobs), failed, problems)


# -- per-layer metrics -------------------------------------------------------

LAYER_TIMES = (
    "wgroup.enumerate_group", "wgroup.build_nc", "wgroup.parabolic_type_of",
    "wgroup.decomposition_numbers", "wgroup.char_poly", "wgroup.chain_counts_classical",
    "ncposet.build_ncm", "ncposet.m_triangle_bruteforce", "ncposet.m_triangle_formula",
    "fmverify.verify_fm", "exactmath.substitute_fm", "ftriangle.f_closed",
    "ftriangle.check_recurrence", "ftriangle.verify_dual", "identities.run_random_suite",
    "identities.run_named_cases", "cache.get", "cache.put", "cli",
)


def layer_metrics(summary: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass, as name -> (value, unit)."""
    out = {f"{name}.self_s": (summary["self_s"].get(name, 0.0), "s") for name in LAYER_TIMES}
    calls = summary["calls"]
    groups, cores, ncms = summary["groups"], summary["cores"], summary["ncms"]
    group_elements = sum(size for _, size in groups)
    # a core can be obtained twice (built, then read back from the disk cache
    # under another group cap); the elements kept count once per group
    core_size = {name: size for name, size, _ in cores}
    kept = sum(core_size.get(name, 0) for name, _ in groups)
    cache = summary["cache"]
    lookups = cache["hits"] + cache["misses"]
    counts = {
        "wgroup.enumerate_group.elements": group_elements,
        # enumerated group elements that are not in the NC core: the waste a
        # top-down NC build removes
        "wgroup.enumerate_group.discarded": group_elements - kept,
        "wgroup.build_nc.elements": sum(size for _, size, _ in cores),
        "wgroup.build_nc.intervals": sum(iv for _, _, iv in cores),
        "wgroup.parabolic_type_of.calls": calls.get("wgroup.parabolic_type_of", 0),
        "wgroup.decomposition_numbers.keys": summary["decomposition_keys"],
        "ncposet.build_ncm.elements": sum(size for _, _, size, _ in ncms),
        "ncposet.build_ncm.pairs": sum(pairs for _, _, _, pairs in ncms),
        "fmverify.verify_fm.calls": calls.get("fmverify.verify_fm", 0),
        "fmverify.verify_fm.equal": summary["verify_fm_equal"],
        "exactmath.substitute_fm.calls": calls.get("exactmath.substitute_fm", 0),
        "cache.hits": cache["hits"],
        "cache.misses": cache["misses"],
    }
    out.update({name: (value, "count") for name, value in counts.items()})
    out["cache.bytes_read"] = (cache["bytes_read"], "bytes")
    out["cache.bytes_written"] = (cache["bytes_written"], "bytes")
    out["cache.hit_ratio"] = (cache["hits"] / lookups if lookups else 0.0, "ratio")
    return out


# -- one run -------------------------------------------------------------------


def _quartile_spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def _why(workload: str) -> str:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return next(w["why"] for w in spec["workloads"] if w["name"] == workload)


def _src_facts() -> dict:
    files = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in files:
        data = path.read_bytes()
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {"git_sha": sha, "src_sha256": digest.hexdigest(), "src_py_lines": lines}


def run(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> tuple[dict, dict]:
    # the probes and the cache fill count against --seconds too
    started = time.monotonic()
    deadline = started + seconds
    rng = random.Random(seed)
    problems: list[str] = []
    setups: list[float] = []
    for i in range(SETUP_PROBES):
        probe = spawn("import", work / f"probe{i}")
        if probe.setup is None:
            raise SetupError(crash(work / f"probe{i}"))
        setups.append(probe.setup)

    reference = load_reference() if workload.startswith("verify") else None
    extra_jobs = extra_failed = 0
    warm_cache = work / "warm-cache"
    if workload == "verify-warm":
        fill = verify_pass(work / "fill", warm_cache, seed, reference, trace=False)
        extra_jobs, extra_failed = fill.jobs, fill.failed
        problems += [f"cache fill: {p}" for p in fill.problems]

    def calibrate(n: int) -> list[float]:
        walls = []
        for _ in range(n):
            cal = spawn("calibrate", work / "cal")
            if cal.result is None:
                raise SetupError(crash(work / "cal"))
            walls.append(cal.wall)
        return walls

    passes: list[Pass] = []
    cals: list[float] = []
    n_cals = 2
    while True:
        jobs = list(NCM_JOBS)
        rng.shuffle(jobs)
        workdir = work / f"pass{len(passes)}"
        cals += calibrate(n_cals)
        traced = trace and len(passes) % 2 == 1  # every other pass
        if workload == "ncm-sweep":
            p = ncm_pass(workdir, jobs, traced)
        else:
            # every pass writes its report into the cache directory, so
            # each warm pass gets its own copy of the filled cache
            if workload == "verify-warm":
                shutil.copytree(warm_cache, workdir / "cache")
            p = verify_pass(workdir, workdir / "cache", seed, reference, traced)
        shutil.rmtree(workdir, ignore_errors=True)
        passes.append(p)
        walls = [q.proc.wall for q in passes]
        n_cals = max(2, round(statistics.median(walls) / CAL_EVERY_S))
        enough = len(passes) >= (2 if trace else 1)
        next_pass = statistics.median(walls) + 2 * n_cals * statistics.median(cals)
        if enough and time.monotonic() + next_pass > deadline:
            break
    cals += calibrate(n_cals)  # so the calibrations bracket every pass

    for i, p in enumerate(passes):
        problems += [f"pass {i}: {q}" for q in p.problems]

    measured = [p for p in passes if p.proc.result is not None]
    plain = [p for p in measured if not p.traced]
    traced = [p for p in measured if p.traced]
    if not plain or (trace and not traced):
        raise SetupError("no pass of the workload completed:\n" + "\n".join(problems))
    walls = [p.proc.wall for p in plain]
    setups += [p.proc.setup for p in plain]
    scale = CAL_REF_S / statistics.fmean(cals)
    attempted = extra_jobs + sum(p.jobs for p in passes)
    failed = extra_failed + sum(p.failed for p in passes)
    meta = {
        "workload": workload, "why": _why(workload), "seed": seed, "seconds": seconds,
        "trace": int(trace), "python": platform.python_version(), "platform": platform.platform(),
        "nproc": os.cpu_count(), **_src_facts(), "passes": len(passes),
        "scale": round(scale, 4), "cal_s": [round(c, 4) for c in cals],
        "raw_wall_s": [round(w, 4) for w in walls],
        "raw_setup_s": [round(t, 4) for t in setups],
        "wall_spread": round(_quartile_spread(walls), 4),
        "run_elapsed_s": round(time.monotonic() - started, 2),
    }
    if trace:
        summaries = [p.proc.result["trace"] for p in traced]
        for s in summaries:
            problems += counter_problems(s)
        per_pass = [layer_metrics(s) for s in summaries]
        counts_seen = {json.dumps({k: v for k, v in m.items() if v[1] != "s"}, sort_keys=True)
                       for m in per_pass}
        if len(counts_seen) > 1:
            problems.append("size counters differ between traced passes")
        # times are scaled means over the traced passes; counts repeat exactly
        metrics = {
            name: {"value": scale * statistics.fmean(m[name][0] for m in per_pass)
                   if unit == "s" else value, "unit": unit}
            for name, (value, unit) in per_pass[0].items()
        }
        traced_wall = statistics.fmean(p.proc.wall for p in traced)
        meta["tracing_overhead"] = round(traced_wall / statistics.fmean(walls) - 1, 4)
        meta["raw_traced_wall_s"] = [round(p.proc.wall, 4) for p in traced]
        meta["trace_coverage"] = round(statistics.fmean(
            s["root_s"] / (p.proc.result["done"] - p.proc.result["ready"])
            for s, p in zip(summaries, traced)), 4)
    else:
        metrics = {
            "wall_s": {"value": scale * statistics.fmean(walls), "unit": "s"},
            "setup_s": {"value": scale * statistics.fmean(setups), "unit": "s"},
            "peak_rss_mb": {"value": max(p.proc.rss_mb for p in plain), "unit": "MB"},
            "passed_share": {"value": (attempted - failed) / attempted, "unit": "share"},
        }
    meta["problems"] = problems
    result = {"correct": not problems and failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return meta, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="catwb benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    if not (SRC / "catwb" / "__init__.py").is_file():
        print(f"perfbench: no catwb sources under {SRC}", file=sys.stderr)
        return 2
    work = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        meta, result = run(args.workload, args.seed, args.seconds, bool(args.trace), work)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
