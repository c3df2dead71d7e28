"""One job process of the benchmark: import catwb, note when it is ready,
run one pass of a workload, and write what happened to a JSON file.

    python3 perfbench/job.py verify --seed S --cache-dir DIR --result FILE [--trace]
    python3 perfbench/job.py ncm --jobs A6/2,D4/6 --result FILE [--trace]
    python3 perfbench/job.py import --result FILE
    python3 perfbench/job.py calibrate --result FILE

run.py starts it with PYTHONPATH pointing at the checkout's src/.  The result
file is written only when the pass returns, so a crash leaves none.
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

# The poset cap of the ncm jobs, a documented catwb knob, raised to admit the
# largest pair sweep of the benchmark, 13,300^2 = 1.77e8 (D4, m = 6).
POSET_CAP = 200_000_000


def calibrate() -> None:
    """A fixed task that never changes with catwb: import part of the standard
    library and build and sort a heap of Fractions and tuples.  Its time from
    spawn to exit measures how fast the machine runs fresh Python processes
    right now."""
    import decimal  # noqa: F401
    import email.parser  # noqa: F401
    import statistics  # noqa: F401
    import xml.dom.minidom  # noqa: F401
    from fractions import Fraction

    table = {(i % 701, i % 13): Fraction(i % 97, i % 89 + 1) for i in range(15_000)}
    sorted(table.items())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("kind", choices=("verify", "ncm", "import", "calibrate"))
    parser.add_argument("--result", required=True, type=Path)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--cache-dir")
    parser.add_argument("--jobs", help="comma-separated TYPE/m brute-force jobs")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    if args.kind == "calibrate":
        calibrate()
    elif args.kind == "ncm":
        import catwb.fmverify
        from catwb.rootdata import ir
    else:
        import catwb.cli
    ready = time.monotonic()

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()

    out: dict = {"ready": ready}
    if args.kind == "verify":
        out["exit"] = catwb.cli.main(
            ["verify", "--suite", "all", "--seed", str(args.seed), "--cache-dir", args.cache_dir]
        )
    elif args.kind == "ncm":
        outcomes = []
        for job in args.jobs.split(","):
            name, m = job.split("/")
            rep = catwb.fmverify.verify_fm(ir(name), "brute", int(m), poset_cap=POSET_CAP)
            # diagonal of the M-triangle: mu(u, u) = 1 once per poset element
            diagonal = sum(c.constant_value() for k, l, c in rep.rhs.iter_terms() if k == l)
            outcomes.append([name, int(m), bool(rep.equal), str(diagonal)])
        out["outcomes"] = outcomes
    out["done"] = time.monotonic()

    if tracer is not None:
        tracer.uninstall()
        out["trace"] = tracer.summary()
    args.result.write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
