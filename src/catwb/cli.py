"""Command-line surface: triangle emission, batch verification suites, poset
export, chain counts, and the dual-triangle check.

Exit codes: 0 success, 1 verification failure, 2 parse/usage error or a path
that cannot be read or written, 3 budget exceeded.  Flags can be defaulted
through CATWB_-prefixed environment variables, and every command reads flag
and variable values through one validated RunConfig; --cache-dir persists the
parabolic-type tables and holds the verify report.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from pathlib import Path

from .cache import ResultCache
from .errors import BudgetExceeded, InvalidArgument, TypeParseError, UnsupportedType
from .exactmath import MPoly
from .ftriangle import check_recurrence, f_closed, verify_dual
from .fmverify import verify_fm, verify_fm_dn_general
from .identities import failure_dump, run_named_cases, run_random_suite
from .ncposet import export_poset_obj, m_triangle_bruteforce, m_triangle_formula
from .report import VerificationReport
from .rootdata import RootSystemType
from .wgroup import DEFAULT_GROUP_CAP, DEFAULT_POSET_CAP, chain_counts_classical, set_disk_cache

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

FORMATS = ("json", "csv", "latex")


class RunConfig:
    """Validated run settings assembled from flags and CATWB_ env overrides;
    `types` holds the filter's parsed, canonical types."""

    def __init__(self, group_cap: int = DEFAULT_GROUP_CAP, poset_cap: int = DEFAULT_POSET_CAP,
                 m_grid: tuple[int, ...] = (1, 2, 3), types: tuple[str, ...] = (), format: str = "latex",
                 seed: int = 7):
        if group_cap <= 0 or poset_cap <= 0:
            raise InvalidArgument("caps must be positive")
        if format not in FORMATS:
            raise InvalidArgument(f"format must be one of {FORMATS}")
        if min(m_grid) < 1:
            raise InvalidArgument("--m-grid values must be positive")
        self.group_cap, self.poset_cap, self.m_grid = group_cap, poset_cap, m_grid
        self.format, self.seed = format, seed
        # TypeParseError for a filter that names no type
        self.types = frozenset(RootSystemType.parse(s) for s in types)

    @staticmethod
    def from_args(args) -> "RunConfig":
        """Parse the raw flag values, whose defaults are the CATWB_ variables;
        InvalidArgument for a value that is not an integer or out of range."""
        return RunConfig(
            group_cap=_int(args.group_cap, "--group-cap", DEFAULT_GROUP_CAP),
            poset_cap=_int(args.poset_cap, "--poset-cap", DEFAULT_POSET_CAP),
            m_grid=_int_list(args.m_grid, "--m-grid") if getattr(args, "m_grid", None) else (1, 2, 3),
            types=tuple(getattr(args, "types", "").split(",")) if getattr(args, "types", None) else (),
            format=getattr(args, "format", None) or "latex",
            seed=_int(args.seed, "--seed", 7),
        )


class _Parser(argparse.ArgumentParser):
    """Usage errors reach main's handler, to be reported in one line."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # a word such as "-1,3" is a value, not an unknown flag, as later argparse versions read it
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def error(self, message):
        raise InvalidArgument(message)


def _env(name: str, default=None):
    return os.environ.get(f"CATWB_{name}", default)


def _add_common(p: argparse.ArgumentParser, fmt: bool = True):
    p.add_argument("--cache-dir", default=_env("CACHE_DIR"), help="directory for the type-table cache")
    p.add_argument("--group-cap", default=_env("GROUP_CAP"), help="group order cap")
    p.add_argument("--poset-cap", default=_env("POSET_CAP"), help="poset pair cap")
    p.add_argument("--seed", default=_env("SEED"), help="random seed")
    if fmt:
        p.add_argument(
            "--format",
            choices=FORMATS,
            default=_env("FORMAT", "latex"),
            help="output format",
        )


def _int(raw: str | None, flag: str, default: int) -> int:
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        var = "CATWB_" + flag[2:].upper().replace("-", "_")
        raise InvalidArgument(f"{flag} (or {var}) expects an integer, got {raw!r}") from None


def _int_list(raw: str, flag: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in raw.split(","))
    except ValueError:
        raise InvalidArgument(f"{flag} expects comma-separated integers, got {raw!r}") from None


def _emit_poly(poly: MPoly, fmt: str) -> str:
    if fmt == "json":
        return poly.dumps()
    if fmt == "csv":
        lines = ["k,l,coeff"]
        for k, l, c in poly.iter_terms():
            lines.append(f"{k},{l},{c.format()}")
        return "\n".join(lines)
    return poly.format(latex=True)


def cmd_ftriangle(args, cfg: RunConfig) -> int:
    poly = f_closed(RootSystemType.parse(args.type))
    if args.m is not None:
        poly = poly.eval_m(args.m)
    print(_emit_poly(poly, cfg.format))
    return EXIT_OK


def cmd_mtriangle(args, cfg: RunConfig) -> int:
    t = RootSystemType.parse(args.type)
    if args.mode == "brute":
        if args.m is None:
            print("error: brute mode requires --m", file=sys.stderr)
            return EXIT_USAGE
        poly = m_triangle_bruteforce(t, args.m, group_cap=cfg.group_cap, poset_cap=cfg.poset_cap)
    else:
        poly = m_triangle_formula(t, group_cap=cfg.group_cap)
        if args.m is not None:
            poly = poly.eval_m(args.m)
    print(_emit_poly(poly, cfg.format))
    return EXIT_OK


def cmd_export_poset(args, cfg: RunConfig) -> int:
    t = RootSystemType.parse(args.type)
    obj = export_poset_obj(t, args.m, group_cap=cfg.group_cap, poset_cap=cfg.poset_cap)
    payload = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    Path(args.out).write_text(payload)
    print(f"wrote {obj['num_elements']} elements to {args.out}")
    return EXIT_OK


def cmd_chains(args, cfg: RunConfig) -> int:
    t = RootSystemType.parse(args.type)
    jumps = _int_list(args.jumps, "--jumps")
    res = chain_counts_classical(
        t, args.m, jumps, group_cap=cfg.group_cap, poset_cap=cfg.poset_cap
    )
    brute = "n/a (over budget)" if res.brute is None else str(res.brute)
    status = "OK" if res.equal else "MISMATCH"
    print(f"[{status}] {t} m={args.m} jumps={args.jumps}: formula={res.formula} brute={brute}")
    return EXIT_OK if res.equal else EXIT_FAIL


def cmd_dual(args, cfg: RunConfig) -> int:
    t = RootSystemType.parse(args.type)
    rep = verify_dual(t, args.m)
    print(rep.summary_line())
    return EXIT_OK if rep.equal else EXIT_FAIL


# --- verification suites ----------------------------------------------------

RECURRENCE_TYPES = (
    [f"A{n}" for n in range(1, 9)]
    + [f"B{n}" for n in range(2, 9)]
    + [f"D{n}" for n in range(4, 9)]
    + [f"I2({a})" for a in range(3, 11)]
    + ["H3", "H4", "F4", "E6", "E7", "E8"]
)

FM_CLOSED_TYPES = (
    [f"A{n}" for n in range(1, 7)] + [f"B{n}" for n in range(2, 7)] + [f"D{n}" for n in range(4, 7)]
)

FM_FORMULA_TYPES = [f"I2({a})" for a in range(3, 9)] + ["H3", "H4", "F4", "E6"]

FM_BRUTE_GRID = [
    (s, m)
    for s in ("A2", "A3", "A4", "B2", "B3", "D4", "I2(3)", "I2(4)", "I2(5)", "I2(6)", "H3")
    for m in (1, 2, 3)
]

DUAL_SYMBOLIC_TYPES = [f"A{n}" for n in range(1, 7)] + [f"B{n}" for n in range(2, 6)]
DUAL_CENSUS_GRID = [
    (s, m) for s in ("D4", "I2(3)", "I2(4)", "I2(5)", "I2(6)", "H3") for m in (1, 2, 3)
]

CHAINS_GRID = (
    [(f"A{n}", m) for n in range(1, 5) for m in (1, 2, 3)]
    + [(f"B{n}", m) for n in (2, 3) for m in (1, 2, 3)]
    + [("D4", 1), ("D5", 1)]
)

# the types and (type, m) grid of each suite's gated checks; carlitz takes no filter
GATED_CHECKS = {
    "recurrence": (RECURRENCE_TYPES, []),
    "fm": (FM_CLOSED_TYPES + FM_FORMULA_TYPES, FM_BRUTE_GRID),
    "chains": ([], CHAINS_GRID),
    "dual": (DUAL_SYMBOLIC_TYPES, DUAL_CENSUS_GRID),
}


def positive_compositions(n: int):
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in positive_compositions(n - first):
            yield (first,) + rest


def _wanted(cfg: RunConfig, s: str) -> bool:
    return not cfg.types or RootSystemType.parse(s) in cfg.types


def _filter_types(cfg: RunConfig, types: list[str]) -> list[str]:
    return [s for s in types if _wanted(cfg, s)]


def _filter_grid(cfg: RunConfig, grid):
    return [(s, m) for s, m in grid if _wanted(cfg, s) and m in cfg.m_grid]


def _suite_recurrence(cfg: RunConfig, out: list[VerificationReport]):
    for s in _filter_types(cfg, RECURRENCE_TYPES):
        out.append(check_recurrence(RootSystemType.parse(s)))


def _suite_fm(cfg: RunConfig, out: list[VerificationReport]):
    for s in _filter_types(cfg, FM_CLOSED_TYPES):
        out.append(verify_fm(RootSystemType.parse(s), "closed"))
    for s in _filter_types(cfg, FM_FORMULA_TYPES):
        out.append(verify_fm(RootSystemType.parse(s), "formula", group_cap=cfg.group_cap))
    for s, m in _filter_grid(cfg, FM_BRUTE_GRID):
        out.append(
            verify_fm(RootSystemType.parse(s), "brute", m, group_cap=cfg.group_cap, poset_cap=cfg.poset_cap)
        )
    # open case in family D: reported, never gated on
    for m in (2, 3):
        rep = verify_fm_dn_general(4, m, group_cap=cfg.group_cap, poset_cap=cfg.poset_cap)
        print(rep.summary_line() + f"  ({rep.note})")


def _suite_chains(cfg: RunConfig, out: list[VerificationReport]):
    any_failure = False
    for s, m in _filter_grid(cfg, CHAINS_GRID):
        t = RootSystemType.parse(s)
        bad = []
        for jumps in positive_compositions(t.rank):
            res = chain_counts_classical(
                t, m, jumps, group_cap=cfg.group_cap, poset_cap=cfg.poset_cap
            )
            if not res.equal:
                bad.append(res)
        status = "FAIL" if bad else "PASS"
        print(f"[{status}] chains {s} m={m} (all jump vectors)")
        any_failure = any_failure or bool(bad)
    if any_failure:
        out.append(_fail_marker("chains"))


def _fail_marker(name: str) -> VerificationReport:
    one = MPoly.const(1)
    rep = VerificationReport(name, "-", "brute", None, one, MPoly.zero())
    return rep


def _suite_dual(cfg: RunConfig, out: list[VerificationReport]):
    for s in _filter_types(cfg, DUAL_SYMBOLIC_TYPES):
        out.append(verify_dual(RootSystemType.parse(s)))
    for s, m in _filter_grid(cfg, DUAL_CENSUS_GRID):
        out.append(verify_dual(RootSystemType.parse(s), m))


def _suite_carlitz(cfg: RunConfig, out: list[VerificationReport]):
    res = run_random_suite(seed=cfg.seed, draws=200)
    named = run_named_cases()
    print(
        f"carlitz random: {res.passed} passed, {res.skipped} skipped; "
        f"named: {named.passed} passed, {named.skipped} skipped"
    )
    if res.failures or named.failures:
        print("carlitz failures:", failure_dump(res.failures + named.failures), file=sys.stderr)
        out.append(_fail_marker("carlitz"))


def cmd_verify(args, cfg: RunConfig) -> int:
    suites = {
        "recurrence": _suite_recurrence,
        "fm": _suite_fm,
        "chains": _suite_chains,
        "dual": _suite_dual,
        "carlitz": _suite_carlitz,
    }
    selected = list(suites) if args.suite == "all" else [args.suite]
    gated = [GATED_CHECKS.get(name) for name in selected]
    if not any(g is None or _filter_types(cfg, g[0]) or _filter_grid(cfg, g[1]) for g in gated):
        raise InvalidArgument(f"--types and --m-grid leave suite {args.suite} with no gated check")
    reports: list[VerificationReport] = []
    for name in selected:
        suites[name](cfg, reports)
    for rep in reports:
        print(rep.summary_line())
    ok = all(r.equal for r in reports)
    payload = {
        "suite": args.suite,
        "ok": ok,
        "checks": [r.to_json_obj() for r in reports],
    }
    report_dir = Path(args.cache_dir) if args.cache_dir else Path.cwd()
    report_dir.mkdir(parents=True, exist_ok=True)
    report_path = report_dir / f"verify_{args.suite}.json"
    report_path.write_text(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    print(f"report: {report_path}")
    return EXIT_OK if ok else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="catwb",
        description="Exact workbench for cluster-complex F-triangles and m-divisible "
        "non-crossing partition M-triangles over finite reflection groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ftriangle", help="emit the F-triangle of a type")
    p.add_argument("type")
    p.add_argument("--m", type=int, default=None, help="evaluate at a concrete m")
    _add_common(p)
    p.set_defaults(func=cmd_ftriangle)

    p = sub.add_parser("mtriangle", help="emit an M-triangle (formula or brute mode)")
    p.add_argument("type")
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--mode", choices=("formula", "brute"), default="formula")
    _add_common(p)
    p.set_defaults(func=cmd_mtriangle)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument(
        "--suite",
        choices=("fm", "recurrence", "chains", "dual", "carlitz", "all"),
        required=True,
    )
    p.add_argument("--types", default=None, help="comma-separated type filter, e.g. A2,B3")
    p.add_argument("--m-grid", default=None, dest="m_grid", help="comma-separated m values")
    _add_common(p, fmt=False)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("export-poset", help="write the Hasse diagram of NC^m as JSON")
    p.add_argument("type")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--out", required=True)
    _add_common(p, fmt=False)
    p.set_defaults(func=cmd_export_poset)

    p = sub.add_parser("chains", help="rank-jump chain counts: formula vs brute force")
    p.add_argument("type")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--jumps", required=True, help="comma-separated rank jumps, e.g. 1,1,2")
    _add_common(p, fmt=False)
    p.set_defaults(func=cmd_chains)

    p = sub.add_parser("dual", help="verify the dual F-triangle identity for a type")
    p.add_argument("type")
    p.add_argument("--m", type=int, default=None)
    _add_common(p, fmt=False)
    p.set_defaults(func=cmd_dual)

    return parser


def main(argv=None) -> int:
    cache_dir = previous = None
    try:
        args = build_parser().parse_args(argv)
        # the --cache-dir cache serves this command only, not later library calls
        cache_dir = getattr(args, "cache_dir", None)
        previous = set_disk_cache(ResultCache(cache_dir)) if cache_dir else None
        return args.func(args, RunConfig.from_args(args))
    except (TypeParseError, UnsupportedType, InvalidArgument) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except OSError as exc:  # an --out or --cache-dir path that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        if cache_dir:
            set_disk_cache(previous)


if __name__ == "__main__":
    sys.exit(main())
