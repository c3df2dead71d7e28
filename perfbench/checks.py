"""Correctness gates of the benchmark: the stored verify outcomes, and closed
forms for every size counter.

The closed forms come from the degrees of each reflection group and are kept
here, apart from catwb, so a change to the program cannot move both sides of
a check at once.
"""

from __future__ import annotations

import json
import re
from math import prod
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference" / "verify_all.json"

# The documented criterion-10 failures: the only checks that may be red.
EXPECTED_RED = frozenset({("dual-f", "D4", "census", 2), ("dual-f", "D4", "census", 3)})
VERIFY_EXIT = 1

_EXCEPTIONAL_DEGREES = {
    "E6": (2, 5, 6, 8, 9, 12),
    "E7": (2, 6, 8, 10, 12, 14, 18),
    "E8": (2, 8, 12, 14, 18, 20, 24, 30),
    "F4": (2, 6, 8, 12),
    "H3": (2, 6, 10),
    "H4": (2, 12, 20, 30),
}


def degrees(type_name: str) -> tuple[int, ...]:
    """Degrees of the irreducible reflection group named like 'A5' or 'I2(7)'."""
    if type_name in _EXCEPTIONAL_DEGREES:
        return _EXCEPTIONAL_DEGREES[type_name]
    dihedral = re.fullmatch(r"I2\((\d+)\)", type_name)
    if dihedral:
        return (2, int(dihedral.group(1)))
    match = re.fullmatch(r"([ABD])(\d+)", type_name)
    if not match:
        raise ValueError(f"no degrees for type {type_name!r}")
    family, n = match.group(1), int(match.group(2))
    if family == "A":
        return tuple(range(2, n + 2))
    if family == "B":
        return tuple(range(2, 2 * n + 1, 2))
    return tuple(range(2, 2 * n - 1, 2)) + (n,)


def group_order(type_name: str) -> int:
    return prod(degrees(type_name))


def fuss_catalan(type_name: str, m: int) -> int:
    """Cat^(m)(W) = prod (m h + d_i) / d_i, with h the largest degree."""
    ds = degrees(type_name)
    h = max(ds)
    num, den = prod(m * h + d for d in ds), prod(ds)
    if num % den:
        raise ArithmeticError(f"Cat^({m})({type_name}) is not an integer")
    return num // den


def outcome_key(check: dict) -> tuple:
    """What the gate compares: a check's identity and its verdict.  Hashes,
    notes and any later timing fields are ignored."""
    return (check["check"], check["type"], check["mode"], check["m"], bool(check["equal"]))


def load_reference(path: Path = REFERENCE) -> list[tuple]:
    return [tuple(row) for row in json.loads(path.read_text())]


def verify_problems(exit_code: int | None, report: dict | None, reference: list[tuple]) -> list[str]:
    """Reasons a `catwb verify --suite all` job is wrong; empty when right."""
    if exit_code != VERIFY_EXIT:
        return [f"exit code {exit_code}, expected {VERIFY_EXIT}"]
    if report is None:
        return ["no verify report was written"]
    got = [outcome_key(c) for c in report["checks"]]
    problems = []
    red = {key[:4] for key in got if not key[4]}
    if red != EXPECTED_RED:
        problems.append(f"red checks {sorted(red)}, expected {sorted(EXPECTED_RED)}")
    if got != reference:
        missing = [k for k in reference if k not in got]
        extra = [k for k in got if k not in reference]
        problems.append(
            f"{len(got)} outcomes differ from the {len(reference)} stored: "
            f"missing {missing[:3]}, unexpected {extra[:3]}"
        )
    return problems


def counter_problems(summary: dict) -> list[str]:
    """Check every exact size counter of a traced job against its closed form."""
    problems = []
    for name, size in summary["groups"]:
        if size != group_order(name):
            problems.append(f"|W({name})| = {size}, expected {group_order(name)}")
    for name, size, intervals in summary["cores"]:
        if size != fuss_catalan(name, 1):
            problems.append(f"|NC({name})| = {size}, expected Cat = {fuss_catalan(name, 1)}")
        if intervals != fuss_catalan(name, 2):
            problems.append(
                f"NC({name}) has {intervals} intervals, expected Cat^(2) = {fuss_catalan(name, 2)}"
            )
    for name, m, size, pairs in summary["ncms"]:
        if size != fuss_catalan(name, m):
            problems.append(f"|NC^{m}({name})| = {size}, expected {fuss_catalan(name, m)}")
        if pairs != fuss_catalan(name, 2 * m):
            problems.append(
                f"NC^{m}({name}) has {pairs} related pairs, expected Cat^({2 * m}) = "
                f"{fuss_catalan(name, 2 * m)}"
            )
    return problems
