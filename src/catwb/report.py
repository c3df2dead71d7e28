"""Verification reports: exact polynomial comparisons with machine-readable
JSON output."""

from __future__ import annotations

import json
from functools import lru_cache

from .exactmath import MPoly


@lru_cache(maxsize=None)
def _sha256():
    """The SHA-256 constructor, picked on first use: the interpreter's own
    (`_sha2` from Python 3.12, `_sha256` before), which loads no OpenSSL;
    hashlib's only where neither is built in."""
    for name in ("_sha2", "_sha256"):
        try:
            return __import__(name).sha256
        except ImportError:
            continue
    import hashlib

    return hashlib.sha256


def _poly_hash(p: MPoly) -> str:
    """SHA-256 of the polynomial's canonical dump, as hex."""
    return _sha256()(p.dumps().encode()).hexdigest()


def first_diff(lhs: MPoly, rhs: MPoly) -> dict | None:
    """The smallest (dx, dy) where the two polynomials differ, or None."""
    keys = sorted(set(lhs.rows) | set(rhs.rows))
    for key in keys:
        a, b = lhs.coeff(*key), rhs.coeff(*key)
        if a != b:
            return {
                "dx": key[0],
                "dy": key[1],
                "lhs": [str(c) for c in a.coeffs],
                "rhs": [str(c) for c in b.coeffs],
            }
    return None


class VerificationReport:
    """Outcome of one exact identity check between two polynomials."""

    def __init__(self, name: str, type: str, mode: str, m: int | None, lhs: MPoly, rhs: MPoly,
                 note: str = ""):
        self.name = name
        self.type = type
        self.mode = mode
        self.m = m
        self.lhs = lhs
        self.rhs = rhs
        self.equal = lhs == rhs
        self.note = note

    @property
    def diff(self) -> dict | None:
        return None if self.equal else first_diff(self.lhs, self.rhs)

    def to_json_obj(self) -> dict:
        lhs_hash = _poly_hash(self.lhs)
        return {
            "check": self.name,
            "type": self.type,
            "mode": self.mode,
            "m": self.m,
            "equal": self.equal,
            "lhs_hash": lhs_hash,
            # equal polynomials have one canonical form, so one dump
            "rhs_hash": lhs_hash if self.equal else _poly_hash(self.rhs),
            "first_diff": self.diff,
            "note": self.note,
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json_obj(), sort_keys=True, separators=(",", ":"))

    def summary_line(self) -> str:
        status = "PASS" if self.equal else "FAIL"
        mpart = "m=*" if self.m is None else f"m={self.m}"
        return f"[{status}] {self.name} {self.type} {self.mode} {mpart}"
