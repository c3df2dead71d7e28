"""End-to-end verification of the cluster-side/partition-side identity: the
transformed F-triangle against closed classical double sums, against the
decomposition-number expansion, and against brute-force Mobius inversion on
the m-divisible posets.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial

from .errors import UnsupportedType
from .exactmath import MPoly, binom_int, falling, int_poly_mul, substitute_fm
from .ftriangle import f_closed
from .ncposet import m_triangle_bruteforce, m_triangle_formula, mtriangle_rhs_transform
from .report import VerificationReport
from .rootdata import RootSystemType


@lru_cache(maxsize=None)
def fm_lhs(t: RootSystemType) -> MPoly:
    """(1 - xy)^rank * F(x(1+y)/(1-xy), xy/(1-xy)), symbolic in m; memoised,
    as every brute-force row of a type compares it at another m."""
    return substitute_fm(f_closed(t), t.rank)


def fm_lhs_closed_classical(t: RootSystemType) -> MPoly:
    """Closed double sums for the transformed F-triangle in the classical
    families, one shape per family, on integer numerators in m: the
    coefficient of x^s y^r is binom(am, r) binom(am + s-r-1, s-r) times a
    family factor, a = n+1, n, n-1 for A, B, D, over r! (s-r)!."""
    f = t.single()
    n = f.rank
    if f.family not in ("A", "B", "D"):
        raise UnsupportedType(f"no closed classical form for {t}")
    a = {"A": n + 1, "B": n, "D": n - 1}[f.family]
    parts = {}
    for s in range(n + 1):
        for r in range(s + 1):
            den = factorial(r) * factorial(s - r)
            base = int_poly_mul(falling(a, 0, r), falling(a, s - r - 1, s - r))
            if f.family != "D":  # times binom(n, s), over s + 1 in type A
                parts[(s, r)] = [binom_int(n, s) * c for c in base], den * (s + 1 if f.family == "A" else 1)
                continue
            c1 = binom_int(n - 1, s - 1)
            acc = [(2 * c1 + binom_int(n - 2, s)) * c for c in base] + [0]
            # + m binom(am - 1, r-2) binom(am + s-r-1, s-r) c1, over (r-2)! (s-r)!
            up = int_poly_mul(falling(a, -1, r - 2), falling(a, s - r - 1, s - r))
            # - m binom(am, r) binom(am + s-r-2, s-r-2) c1, over r! (s-r-2)!
            down = int_poly_mul(falling(a, 0, r), falling(a, s - r - 2, s - r - 2))
            for i, c in enumerate(up, 1):
                acc[i] += r * (r - 1) * c1 * c
            for i, c in enumerate(down, 1):
                acc[i] -= (s - r) * (s - r - 1) * c1 * c
            parts[(s, r)] = acc, den
    return MPoly.from_parts(parts)


def verify_fm(t: RootSystemType, mode: str, m: int | None = None, **caps) -> VerificationReport:
    """Compare the transformed F-triangle against the chosen partition-side
    computation: 'closed' (classical double sums, symbolic), 'formula'
    (decomposition-number expansion, symbolic), or 'brute' (Mobius inversion on
    the m-divisible poset at concrete m)."""
    lhs = fm_lhs(t)
    if mode == "closed":
        rhs = fm_lhs_closed_classical(t)
        return VerificationReport("fm", str(t), "closed", None, lhs, rhs)
    if mode == "formula":
        rhs = m_triangle_formula(t, group_cap=caps.get("group_cap"))
        return VerificationReport("fm", str(t), "formula", None, lhs, rhs)
    if mode == "brute":
        if m is None:
            raise ValueError("brute mode requires a concrete m")
        # multiplicative over factors, so alias types like D2 and D3 reduce
        rhs = MPoly.const(1)
        for f in t.factors:
            sub = RootSystemType.make(f)
            rhs = rhs * mtriangle_rhs_transform(m_triangle_bruteforce(sub, m, **caps), sub.rank)
        return VerificationReport("fm", str(t), "brute", m, lhs.eval_m(m), rhs)
    raise ValueError(f"unknown mode {mode!r}")


def verify_fm_dn_general(n: int, m: int, **caps) -> VerificationReport:
    """Empirical check of the identity for the D family at general m.

    For m = 1 this is a proven case; for m >= 2 no chain-enumeration theorem
    is available, so the outcome is reported as evidence, never asserted."""
    return dn_general_report(verify_fm(RootSystemType.irreducible("D", n), "brute", m, **caps))


def dn_general_report(report: VerificationReport) -> VerificationReport:
    """The D-family record of a brute-force F = M comparison already made,
    with the note that says whether its m is a proven case."""
    note = "proven case (m = 1)" if report.m == 1 else "empirical: open case, outcome reported not asserted"
    return VerificationReport("fm-dn-general", report.type, report.mode, report.m, report.lhs, report.rhs, note)
