"""End-to-end verification of the cluster-side/partition-side identity: the
transformed F-triangle against closed classical double sums, against the
decomposition-number expansion, and against brute-force Mobius inversion on
the m-divisible posets.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import UnsupportedType
from .exactmath import M, MPoly, MUniPoly, gen_binomial, substitute_fm
from .ftriangle import f_closed
from .ncposet import m_triangle_bruteforce, m_triangle_formula, mtriangle_rhs_transform
from .report import VerificationReport
from .rootdata import RootSystemType


def fm_lhs(t: RootSystemType) -> MPoly:
    """(1 - xy)^rank * F(x(1+y)/(1-xy), xy/(1-xy)), symbolic in m."""
    return substitute_fm(f_closed(t).poly, t.rank)


def fm_lhs_closed_classical(t: RootSystemType) -> MPoly:
    """Closed double sums for the transformed F-triangle in the classical
    families, one shape per family."""
    f = t.single()
    n = f.rank
    terms: dict[tuple[int, int], MUniPoly] = {}
    if f.family == "A":
        mm = M * (n + 1)
        for s in range(n + 1):
            cs = Fraction(gen_binomial(n, s), s + 1)
            for r in range(s + 1):
                coeff = gen_binomial(mm, r) * gen_binomial(mm + (s - r - 1), s - r) * cs
                if coeff:
                    terms[(s, r)] = terms.get((s, r), MUniPoly()) + coeff
    elif f.family == "B":
        mm = M * n
        for s in range(n + 1):
            cs = gen_binomial(n, s)
            for r in range(s + 1):
                coeff = gen_binomial(mm, r) * gen_binomial(mm + (s - r - 1), s - r) * cs
                if coeff:
                    terms[(s, r)] = terms.get((s, r), MUniPoly()) + coeff
    elif f.family == "D":
        mm = M * (n - 1)
        for s in range(n + 1):
            for r in range(s + 1):
                acc = gen_binomial(mm, r) * gen_binomial(mm + (s - r - 1), s - r) * (
                    2 * gen_binomial(n - 1, s - 1) + gen_binomial(n - 2, s)
                )
                acc = acc + M * gen_binomial(mm - 1, r - 2) * gen_binomial(
                    mm + (s - r - 1), s - r
                ) * gen_binomial(n - 1, s - 1)
                acc = acc - M * gen_binomial(mm, r) * gen_binomial(
                    mm + (s - r - 2), s - r - 2
                ) * gen_binomial(n - 1, s - 1)
                if acc:
                    terms[(s, r)] = terms.get((s, r), MUniPoly()) + acc
    else:
        raise UnsupportedType(f"no closed classical form for {t}")
    return MPoly(terms)


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
        rhs = m_triangle_formula(t, group_cap=caps.get("group_cap")).poly
        return VerificationReport("fm", str(t), "formula", None, lhs, rhs)
    if mode == "brute":
        if m is None:
            raise ValueError("brute mode requires a concrete m")
        # multiplicative over factors, so alias types like D2 and D3 reduce
        rhs = MPoly.const(1)
        for f in t.factors:
            sub = RootSystemType.make(f)
            mt = m_triangle_bruteforce(sub, m, **caps)
            rhs = rhs * mtriangle_rhs_transform(mt.poly, sub.rank)
        return VerificationReport("fm", str(t), "brute", m, lhs.eval_m(m), rhs)
    raise ValueError(f"unknown mode {mode!r}")


def verify_fm_dn_general(n: int, m: int, **caps) -> VerificationReport:
    """Empirical check of the identity for the D family at general m.

    For m = 1 this is a proven case; for m >= 2 no chain-enumeration theorem
    is available, so the outcome is reported as evidence, never asserted."""
    t = RootSystemType.irreducible("D", n)
    report = verify_fm(t, "brute", m, **caps)
    report.name = "fm-dn-general"
    report.note = (
        "proven case (m = 1)" if m == 1 else "empirical: open case, outcome reported not asserted"
    )
    return report
