"""Closed-form F-triangles for all catalog types, the derivative/deletion
recurrence check, row sums, Fuss-Narayana data, and the dual F-triangle.

The classical families carry explicit product formulas for the refined face
numbers; the exceptional types carry fixed coefficient tables.  Reducible
types multiply.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .errors import UnsupportedType
from .exactmath import M, MPoly, MUniPoly, gen_binomial, substitute_dual
from .report import VerificationReport
from .rootdata import Irreducible, RootSystemType, deletion_types


class FTriangle:
    """An F-triangle: the bivariate face-count polynomial of a type, with
    coefficients polynomial in the Fuss parameter m."""

    def __init__(self, type: RootSystemType, poly: MPoly):
        self.type = type
        self.poly = poly

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.type == other.type and self.poly == other.poly


class NarayanaVector:
    """Rank counts of the m-divisible non-crossing partition poset, index 0
    through the rank; entries are m-polynomials or concrete integers."""

    def __init__(self, type: RootSystemType, entries: tuple):
        self.type = type
        self.entries = entries


def face_number_a(n: int, k: int, l: int) -> MUniPoly:
    """Refined face numbers for the A family."""
    c = Fraction(l + 1, k + l + 1) * gen_binomial(n, k + l)
    return gen_binomial(M * (n + 1) + (k - 1), k) * c


def face_number_b(n: int, k: int, l: int) -> MUniPoly:
    """Refined face numbers for the B family (B1 identified with A1)."""
    return gen_binomial(M * n + (k - 1), k) * gen_binomial(n, k + l)


def face_number_d(n: int, k: int, l: int) -> MUniPoly:
    """Refined face numbers for the D family (D2 = A1xA1, D3 = A3); the l = 0
    row carries an explicit correction term."""
    mm = M * (n - 1)
    out = gen_binomial(mm + (k - 1), k) * gen_binomial(n, k + l)
    out = out + M * gen_binomial(mm + (k - 2), k - 1) * gen_binomial(n - 1, k + l - 1)
    if l == 0:
        out = out - gen_binomial(mm + (k - 1), k) * Fraction(gen_binomial(n - 1, k - 1), n - 1)
    return out


def _triangle_from_rows(n: int, face) -> MPoly:
    terms = {}
    for k in range(n + 1):
        for l in range(n + 1 - k):
            c = face(k, l)
            if c:
                terms[(k, l)] = c
    return MPoly(terms)


def f_i2(a) -> MPoly:
    """F-triangle of a dihedral type with label a (a may be symbolic-free int
    or a Fraction for interpolation purposes)."""
    return MPoly(
        {
            (2, 0): M * (M * a + (a - 2)) / 2,
            (1, 1): M * 2,
            (1, 0): M * a,
            (0, 2): MUniPoly.const(1),
            (0, 1): MUniPoly.const(2),
            (0, 0): MUniPoly.const(1),
        }
    )


def _f_h3() -> MPoly:
    return MPoly(
        {
            (3, 0): M * (5 * M + 2) * (5 * M + 4) / 3,
            (2, 1): M * (5 * M + 2),
            (2, 0): 5 * M * (5 * M + 2),
            (1, 2): 3 * M,
            (1, 1): 10 * M,
            (1, 0): 15 * M,
            (0, 3): MUniPoly.const(1),
            (0, 2): MUniPoly.const(3),
            (0, 1): MUniPoly.const(3),
            (0, 0): MUniPoly.const(1),
        }
    )


def _f_h4() -> MPoly:
    return MPoly(
        {
            (4, 0): M * (3 * M + 1) * (5 * M + 3) * (15 * M + 14) / 4,
            (3, 1): M * (3 * M + 1) * (5 * M + 3),
            (3, 0): 15 * M * (3 * M + 1) * (5 * M + 3),
            (2, 2): M * (17 * M + 5) / 2,
            (2, 1): M * (45 * M + 14),
            (2, 0): M * (465 * M + 149) / 2,
            (1, 3): 4 * M,
            (1, 2): 17 * M,
            (1, 1): 31 * M,
            (1, 0): 60 * M,
            (0, 4): MUniPoly.const(1),
            (0, 3): MUniPoly.const(4),
            (0, 2): MUniPoly.const(6),
            (0, 1): MUniPoly.const(4),
            (0, 0): MUniPoly.const(1),
        }
    )


def _f_f4() -> MPoly:
    return MPoly(
        {
            (4, 0): M * (2 * M + 1) * (3 * M + 1) * (6 * M + 5) / 2,
            (3, 1): 2 * M * (2 * M + 1) * (3 * M + 1),
            (3, 0): 12 * M * (2 * M + 1) * (3 * M + 1),
            (2, 2): 2 * M * (4 * M + 1),
            (2, 1): 2 * M * (18 * M + 5),
            (2, 0): M * (78 * M + 23),
            (1, 3): 4 * M,
            (1, 2): 16 * M,
            (1, 1): 26 * M,
            (1, 0): 24 * M,
            (0, 4): MUniPoly.const(1),
            (0, 3): MUniPoly.const(4),
            (0, 2): MUniPoly.const(6),
            (0, 1): MUniPoly.const(4),
            (0, 0): MUniPoly.const(1),
        }
    )


def _f_e6() -> MPoly:
    return MPoly(
        {
            (6, 0): M * (2 * M + 1) * (3 * M + 1) * (4 * M + 1) * (6 * M + 5) * (12 * M + 7) / 30,
            (5, 1): M * (2 * M + 1) * (3 * M + 1) * (4 * M + 1) * (12 * M + 7) / 5,
            (5, 0): 6 * M * (2 * M + 1) * (3 * M + 1) * (4 * M + 1) * (12 * M + 7) / 5,
            (4, 2): M * (3 * M + 1) * (4 * M + 1) * (8 * M + 3) / 2,
            (4, 1): 2 * M * (3 * M + 1) * (4 * M + 1) * (12 * M + 5),
            (4, 0): 2 * M * (3 * M + 1) * (4 * M + 1) * (30 * M + 13),
            (3, 3): 5 * M * (4 * M + 1) * (5 * M + 1) / 3,
            (3, 2): M * (4 * M + 1) * (48 * M + 11),
            (3, 1): M * (4 * M + 1) * (120 * M + 31),
            (3, 0): 9 * M * (4 * M + 1) * (18 * M + 5),
            (2, 4): 5 * M * (7 * M + 1) / 2,
            (2, 3): 5 * M * (20 * M + 3),
            (2, 2): M * (242 * M + 39),
            (2, 1): 3 * M * (108 * M + 19),
            (2, 0): 12 * M * (21 * M + 4),
            (1, 5): 6 * M,
            (1, 4): 35 * M,
            (1, 3): 85 * M,
            (1, 2): 111 * M,
            (1, 1): 84 * M,
            (1, 0): 36 * M,
            (0, 6): MUniPoly.const(1),
            (0, 5): MUniPoly.const(6),
            (0, 4): MUniPoly.const(15),
            (0, 3): MUniPoly.const(20),
            (0, 2): MUniPoly.const(15),
            (0, 1): MUniPoly.const(6),
            (0, 0): MUniPoly.const(1),
        }
    )


def _f_e7() -> MPoly:
    return MPoly(
        {
            (7, 0): M * (3 * M + 1) * (3 * M + 2) * (9 * M + 2) * (9 * M + 4) * (9 * M + 5) * (9 * M + 8) / 280,
            (6, 1): M * (3 * M + 1) * (3 * M + 2) * (9 * M + 2) * (9 * M + 4) * (9 * M + 5) / 40,
            (6, 0): 9 * M * (3 * M + 1) * (3 * M + 2) * (9 * M + 2) * (9 * M + 4) * (9 * M + 5) / 40,
            (5, 2): 3 * M * (3 * M + 1) * (7 * M + 3) * (9 * M + 2) * (9 * M + 4) / 40,
            (5, 1): 3 * M * (3 * M + 1) * (9 * M + 2) * (9 * M + 4) * (27 * M + 13) / 20,
            (5, 0): 3 * M * (3 * M + 1) * (9 * M + 2) * (9 * M + 4) * (207 * M + 103) / 40,
            (4, 3): M * (3 * M + 1) * (9 * M + 2) * (27 * M + 7) / 8,
            (4, 2): 3 * M * (3 * M + 1) * (9 * M + 2) * (63 * M + 19) / 8,
            (4, 1): 3 * M * (3 * M + 1) * (9 * M + 2) * (207 * M + 71) / 8,
            (4, 0): 21 * M * (3 * M + 1) * (9 * M + 2) * (63 * M + 23) / 8,
            (3, 4): M * (6 * M + 1) * (9 * M + 2),
            (3, 3): 3 * M * (9 * M + 2) * (27 * M + 5) / 2,
            (3, 2): 3 * M * (9 * M + 2) * (81 * M + 17) / 2,
            (3, 1): 21 * M * (9 * M + 2) * (21 * M + 5) / 2,
            (3, 0): 21 * M * (9 * M + 2) * (27 * M + 7) / 2,
            (2, 5): 3 * M * (8 * M + 1),
            (2, 4): 3 * M * (54 * M + 7),
            (2, 3): 3 * M * (315 * M + 43) / 2,
            (2, 2): 21 * M * (75 * M + 11) / 2,
            (2, 1): 21 * M * (81 * M + 13) / 2,
            (2, 0): 21 * M * (63 * M + 11) / 2,
            (1, 6): 7 * M,
            (1, 5): 48 * M,
            (1, 4): 141 * M,
            (1, 3): 231 * M,
            (1, 2): 231 * M,
            (1, 1): 147 * M,
            (1, 0): 63 * M,
            (0, 7): MUniPoly.const(1),
            (0, 6): MUniPoly.const(7),
            (0, 5): MUniPoly.const(21),
            (0, 4): MUniPoly.const(35),
            (0, 3): MUniPoly.const(35),
            (0, 2): MUniPoly.const(21),
            (0, 1): MUniPoly.const(7),
            (0, 0): MUniPoly.const(1),
        }
    )


def _f_e8() -> MPoly:
    return MPoly(
        {
            (8, 0): M * (3 * M + 1) * (5 * M + 1) * (5 * M + 2) * (5 * M + 3) * (15 * M + 8) * (15 * M + 11) * (15 * M + 14) / 1344,
            (7, 1): M * (3 * M + 1) * (5 * M + 1) * (5 * M + 2) * (5 * M + 3) * (15 * M + 8) * (15 * M + 11) / 168,
            (7, 0): 5 * M * (3 * M + 1) * (5 * M + 1) * (5 * M + 2) * (5 * M + 3) * (15 * M + 8) * (15 * M + 11) / 56,
            (6, 2): M * (3 * M + 1) * (5 * M + 1) * (5 * M + 2) * (15 * M + 7) * (15 * M + 8) / 48,
            (6, 1): 5 * M * (3 * M + 1) * (5 * M + 1) * (5 * M + 2) * (15 * M + 8) * (15 * M + 8) / 24,
            (6, 0): 5 * M * (3 * M + 1) * (5 * M + 1) * (5 * M + 2) * (15 * M + 8) * (195 * M + 107) / 48,
            (5, 3): M * (3 * M + 1) * (5 * M + 1) * (5 * M + 2) * (10 * M + 3) / 3,
            (5, 2): 5 * M * (3 * M + 1) * (5 * M + 1) * (5 * M + 2) * (45 * M + 16) / 8,
            (5, 1): 25 * M * (3 * M + 1) * (5 * M + 1) * (5 * M + 2) * (39 * M + 16) / 8,
            (5, 0): 15 * M * (3 * M + 1) * (5 * M + 1) * (5 * M + 2) * (30 * M + 13),
            (4, 4): M * (5 * M + 1) * (10 * M + 3) * (19 * M + 4) / 6,
            (4, 3): M * (5 * M + 1) * (10 * M + 3) * (25 * M + 6),
            (4, 2): M * (5 * M + 1) * (3675 * M * M + 2125 * M + 308) / 4,
            (4, 1): M * (5 * M + 1) * (2250 * M * M + 1395 * M + 218),
            (4, 0): M * (5 * M + 1) * (10350 * M * M + 6675 * M + 1084) / 2,
            (3, 5): 7 * M * (5 * M + 1) * (7 * M + 1) / 3,
            (3, 4): M * (5 * M + 1) * (380 * M + 59) / 3,
            (3, 3): M * (5 * M + 1) * (1315 * M + 226) / 3,
            (3, 2): M * (5 * M + 1) * (915 * M + 178),
            (3, 1): M * (5 * M + 1) * (1380 * M + 307),
            (3, 0): 45 * M * (5 * M + 1) * (45 * M + 11),
            (2, 6): 7 * M * (9 * M + 1) / 2,
            (2, 5): 7 * M * (35 * M + 4),
            (2, 4): M * (1675 * M + 199) / 2,
            (2, 3): 4 * M * (415 * M + 52),
            (2, 2): M * (4295 * M + 579) / 2,
            (2, 1): 75 * M * (27 * M + 4),
            (2, 0): 35 * M * (105 * M + 17) / 2,
            (1, 7): 8 * M,
            (1, 6): 63 * M,
            (1, 5): 217 * M,
            (1, 4): 428 * M,
            (1, 3): 532 * M,
            (1, 2): 435 * M,
            (1, 1): 245 * M,
            (1, 0): 120 * M,
            (0, 8): MUniPoly.const(1),
            (0, 7): MUniPoly.const(8),
            (0, 6): MUniPoly.const(28),
            (0, 5): MUniPoly.const(56),
            (0, 4): MUniPoly.const(70),
            (0, 3): MUniPoly.const(56),
            (0, 2): MUniPoly.const(28),
            (0, 1): MUniPoly.const(8),
            (0, 0): MUniPoly.const(1),
        }
    )


@lru_cache(maxsize=None)
def _f_closed_irr(f: Irreducible) -> MPoly:
    n = f.rank
    if f.family == "A":
        return _triangle_from_rows(n, lambda k, l: face_number_a(n, k, l))
    if f.family == "B":
        return _triangle_from_rows(n, lambda k, l: face_number_b(n, k, l))
    if f.family == "D":
        return _triangle_from_rows(n, lambda k, l: face_number_d(n, k, l))
    if f.family == "I":
        return f_i2(f.param)
    if f.family == "H":
        return _f_h3() if n == 3 else _f_h4()
    if f.family == "F":
        return _f_f4()
    if f.family == "E":
        return {6: _f_e6, 7: _f_e7, 8: _f_e8}[n]()
    raise UnsupportedType(str(f))


@lru_cache(maxsize=None)
def f_closed(t: RootSystemType) -> FTriangle:
    """The F-triangle of any catalog type, symbolic in m; multiplicative over
    factors."""
    poly = MPoly.const(1)
    for f in t.factors:
        poly = poly * _f_closed_irr(f)
    return FTriangle(t, poly)


def refined_face_number(t: RootSystemType, k: int, l: int) -> MUniPoly:
    """The coefficient of x^k y^l in the F-triangle of t."""
    return f_closed(t).poly.coeff(k, l)


def check_recurrence(t: RootSystemType) -> VerificationReport:
    """The derivative-vs-deletions identity for an irreducible type: d/dy of
    the F-triangle equals the sum of the F-triangles of all one-node diagram
    deletions."""
    lhs = f_closed(t).poly.diff_y()
    rhs = MPoly.zero()
    for sub in deletion_types(t):
        rhs = rhs + f_closed(sub).poly
    return VerificationReport("recurrence", str(t), "symbolic", None, lhs, rhs)


def row_sum(t: RootSystemType, k: int) -> MUniPoly:
    """Total number of k-element faces: the x^k coefficient of F(x, x)."""
    return f_closed(t).poly.set_diagonal().coeff(k, 0)


def row_sum_closed(t: RootSystemType, k: int) -> MUniPoly:
    """Closed product forms for the classical-family row sums."""
    f = t.single()
    n = f.rank
    if f.family == "A":
        return gen_binomial(M * (n + 1) + (k + 1), k) * Fraction(gen_binomial(n, k), k + 1)
    if f.family == "B":
        return gen_binomial(M * n + k, k) * gen_binomial(n, k)
    if f.family == "D":
        mm = M * (n - 1)
        return gen_binomial(mm + k, k) * gen_binomial(n, k) + gen_binomial(mm + (k - 1), k) * gen_binomial(n - 2, k - 2)
    raise UnsupportedType(f"no closed row sum for {t}")


# ---------------------------------------------------------------------------
# Fuss-Narayana numbers and the dual F-triangle
# ---------------------------------------------------------------------------


def narayana_closed(t: RootSystemType) -> NarayanaVector:
    """Symbolic rank counts for the A and B families.

    For A_n the entry at rank i is binom(n+1, i) * binom(m(n+1), n-i)/(n+1);
    for B_n it is binom(n, i) * binom(mn, n-i), the two-jump chain count."""
    f = t.single()
    n = f.rank
    if f.family == "A":
        entries = tuple(
            gen_binomial(M * (n + 1), n - i) * Fraction(gen_binomial(n + 1, i), n + 1)
            for i in range(n + 1)
        )
    elif f.family == "B":
        entries = tuple(gen_binomial(M * n, n - i) * gen_binomial(n, i) for i in range(n + 1))
    else:
        raise UnsupportedType(f"no closed Fuss-Narayana formula for {t}")
    return NarayanaVector(t, entries)


def dual_f_triangle(t: RootSystemType) -> MPoly:
    """(-1)^rank * F(-1-x, -1-y), symbolic in m."""
    return substitute_dual(f_closed(t).poly, t.rank)


def _narayana_weighted(t: RootSystemType, nar_m, nar_1) -> MPoly:
    """Sum of (Nar^m(k+l)/Nar^1(k+l)) * f_{k,l} x^k y^l with given vectors."""
    F = f_closed(t).poly
    terms = {}
    for (k, l), c in F.terms.items():
        ratio_num = nar_m[k + l]
        ratio_den = nar_1[k + l]
        terms[(k, l)] = c * ratio_num / ratio_den
    return MPoly(terms)


def verify_dual(t: RootSystemType, m_value: int | None = None) -> VerificationReport:
    """The dual-F identity: the sign-reflected triangle equals the Narayana
    ratio weighting of the face numbers.

    With m_value None the check is symbolic and requires a closed Narayana
    formula (A or B family); otherwise the rank census of the brute-force
    poset supplies the Narayana numbers at both m_value and 1.
    """
    if m_value is None:
        nar = narayana_closed(t).entries
        nar1 = tuple(p.eval(1) for p in nar)
        lhs = dual_f_triangle(t)
        rhs = _narayana_weighted(t, nar, nar1)
        return VerificationReport("dual-f", str(t), "symbolic", None, lhs, rhs)
    from .ncposet import rank_census

    nar_m = rank_census(t, m_value).entries
    nar_1 = rank_census(t, 1).entries
    lhs = dual_f_triangle(t).eval_m(m_value)
    rhs = _narayana_weighted(t, nar_m, nar_1).eval_m(m_value)
    return VerificationReport("dual-f", str(t), "census", m_value, lhs, rhs)
