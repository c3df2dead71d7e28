"""Closed-form F-triangles for all catalog types, the derivative/deletion
recurrence check, row sums, Fuss-Narayana data, and the dual F-triangle.

An F-triangle is an MPoly in x and y whose coefficients are polynomials in
the Fuss parameter m, and f_closed returns it as such; narayana_closed returns
the rank counts of NC^m as a tuple.  The classical families carry explicit product
formulas for the refined face numbers; the exceptional types carry fixed
coefficient tables.  Reducible types multiply.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial

from .errors import UnsupportedType
from .exactmath import MPoly, MUniPoly, _mup, _parts, binom_int, falling, int_poly_mul, mpoly_sum, substitute_dual
from .ncposet import rank_census
from .report import VerificationReport
from .rootdata import Irreducible, RootSystemType, deletion_types


def face_number_a(n: int, k: int, l: int) -> tuple[list[int], int]:
    """Refined face numbers for the A family, binom((n+1)m + k-1, k)
    (l+1)/(k+l+1) binom(n, k+l), as integer numerators in m over a
    denominator."""
    c = (l + 1) * binom_int(n, k + l)
    return [c * a for a in falling(n + 1, k - 1, k)], factorial(k) * (k + l + 1)


def face_number_b(n: int, k: int, l: int) -> tuple[list[int], int]:
    """Refined face numbers for the B family (B1 identified with A1),
    binom(nm + k-1, k) binom(n, k+l), as numerators over a denominator."""
    c = binom_int(n, k + l)
    return [c * a for a in falling(n, k - 1, k)], factorial(k)


def face_number_d(n: int, k: int, l: int) -> tuple[list[int], int]:
    """Refined face numbers for the D family (D2 = A1xA1, D3 = A3), as
    numerators over k! (n-1); the l = 0 row carries an explicit correction
    term."""
    head = falling(n - 1, k - 1, k)  # k! binom((n-1)m + k-1, k)
    out = [(n - 1) * binom_int(n, k + l) * a for a in head] + [0]
    c = (n - 1) * k * binom_int(n - 1, k + l - 1)  # m binom((n-1)m + k-2, k-1), over k!
    for i, a in enumerate(falling(n - 1, k - 2, k - 1), 1):
        out[i] += c * a
    if l == 0:
        c = binom_int(n - 1, k - 1)
        for i, a in enumerate(head):
            out[i] -= c * a
    return out, factorial(k) * (n - 1)


def _triangle_from_rows(n: int, face) -> MPoly:
    return MPoly.from_parts({(k, l): face(k, l) for k in range(n + 1) for l in range(n + 1 - k)})


def f_i2(a) -> MPoly:
    """F-triangle of a dihedral type with label a (an int, or a Fraction for
    interpolation purposes)."""
    p, q = a.numerator, a.denominator
    return MPoly.from_parts(
        {
            (2, 0): ((0, p - 2 * q, p), 2 * q),  # m (am + a - 2) / 2
            (1, 1): ((0, 2), 1),
            (1, 0): ((0, p), q),
            (0, 2): ((1,), 1),
            (0, 1): ((2,), 1),
            (0, 0): ((1,), 1),
        }
    )


# The F-triangles of the exceptional types, coefficient by coefficient in
# factored form, one line "k l: factors / denominator" per x^k y^l (no
# denominator when it is 1).  A factor is m, an integer, or the coefficients of
# a polynomial in m from the top power down, so 2,1 is 2m + 1.  Kept as text,
# which compiles in a fraction of the time of the same data as tuples.
_EXCEPTIONAL = {
    "H3": """
        3 0: m 5,2 5,4 / 3
        2 1: m 5,2
        2 0: 5 m 5,2
        1 2: 3 m
        1 1: 10 m
        1 0: 15 m
        0 3: 1
        0 2: 3
        0 1: 3
        0 0: 1
    """,
    "H4": """
        4 0: m 3,1 5,3 15,14 / 4
        3 1: m 3,1 5,3
        3 0: 15 m 3,1 5,3
        2 2: m 17,5 / 2
        2 1: m 45,14
        2 0: m 465,149 / 2
        1 3: 4 m
        1 2: 17 m
        1 1: 31 m
        1 0: 60 m
        0 4: 1
        0 3: 4
        0 2: 6
        0 1: 4
        0 0: 1
    """,
    "F4": """
        4 0: m 2,1 3,1 6,5 / 2
        3 1: 2 m 2,1 3,1
        3 0: 12 m 2,1 3,1
        2 2: 2 m 4,1
        2 1: 2 m 18,5
        2 0: m 78,23
        1 3: 4 m
        1 2: 16 m
        1 1: 26 m
        1 0: 24 m
        0 4: 1
        0 3: 4
        0 2: 6
        0 1: 4
        0 0: 1
    """,
    "E6": """
        6 0: m 2,1 3,1 4,1 6,5 12,7 / 30
        5 1: m 2,1 3,1 4,1 12,7 / 5
        5 0: 6 m 2,1 3,1 4,1 12,7 / 5
        4 2: m 3,1 4,1 8,3 / 2
        4 1: 2 m 3,1 4,1 12,5
        4 0: 2 m 3,1 4,1 30,13
        3 3: 5 m 4,1 5,1 / 3
        3 2: m 4,1 48,11
        3 1: m 4,1 120,31
        3 0: 9 m 4,1 18,5
        2 4: 5 m 7,1 / 2
        2 3: 5 m 20,3
        2 2: m 242,39
        2 1: 3 m 108,19
        2 0: 12 m 21,4
        1 5: 6 m
        1 4: 35 m
        1 3: 85 m
        1 2: 111 m
        1 1: 84 m
        1 0: 36 m
        0 6: 1
        0 5: 6
        0 4: 15
        0 3: 20
        0 2: 15
        0 1: 6
        0 0: 1
    """,
    "E7": """
        7 0: m 3,1 3,2 9,2 9,4 9,5 9,8 / 280
        6 1: m 3,1 3,2 9,2 9,4 9,5 / 40
        6 0: 9 m 3,1 3,2 9,2 9,4 9,5 / 40
        5 2: 3 m 3,1 7,3 9,2 9,4 / 40
        5 1: 3 m 3,1 9,2 9,4 27,13 / 20
        5 0: 3 m 3,1 9,2 9,4 207,103 / 40
        4 3: m 3,1 9,2 27,7 / 8
        4 2: 3 m 3,1 9,2 63,19 / 8
        4 1: 3 m 3,1 9,2 207,71 / 8
        4 0: 21 m 3,1 9,2 63,23 / 8
        3 4: m 6,1 9,2
        3 3: 3 m 9,2 27,5 / 2
        3 2: 3 m 9,2 81,17 / 2
        3 1: 21 m 9,2 21,5 / 2
        3 0: 21 m 9,2 27,7 / 2
        2 5: 3 m 8,1
        2 4: 3 m 54,7
        2 3: 3 m 315,43 / 2
        2 2: 21 m 75,11 / 2
        2 1: 21 m 81,13 / 2
        2 0: 21 m 63,11 / 2
        1 6: 7 m
        1 5: 48 m
        1 4: 141 m
        1 3: 231 m
        1 2: 231 m
        1 1: 147 m
        1 0: 63 m
        0 7: 1
        0 6: 7
        0 5: 21
        0 4: 35
        0 3: 35
        0 2: 21
        0 1: 7
        0 0: 1
    """,
    "E8": """
        8 0: m 3,1 5,1 5,2 5,3 15,8 15,11 15,14 / 1344
        7 1: m 3,1 5,1 5,2 5,3 15,8 15,11 / 168
        7 0: 5 m 3,1 5,1 5,2 5,3 15,8 15,11 / 56
        6 2: m 3,1 5,1 5,2 15,7 15,8 / 48
        6 1: 5 m 3,1 5,1 5,2 15,8 15,8 / 24
        6 0: 5 m 3,1 5,1 5,2 15,8 195,107 / 48
        5 3: m 3,1 5,1 5,2 10,3 / 3
        5 2: 5 m 3,1 5,1 5,2 45,16 / 8
        5 1: 25 m 3,1 5,1 5,2 39,16 / 8
        5 0: 15 m 3,1 5,1 5,2 30,13
        4 4: m 5,1 10,3 19,4 / 6
        4 3: m 5,1 10,3 25,6
        4 2: m 5,1 3675,2125,308 / 4
        4 1: m 5,1 2250,1395,218
        4 0: m 5,1 10350,6675,1084 / 2
        3 5: 7 m 5,1 7,1 / 3
        3 4: m 5,1 380,59 / 3
        3 3: m 5,1 1315,226 / 3
        3 2: m 5,1 915,178
        3 1: m 5,1 1380,307
        3 0: 45 m 5,1 45,11
        2 6: 7 m 9,1 / 2
        2 5: 7 m 35,4
        2 4: m 1675,199 / 2
        2 3: 4 m 415,52
        2 2: m 4295,579 / 2
        2 1: 75 m 27,4
        2 0: 35 m 105,17 / 2
        1 7: 8 m
        1 6: 63 m
        1 5: 217 m
        1 4: 428 m
        1 3: 532 m
        1 2: 435 m
        1 1: 245 m
        1 0: 120 m
        0 8: 1
        0 7: 8
        0 6: 28
        0 5: 56
        0 4: 70
        0 3: 56
        0 2: 28
        0 1: 8
        0 0: 1
    """,
}


def _factored_triangle(table: str) -> MPoly:
    parts = {}
    for line in table.strip().splitlines():
        key, _, rest = line.partition(":")
        factors, _, den = rest.partition("/")
        nums = [1]
        for f in factors.split():
            nums = int_poly_mul(nums, [0, 1] if f == "m" else [int(c) for c in reversed(f.split(","))])
        k, l = map(int, key.split())
        parts[k, l] = nums, int(den or 1)
    return MPoly.from_parts(parts)


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
    if str(f) in _EXCEPTIONAL:
        return _factored_triangle(_EXCEPTIONAL[str(f)])
    raise UnsupportedType(str(f))


@lru_cache(maxsize=None)
def f_closed(t: RootSystemType) -> MPoly:
    """The F-triangle of any catalog type: its bivariate face-count
    polynomial, coefficients symbolic in m; multiplicative over factors."""
    poly = MPoly.const(1)
    for f in t.factors:
        poly = poly * _f_closed_irr(f)
    return poly


def refined_face_number(t: RootSystemType, k: int, l: int) -> MUniPoly:
    """The coefficient of x^k y^l in the F-triangle of t."""
    return f_closed(t).coeff(k, l)


def check_recurrence(t: RootSystemType) -> VerificationReport:
    """The derivative-vs-deletions identity for an irreducible type: d/dy of
    the F-triangle equals the sum of the F-triangles of all one-node diagram
    deletions."""
    lhs = f_closed(t).diff_y()
    rhs = mpoly_sum(map(f_closed, deletion_types(t)))
    return VerificationReport("recurrence", str(t), "symbolic", None, lhs, rhs)


def row_sum(t: RootSystemType, k: int) -> MUniPoly:
    """Total number of k-element faces: the x^k coefficient of F(x, x)."""
    return f_closed(t).set_diagonal().coeff(k, 0)


def row_sum_closed(t: RootSystemType, k: int) -> MUniPoly:
    """Closed product forms for the classical-family row sums, as integer
    numerators in m over k! (times k + 1 in type A)."""
    f = t.single()
    n = f.rank
    if f.family not in ("A", "B", "D"):
        raise UnsupportedType(f"no closed row sum for {t}")
    if k < 0:  # no faces, as in row_sum
        return _mup((), 1)
    if f.family == "A":  # binom((n+1)m + k+1, k) binom(n, k)/(k+1)
        c = binom_int(n, k)
        return _mup([c * a for a in falling(n + 1, k + 1, k)], factorial(k) * (k + 1))
    if f.family == "B":  # binom(nm + k, k) binom(n, k)
        c = binom_int(n, k)
        return _mup([c * a for a in falling(n, k, k)], factorial(k))
    # D: binom((n-1)m + k, k) binom(n, k) + binom((n-1)m + k-1, k) binom(n-2, k-2)
    c, d = binom_int(n, k), binom_int(n - 2, k - 2)
    return _mup([c * a + d * b for a, b in zip(falling(n - 1, k, k), falling(n - 1, k - 1, k))], factorial(k))


# ---------------------------------------------------------------------------
# Fuss-Narayana numbers and the dual F-triangle
# ---------------------------------------------------------------------------


def narayana_closed(t: RootSystemType) -> tuple[MUniPoly, ...]:
    """Symbolic rank counts for the A and B families, index 0 through the
    rank.

    For A_n the entry at rank i is binom(n+1, i) * binom(m(n+1), n-i)/(n+1);
    for B_n it is binom(n, i) * binom(mn, n-i), the two-jump chain count."""
    f = t.single()
    n = f.rank
    if f.family == "A":
        return tuple(
            _mup([binom_int(n + 1, i) * a for a in falling(n + 1, 0, n - i)], factorial(n - i) * (n + 1))
            for i in range(n + 1)
        )
    if f.family == "B":
        return tuple(
            _mup([binom_int(n, i) * a for a in falling(n, 0, n - i)], factorial(n - i)) for i in range(n + 1)
        )
    raise UnsupportedType(f"no closed Fuss-Narayana formula for {t}")


@lru_cache(maxsize=None)
def dual_f_triangle(t: RootSystemType) -> MPoly:
    """(-1)^rank * F(-1-x, -1-y), symbolic in m; memoised, as every census
    row of a type compares it at another m."""
    return substitute_dual(f_closed(t), t.rank)


def _narayana_weighted(t: RootSystemType, nar_m, nar_1) -> MPoly:
    """Sum of (Nar^m(k+l)/Nar^1(k+l)) * f_{k,l} x^k y^l with given vectors,
    their entries ints, Fractions or MUniPolys, on integer rows."""
    F = f_closed(t)
    ratios = []
    for a, b in zip(nar_m, nar_1):
        (nums, den), ((p,), q) = _parts(a), _parts(b)
        ratios.append(([q * c for c in nums], den * p))
    return MPoly.from_parts(
        {(k, l): (int_poly_mul(row, ratios[k + l][0]), F.den * ratios[k + l][1]) for (k, l), row in F.rows.items()}
    )


def verify_dual(
    t: RootSystemType, m_value: int | None = None, group_cap: int | None = None, poset_cap: int | None = None
) -> VerificationReport:
    """The dual-F identity: the sign-reflected triangle equals the Narayana
    ratio weighting of the face numbers.

    With m_value None the check is symbolic and requires a closed Narayana
    formula (A or B family); otherwise the rank census of the brute-force
    poset supplies the Narayana numbers at both m_value and 1, under the
    group and poset caps.
    """
    if m_value is None:
        nar = narayana_closed(t)
        nar1 = tuple(p.eval(1) for p in nar)
        lhs = dual_f_triangle(t)
        rhs = _narayana_weighted(t, nar, nar1)
        return VerificationReport("dual-f", str(t), "symbolic", None, lhs, rhs)
    nar_m = rank_census(t, m_value, group_cap, poset_cap)
    nar_1 = rank_census(t, 1, group_cap, poset_cap)
    lhs = dual_f_triangle(t).eval_m(m_value)
    rhs = _narayana_weighted(t, nar_m, nar_1).eval_m(m_value)
    return VerificationReport("dual-f", str(t), "census", m_value, lhs, rhs)
