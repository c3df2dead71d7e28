"""The closed forms of catwb evaluated in `Fraction` arithmetic and in the
ring MPoly, one generalized binomial at a time: the reference that the
integer numerator rows of `catwb.ftriangle` (the classical face numbers, the
row sums and the Fuss-Narayana vectors), `catwb.fmverify.fm_lhs_closed_classical`
and `catwb.wgroup.chain_count_formula` are compared against.  Every
m-polynomial here is an MPoly constant."""

from fractions import Fraction
from functools import reduce

from catwb.errors import InvariantError, UnsupportedType
from catwb.exactmath import MPoly
from catwb.ftriangle import f_closed

from mpoly_reference import M, gen_binomial


def face_number_a(n: int, k: int, l: int) -> MPoly:
    c = Fraction(l + 1, k + l + 1) * gen_binomial(n, k + l)
    return gen_binomial(M * (n + 1) + (k - 1), k) * c


def face_number_b(n: int, k: int, l: int) -> MPoly:
    return gen_binomial(M * n + (k - 1), k) * gen_binomial(n, k + l)


def face_number_d(n: int, k: int, l: int) -> MPoly:
    mm = M * (n - 1)
    out = gen_binomial(mm + (k - 1), k) * gen_binomial(n, k + l)
    out = out + M * gen_binomial(mm + (k - 2), k - 1) * gen_binomial(n - 1, k + l - 1)
    if l == 0:
        out = out - gen_binomial(mm + (k - 1), k) * Fraction(gen_binomial(n - 1, k - 1), n - 1)
    return out


FACE_NUMBERS = {"A": face_number_a, "B": face_number_b, "D": face_number_d}


def row_sum_closed(t, k: int) -> MPoly:
    """The closed product forms of the classical row sums."""
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


def fm_lhs_closed_classical(t) -> MPoly:
    f = t.single()
    n = f.rank
    out = MPoly.zero()
    if f.family == "A":
        mm = M * (n + 1)
        for s in range(n + 1):
            cs = Fraction(gen_binomial(n, s), s + 1)
            for r in range(s + 1):
                coeff = gen_binomial(mm, r) * gen_binomial(mm + (s - r - 1), s - r) * cs
                if coeff:
                    out = out + coeff * MPoly.term(s, r)
    elif f.family == "B":
        mm = M * n
        for s in range(n + 1):
            cs = gen_binomial(n, s)
            for r in range(s + 1):
                coeff = gen_binomial(mm, r) * gen_binomial(mm + (s - r - 1), s - r) * cs
                if coeff:
                    out = out + coeff * MPoly.term(s, r)
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
                    out = out + acc * MPoly.term(s, r)
    else:
        raise UnsupportedType(f"no closed classical form for {t}")
    return out


def narayana_closed(t) -> tuple[MPoly, ...]:
    f = t.single()
    n = f.rank
    if f.family == "A":
        return tuple(
            gen_binomial(M * (n + 1), n - i) * Fraction(gen_binomial(n + 1, i), n + 1)
            for i in range(n + 1)
        )
    if f.family == "B":
        return tuple(gen_binomial(M * n, n - i) * gen_binomial(n, i) for i in range(n + 1))
    raise UnsupportedType(f"no closed Fuss-Narayana formula for {t}")


def narayana_weighted(t, nar_m, nar_1) -> MPoly:
    """Sum of (Nar^m(k+l)/Nar^1(k+l)) * f_{k,l} x^k y^l, one m-polynomial
    product per coefficient."""
    F = f_closed(t)
    return sum(
        (MPoly.term(k, l, c) * nar_m[k + l] * Fraction(1, nar_1[k + l]) for (k, l), c in F.terms.items()),
        MPoly.zero(),
    )


def mtriangle_rhs_transform(mt: MPoly, n: int) -> MPoly:
    return sum((MPoly.term(n - i, n - j, c) * (-1) ** (i + j) for (i, j), c in mt.terms.items()), MPoly.zero())


def chain_count_formula(t, m: int, jumps: tuple[int, ...]) -> int:
    f = t.single()
    n = f.rank
    if f.family == "A":
        v = Fraction(1, n + 1) * gen_binomial(n + 1, jumps[-1])
        for s in jumps[:-1]:
            v *= gen_binomial(m * (n + 1), s)
    elif f.family == "B":
        v = gen_binomial(n, jumps[-1])
        for s in jumps[:-1]:
            v *= gen_binomial(m * n, s)
    elif f.family == "D":
        v = 2 * reduce(lambda a, s: a * gen_binomial(n - 1, s), jumps, Fraction(1))
        for i in range(len(jumps)):
            term = Fraction(1)
            for j, s in enumerate(jumps):
                term *= gen_binomial(n - 2, s - 2) if j == i else gen_binomial(n - 1, s)
            v += term
    else:
        raise UnsupportedType(f"no closed chain count for {t}")
    if v.denominator != 1:
        raise InvariantError(f"chain count {v} of {t} is not an integer")
    return v.numerator
