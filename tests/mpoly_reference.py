"""Bivariate arithmetic one coefficient at a time, on Fraction tuples: the
reference that the integer kernels of `catwb.exactmath.MPoly` (products,
sums and scalings over one common denominator) and the integer sum of
`catwb.ncposet.m_triangle_formula` are compared against."""

from fractions import Fraction
from math import factorial

from catwb.exactmath import M, MPoly, MUniPoly, gen_binomial
from catwb.wgroup import char_poly, decomposition_numbers


def _fractions(c) -> tuple[Fraction, ...]:
    if isinstance(c, MUniPoly):
        return c.coeffs
    return (Fraction(c),)


def _uni_mul(a, b) -> list[Fraction]:
    out = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
    for i, c in enumerate(a):
        for j, d in enumerate(b):
            out[i + j] += c * d
    return out


def _uni_add(a, b) -> list[Fraction]:
    out = [Fraction(0)] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    return out


def _build(terms: dict) -> MPoly:
    return MPoly({key: MUniPoly(cs) for key, cs in terms.items() if any(cs)})


def reference_mul(p: MPoly, q) -> MPoly:
    """p * q, q an MPoly or a scalar (int, Fraction, bool or MUniPoly): every
    pair of terms multiplied coefficient by coefficient and summed per
    output monomial."""
    if not isinstance(q, MPoly):
        s = _fractions(q)
        return _build({key: _uni_mul(c.coeffs, s) for key, c in p.terms.items()})
    out: dict = {}
    for (k1, l1), c1 in p.terms.items():
        for (k2, l2), c2 in q.terms.items():
            key = (k1 + k2, l1 + l2)
            out[key] = _uni_add(out.get(key, []), _uni_mul(c1.coeffs, c2.coeffs))
    return _build(out)


def reference_add(p: MPoly, q) -> MPoly:
    """p + q, q an MPoly or a scalar, coefficient by coefficient."""
    if not isinstance(q, MPoly):
        q = MPoly({(0, 0): MUniPoly(_fractions(q))})
    out = {key: list(c.coeffs) for key, c in p.terms.items()}
    for key, c in q.terms.items():
        out[key] = _uni_add(out.get(key, []), c.coeffs)
    return _build(out)


def reference_json(p: MPoly) -> list[dict]:
    """`to_json_obj` with every coefficient formatted from its Fraction."""
    return [
        {"dx": k, "dy": l, "coeff": [f"{q.numerator}/{q.denominator}" for q in c.coeffs]}
        for (k, l), c in sorted(p.terms.items())
    ]


def reference_m_triangle_formula(t) -> MPoly:
    """The formula M-triangle as a sum of MPoly products: for each key of the
    decomposition numbers, the product of the characteristic polynomials at
    -y times sign * N * orderings * binomial(m, d) x^(rank sum)."""
    acc = MPoly.zero()
    for key, n_value in decomposition_numbers(t).counts.items():
        d = len(key)
        orderings = factorial(d)
        for T in set(key):
            orderings //= factorial(key.count(T))
        prod = MPoly.const(1)
        for T in key:
            at_neg_y = MPoly({(k, l): c * (-1) ** l for (k, l), c in char_poly(T).terms.items()})
            prod = reference_mul(prod, at_neg_y)
        rksum = sum(T.rank for T in key)
        weight = gen_binomial(M, d) * (n_value * orderings * (-1) ** rksum)
        acc = reference_add(acc, reference_mul(prod, MPoly.term(rksum, 0, weight)))
    return acc
