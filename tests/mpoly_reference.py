"""Bivariate arithmetic one coefficient at a time, on Fraction tuples: the
reference that the integer rows of `catwb.exactmath.MPoly` (products, sums,
scalings, negation, d/dy, evaluation at m, the diagonal and the two
transforms, all over one common denominator) and the integer sum of
`catwb.ncposet.m_triangle_formula` are compared against; and the polynomial
m and the generalized binomial, which the other references build their
m-polynomials from in the ring MPoly."""

from fractions import Fraction
from math import factorial, lcm

from catwb.exactmath import MPoly, MUniPoly
from catwb.wgroup import char_poly, decomposition_numbers

# the polynomial m, a constant of the ring MPoly
M = MPoly.from_parts({(0, 0): ([0, 1], 1)})


def gen_binomial(N, K: int):
    """The generalized binomial N(N-1)...(N-K+1)/K!, zero for K < 0, one
    factor at a time: a Fraction for an int or Fraction N, an MPoly for an
    MPoly N."""
    out = N**0
    for i in range(K):
        out = out * (N - i)
    return out * Fraction(int(K >= 0), factorial(max(K, 0)))


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
    """The MPoly whose coefficient of x^k y^l is the Fraction list
    terms[(k, l)], by ascending power of m, each list over its lcm."""
    parts = {}
    for key, cs in terms.items():
        den = lcm(*(Fraction(c).denominator for c in cs))
        parts[key] = [int(c * den) for c in cs], den
    return MPoly.from_parts(parts)


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
        q = _build({(0, 0): _fractions(q)})
    out = {key: list(c.coeffs) for key, c in p.terms.items()}
    for key, c in q.terms.items():
        out[key] = _uni_add(out.get(key, []), c.coeffs)
    return _build(out)


def reference_neg(p: MPoly) -> MPoly:
    return _build({key: [-a for a in c.coeffs] for key, c in p.terms.items()})


def reference_diff_y(p: MPoly) -> MPoly:
    return _build({(k, l - 1): [a * l for a in c.coeffs] for (k, l), c in p.terms.items() if l})


def reference_eval_m(p: MPoly, m) -> MPoly:
    """Every coefficient summed as a Fraction at m."""
    return _build({key: [sum(a * Fraction(m) ** i for i, a in enumerate(c.coeffs))] for key, c in p.terms.items()})


def reference_set_diagonal(p: MPoly) -> MPoly:
    out: dict = {}
    for (k, l), c in p.terms.items():
        out[(k + l, 0)] = _uni_add(out.get((k + l, 0), []), c.coeffs)
    return _build(out)


def _xy_mul(p: dict, q: dict) -> dict:
    """The product of two integer polynomials in x and y, as dicts."""
    out: dict = {}
    for (i1, j1), a in p.items():
        for (i2, j2), b in q.items():
            out[(i1 + i2, j1 + j2)] = out.get((i1 + i2, j1 + j2), 0) + a * b
    return out


def _xy_pow(p: dict, k: int) -> dict:
    out = {(0, 0): 1}
    for _ in range(k):
        out = _xy_mul(out, p)
    return out


def _linear_map(p: MPoly, image) -> MPoly:
    """The sum over the monomials x^k y^l of p of image(k, l), an integer
    polynomial in x and y, times their coefficient."""
    out: dict = {}
    for (k, l), c in p.terms.items():
        for key, v in image(k, l).items():
            out[key] = _uni_add(out.get(key, []), [a * v for a in c.coeffs])
    return _build(out)


def reference_substitute_fm(p: MPoly, n: int) -> MPoly:
    """x^k y^l -> (x(1+y))^k (xy)^l (1-xy)^(n-k-l), expanded by repeated
    products of integer polynomials."""
    return _linear_map(p, lambda k, l: _xy_mul(
        _xy_mul(_xy_pow({(1, 0): 1, (1, 1): 1}, k), _xy_pow({(1, 1): 1}, l)),
        _xy_pow({(0, 0): 1, (1, 1): -1}, n - k - l),
    ))


def reference_substitute_dual(p: MPoly, n: int) -> MPoly:
    """x^k y^l -> (-1)^n (-1-x)^k (-1-y)^l, expanded the same way."""
    return _linear_map(p, lambda k, l: _xy_mul(
        _xy_mul(_xy_pow({(0, 0): -1, (1, 0): -1}, k), _xy_pow({(0, 0): -1, (0, 1): -1}, l)),
        {(0, 0): (-1) ** n},
    ))


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
            at_neg_y = _build({(k, l): [a * (-1) ** l for a in c.coeffs] for (k, l), c in char_poly(T).terms.items()})
            prod = reference_mul(prod, at_neg_y)
        rksum = sum(T.rank for T in key)
        weight = gen_binomial(M, d) * (n_value * orderings * (-1) ** rksum)
        acc = reference_add(acc, reference_mul(prod, weight * MPoly.term(rksum, 0)))
    return acc
