"""The convolution kernel and its two identities evaluated directly in
`Fraction` arithmetic: the reference that `catwb.identities`, which works on
integer numerators over one denominator, is compared against.  Shifts may be
ints or Fractions; every division is a Fraction one."""

from fractions import Fraction
from functools import cache

from catwb.errors import SingularPoint

from mpoly_reference import gen_binomial

# every function here is pure; the memos keep the seed sweeps short
binom = cache(gen_binomial)


@cache
def value(a, b, c, d, k, n, alpha, beta) -> Fraction:
    n1, n2 = a * k + c * n + alpha, b * k + d * n + beta
    if n1 == 0 or n2 == 0:
        raise SingularPoint(f"denominator form vanishes at (k, n) = ({k}, {n})")
    num = Fraction(b * k * alpha + c * n * beta + alpha * beta)
    return num / (n1 * n2) * binom(n1, k) * binom(n2, n)


def binom_over_top(N, K: int) -> Fraction:
    """binom(N, K)/N for K >= 1, as binom(N-1, K-1)/K."""
    return binom(N - 1, K - 1) / K


@cache
def value_extended(a, b, c, d, k, n, alpha, beta) -> Fraction:
    n1, n2 = a * k + c * n + alpha, b * k + d * n + beta
    if k == 0 and n == 0:
        return Fraction(1)
    if k == 0:
        return beta * binom_over_top(n2, n)
    if n == 0:
        return alpha * binom_over_top(n1, k)
    num = b * k * alpha + c * n * beta + alpha * beta
    return num * binom_over_top(n1, k) * binom_over_top(n2, n)


def _setup(params, extend):
    a, b, c, d = params["a"], params["b"], params["c"], params["d"]
    fn = value_extended if extend else value
    return (a, b, c, d), (lambda k, n, al, be: fn(a, b, c, d, k, n, al, be))


def check_carlitz_7(params: dict, k: int, n: int, extend: bool = False) -> bool:
    _, val = _setup(params, extend)
    al, be, al2, be2 = params["alpha"], params["beta"], params["alpha2"], params["beta2"]
    lhs = Fraction(0)
    for k1 in range(k + 1):
        for n1 in range(n + 1):
            lhs += val(k1, n1, al, be) * val(k - k1, n - n1, al2, be2)
    return lhs == val(k, n, al + al2, be + be2)


def check_carlitz_8(params: dict, k: int, n: int, extend: bool = False) -> bool:
    (a, b, c, d), val = _setup(params, extend)
    al, be, al2, be2 = params["alpha"], params["beta"], params["alpha2"], params["beta2"]
    lhs = Fraction(0)
    for k1 in range(k + 1):
        for n1 in range(n + 1):
            lhs += (
                binom(a * k1 + c * n1 + al - 1, k1)
                * binom(b * k1 + d * n1 + be - 1, n1)
                * val(k - k1, n - n1, al2, be2)
            )
    rhs = binom(a * k + c * n + al + al2 - 1, k) * binom(b * k + d * n + be + be2 - 1, n)
    return lhs == rhs
