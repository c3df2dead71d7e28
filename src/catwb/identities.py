"""Numerical property checks for the double-sum convolution machinery behind
the classical-family proofs: the two-parameter binomial kernel, its two
convolution identities, and the Chu-Vandermonde helper.

All arithmetic is on integers: a value is a pair (p, q), q > 0, for p/q;
rational shifts are scaled to integer numerators over one denominator v; each
side of an identity is summed over the lcm of its denominators, and the sides
are compared by cross-multiplication.  m enters only as a concrete integer.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from math import factorial, lcm

from .errors import SingularPoint
from .exactmath import binom_int

_SHIFTS = ("alpha", "beta", "alpha2", "beta2")


def _over_one_denominator(*xs) -> tuple[int, list[int]]:
    """v > 0 and integers u_i with x_i = u_i / v; v = 1, and no Fraction is
    built, when every x_i is an int."""
    if all(isinstance(x, int) for x in xs):
        return 1, list(xs)
    fracs = [Fraction(x) for x in xs]
    v = lcm(*(f.denominator for f in fracs))
    return v, [f.numerator * (v // f.denominator) for f in fracs]


def _binom(u: int, v: int, k: int) -> tuple[int, int]:
    """binom(u/v, k) as a pair: binom_int when v = 1, otherwise
    prod_{i<k} (u - i v) / (v^k k!)."""
    if v == 1:
        return binom_int(u, k), 1
    p = 1
    for i in range(k):
        p *= u - i * v
    return (p, v**k * factorial(k)) if k >= 0 else (0, 1)


def sum_equals(terms: list[tuple[int, int]], total: tuple[int, int]) -> bool:
    """Whether the pairs (p_i, q_i) sum to total = (p, q): the sum is taken over
    the lcm of the q_i and compared with p/q by cross-multiplication."""
    den = lcm(*(q for _, q in terms))
    p, q = total
    return sum(tp * (den // tq) for tp, tq in terms) * q == p * den


class CarlitzKernel:
    """The kernel A_{k,n}(alpha, beta) for fixed integer parameters a, b, c, d:

        (bk*alpha + cn*beta + alpha*beta) / ((ak+cn+alpha)(bk+dn+beta))
            * binom(ak+cn+alpha, k) * binom(bk+dn+beta, n)
    """

    def __init__(self, a: int, b: int, c: int, d: int):
        self.a, self.b, self.c, self.d = a, b, c, d

    def pair(self, k: int, n: int, al: int, be: int, v: int = 1, extend: bool = False) -> tuple[int, int]:
        """The kernel at alpha = al/v, beta = be/v as a pair (p, q), q > 0.

        Strict: SingularPoint if a denominator form vanishes at (k, n).
        Extended: the numerator always contains the vanishing form as a
        factor, so it is cancelled against binom(N, K) = N binom(N-1, K-1)/K
        and the kernel extends to a polynomial in alpha and beta."""
        u1 = (self.a * k + self.c * n) * v + al  # v times each form
        u2 = (self.b * k + self.d * n) * v + be
        num = (self.b * k * al + self.c * n * be) * v + al * be  # v^2 times the numerator
        if not extend:
            if u1 == 0 or u2 == 0:
                raise SingularPoint(f"denominator form vanishes at (k, n) = ({k}, {n})")
            p1, q1 = _binom(u1, v, k)
            p2, q2 = _binom(u2, v, n)
            p, q = num * p1 * p2, u1 * u2 * q1 * q2
            return (p, q) if q > 0 else (-p, -q)
        if k == 0 and n == 0:
            return 1, 1
        if k == 0:  # the numerator is beta times the second form
            p2, q2 = _binom(u2 - v, v, n - 1)
            return be * p2, v * n * q2
        p1, q1 = _binom(u1 - v, v, k - 1)
        if n == 0:
            return al * p1, v * k * q1
        p2, q2 = _binom(u2 - v, v, n - 1)
        return num * p1 * p2, v * v * k * n * q1 * q2

    def value(self, k: int, n: int, alpha, beta) -> Fraction:
        """Evaluate the kernel as defined; SingularPoint if a denominator form
        vanishes at (k, n)."""
        v, (al, be) = _over_one_denominator(alpha, beta)
        return Fraction(*self.pair(k, n, al, be, v))

    def value_extended(self, k: int, n: int, alpha, beta) -> Fraction:
        """Evaluate with the removable singularities cancelled."""
        v, (al, be) = _over_one_denominator(alpha, beta)
        return Fraction(*self.pair(k, n, al, be, v, extend=True))


def kernel(k: int, n: int, alpha, beta, *, a: int, b: int, c: int, d: int) -> Fraction:
    return CarlitzKernel(a, b, c, d).value(k, n, alpha, beta)


def carlitz_7_sides(params: dict, k: int, n: int, extend: bool = False):
    """The terms of the left-hand side of the kernel convolution identity and
    its right-hand side, as pairs: summing the product of two kernels over the
    split of (k, n) reproduces the kernel at summed shifts."""
    ker = CarlitzKernel(*(params[key] for key in "abcd"))
    v, (al, be, al2, be2) = _over_one_denominator(*(params[key] for key in _SHIFTS))
    terms = []
    for k1 in range(k + 1):
        for n1 in range(n + 1):
            p1, q1 = ker.pair(k1, n1, al, be, v, extend)
            p2, q2 = ker.pair(k - k1, n - n1, al2, be2, v, extend)
            terms.append((p1 * p2, q1 * q2))
    return terms, ker.pair(k, n, al + al2, be + be2, v, extend)


def carlitz_8_sides(params: dict, k: int, n: int, extend: bool = False):
    """The terms and right-hand side of the mixed convolution: binomial pairs
    against the kernel, with the corrected plus sign on the cn shift in the
    right-hand binomials."""
    a, b, c, d = (params[key] for key in "abcd")
    ker = CarlitzKernel(a, b, c, d)
    v, (al, be, al2, be2) = _over_one_denominator(*(params[key] for key in _SHIFTS))
    terms = []
    for k1 in range(k + 1):
        for n1 in range(n + 1):
            p1, q1 = _binom((a * k1 + c * n1 - 1) * v + al, v, k1)
            p2, q2 = _binom((b * k1 + d * n1 - 1) * v + be, v, n1)
            p3, q3 = ker.pair(k - k1, n - n1, al2, be2, v, extend)
            terms.append((p1 * p2 * p3, q1 * q2 * q3))
    p1, q1 = _binom((a * k + c * n - 1) * v + al + al2, v, k)
    p2, q2 = _binom((b * k + d * n - 1) * v + be + be2, v, n)
    return terms, (p1 * p2, q1 * q2)


def check_carlitz_7(params: dict, k: int, n: int, extend: bool = False) -> bool:
    """The kernel convolution identity (7) at (k, n)."""
    return sum_equals(*carlitz_7_sides(params, k, n, extend))


def check_carlitz_8(params: dict, k: int, n: int, extend: bool = False) -> bool:
    """The mixed convolution identity (8) at (k, n)."""
    return sum_equals(*carlitz_8_sides(params, k, n, extend))


def chu_vandermonde(r, s, k: int) -> bool:
    """Vandermonde convolution under the generalized binomial convention,
    valid for negative upper arguments as a polynomial identity."""
    v, (ur, us) = _over_one_denominator(r, s)
    terms = []
    for j in range(k + 1):
        p1, q1 = _binom(ur, v, j)
        p2, q2 = _binom(us, v, k - j)
        terms.append((p1 * p2, q1 * q2))
    return sum_equals(terms, _binom(ur + us, v, k))


def proof_instantiations(m_values=(1, 2, 3)) -> list[dict]:
    """The kernel parameter choices used in the classical-family proofs, at
    concrete m: named regression cases for the convolution identities."""
    cases = []
    for m in m_values:
        for l in (1, 2):
            for l1 in range(l):
                base = {"a": m + 1, "b": 1, "c": m, "d": 1}
                cases.append(
                    {
                        "name": f"family-A m={m} l={l} l1={l1}",
                        "identity": 7,
                        **base,
                        "alpha": m * (l1 + 1),
                        "beta": l1 + 1,
                        "alpha2": m * (l - l1),
                        "beta2": l - l1,
                        "extend": False,
                    }
                )
                cases.append(
                    {
                        "name": f"family-B m={m} l={l} l1={l1}",
                        "identity": 8,
                        **base,
                        "alpha": m * l1,
                        "beta": l1 + 1,
                        "alpha2": m * (l - l1),
                        "beta2": l - l1,
                        "extend": False,
                    }
                )
                cases.append(
                    {
                        "name": f"family-D-negshift m={m} l={l} l1={l1}",
                        "identity": 8,
                        **base,
                        "alpha": m * (l1 - 1),
                        "beta": l1 + 1,
                        "alpha2": m * (l - l1),
                        "beta2": l - l1,
                        "extend": False,
                    }
                )
        for l in (1, 2):
            # the correction-term sum needs the extended kernel: its beta = -1
            cases.append(
                {
                    "name": f"family-D-correction m={m} l={l}",
                    "identity": 7,
                    "a": m + 1,
                    "b": 1,
                    "c": m,
                    "d": 1,
                    "alpha": -m,
                    "beta": -1,
                    "alpha2": m * l,
                    "beta2": l,
                    "extend": True,
                }
            )
    return cases


class CarlitzSuiteResult:
    def __init__(self, passed: int, skipped: int, failures: list[dict]):
        self.passed = passed
        self.skipped = skipped
        self.failures = failures

    @property
    def ok(self) -> bool:
        return not self.failures


def run_random_suite(seed: int = 7, draws: int = 200) -> CarlitzSuiteResult:
    """Seeded randomized grid over both convolution identities; singular
    parameter draws are skipped and counted, failures dump their parameters."""
    rng = random.Random(seed)
    passed, skipped = 0, 0
    failures: list[dict] = []
    for i in range(draws):
        params = {
            "a": rng.randint(1, 4),
            "b": rng.randint(1, 4),
            "c": rng.randint(1, 4),
            "d": rng.randint(1, 4),
            "alpha": rng.randint(1, 6),
            "beta": rng.randint(1, 6),
            "alpha2": rng.randint(1, 6),
            "beta2": rng.randint(1, 6),
        }
        total = rng.randint(0, 10)  # k + n
        k = rng.randint(0, total)
        n = total - k
        which = 7 if i % 2 == 0 else 8
        try:
            ok = check_carlitz_7(params, k, n) if which == 7 else check_carlitz_8(params, k, n)
        except SingularPoint:
            skipped += 1
            continue
        if ok:
            passed += 1
        else:
            failures.append({"identity": which, "k": k, "n": n, **params})
    return CarlitzSuiteResult(passed, skipped, failures)


def run_named_cases() -> CarlitzSuiteResult:
    """The proof-instantiation regression grid over small (k, n)."""
    passed, skipped = 0, 0
    failures: list[dict] = []
    for case in proof_instantiations():
        for k in range(0, 4):
            for n in range(0, 4):
                check = check_carlitz_7 if case["identity"] == 7 else check_carlitz_8
                try:
                    ok = check(case, k, n, extend=case["extend"])
                except SingularPoint:
                    skipped += 1
                    continue
                if ok:
                    passed += 1
                else:
                    failures.append({**case, "k": k, "n": n})
    return CarlitzSuiteResult(passed, skipped, failures)


def failure_dump(failures: list[dict]) -> str:
    return json.dumps(failures, sort_keys=True)
