"""Numerical property checks for the double-sum convolution machinery behind
the classical-family proofs: the two-parameter binomial kernel, its two
convolution identities, and the Chu-Vandermonde helper.

All values are exact rationals; m enters only as a concrete integer here.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidArgument, SingularPoint
from .exactmath import gen_binomial


@dataclass(frozen=True)
class CarlitzKernel:
    """The kernel A_{k,n}(alpha, beta) for fixed integer parameters a, b, c, d:

        (bk*alpha + cn*beta + alpha*beta) / ((ak+cn+alpha)(bk+dn+beta))
            * binom(ak+cn+alpha, k) * binom(bk+dn+beta, n)
    """

    a: int
    b: int
    c: int
    d: int

    def forms(self, k: int, n: int, alpha, beta) -> tuple[Fraction, Fraction]:
        return (
            Fraction(self.a * k + self.c * n) + alpha,
            Fraction(self.b * k + self.d * n) + beta,
        )

    def value(self, k: int, n: int, alpha, beta) -> Fraction:
        """Evaluate the kernel as defined; SingularPoint if a denominator form
        vanishes at (k, n)."""
        alpha, beta = Fraction(alpha), Fraction(beta)
        n1, n2 = self.forms(k, n, alpha, beta)
        if n1 == 0 or n2 == 0:
            raise SingularPoint(f"denominator form vanishes at (k, n) = ({k}, {n})")
        num = self.b * k * alpha + self.c * n * beta + alpha * beta
        return num / (n1 * n2) * gen_binomial(n1, k) * gen_binomial(n2, n)

    def value_extended(self, k: int, n: int, alpha, beta) -> Fraction:
        """Evaluate with the removable singularities cancelled: the numerator
        always contains the vanishing form as a factor, so the kernel extends
        to a polynomial in alpha and beta at every fixed (k, n)."""
        alpha, beta = Fraction(alpha), Fraction(beta)
        n1, n2 = self.forms(k, n, alpha, beta)
        if k == 0 and n == 0:
            return Fraction(1)
        if k == 0:
            # numerator = beta * n1; cancel n1 and one factor of binom(n2, n)
            return beta * _binom_over_top(n2, n)
        if n == 0:
            return alpha * _binom_over_top(n1, k)
        num = self.b * k * alpha + self.c * n * beta + alpha * beta
        return num * _binom_over_top(n1, k) * _binom_over_top(n2, n)


def _binom_over_top(N: Fraction, K: int) -> Fraction:
    """binom(N, K)/N for K >= 1, as the cancelled product binom(N-1, K-1)/K;
    polynomial in N."""
    if K < 1:
        raise InvalidArgument(f"binom(N, K)/N needs K >= 1, got K = {K}")
    return gen_binomial(N - 1, K - 1) / K


def kernel(k: int, n: int, alpha, beta, *, a: int, b: int, c: int, d: int) -> Fraction:
    return CarlitzKernel(a, b, c, d).value(k, n, alpha, beta)


def check_carlitz_7(params: dict, k: int, n: int, extend: bool = False) -> bool:
    """The kernel convolution identity: summing the product of two kernels
    over the split of (k, n) reproduces the kernel at summed shifts."""
    ker = CarlitzKernel(params["a"], params["b"], params["c"], params["d"])
    al, be = Fraction(params["alpha"]), Fraction(params["beta"])
    al2, be2 = Fraction(params["alpha2"]), Fraction(params["beta2"])
    val = ker.value_extended if extend else ker.value
    lhs = Fraction(0)
    for k1 in range(k + 1):
        for n1 in range(n + 1):
            lhs += val(k1, n1, al, be) * val(k - k1, n - n1, al2, be2)
    rhs = val(k, n, al + al2, be + be2)
    return lhs == rhs


def check_carlitz_8(params: dict, k: int, n: int, extend: bool = False) -> bool:
    """The mixed convolution: binomial pairs against the kernel, with the
    corrected plus sign on the cn shift in the right-hand binomials."""
    a, b, c, d = params["a"], params["b"], params["c"], params["d"]
    ker = CarlitzKernel(a, b, c, d)
    al, be = Fraction(params["alpha"]), Fraction(params["beta"])
    al2, be2 = Fraction(params["alpha2"]), Fraction(params["beta2"])
    val = ker.value_extended if extend else ker.value
    lhs = Fraction(0)
    for k1 in range(k + 1):
        for n1 in range(n + 1):
            lhs += (
                gen_binomial(Fraction(a * k1 + c * n1) + al - 1, k1)
                * gen_binomial(Fraction(b * k1 + d * n1) + be - 1, n1)
                * val(k - k1, n - n1, al2, be2)
            )
    rhs = gen_binomial(Fraction(a * k + c * n) + al + al2 - 1, k) * gen_binomial(
        Fraction(b * k + d * n) + be + be2 - 1, n
    )
    return lhs == rhs


def chu_vandermonde(r, s, k: int) -> bool:
    """Vandermonde convolution under the generalized binomial convention,
    valid for negative upper arguments as a polynomial identity."""
    lhs = sum(gen_binomial(Fraction(r), j) * gen_binomial(Fraction(s), k - j) for j in range(k + 1))
    return lhs == gen_binomial(Fraction(r) + Fraction(s), k)


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


@dataclass
class CarlitzSuiteResult:
    passed: int
    skipped: int
    failures: list[dict]

    @property
    def ok(self) -> bool:
        return not self.failures


def run_random_suite(seed: int = 7, draws: int = 200, kn_cap: int = 10) -> CarlitzSuiteResult:
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
        total = rng.randint(0, kn_cap)
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
