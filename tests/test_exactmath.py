"""Exact arithmetic core: m-polynomials, bivariate polynomials, the ring
Z[tau], generalized binomials, and the rank-n transform."""

import copy
import json
import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from catwb.errors import DegreeError
from catwb.exactmath import (
    ONE,
    GoldInt,
    M,
    MPoly,
    MUniPoly,
    binom_int,
    gen_binomial,
    substitute_dual,
    substitute_fm,
)
from catwb.ftriangle import f_closed
from catwb.rootdata import ir

from mpoly_reference import (
    reference_add,
    reference_diff_y,
    reference_eval_m,
    reference_json,
    reference_mul,
    reference_neg,
    reference_set_diagonal,
    reference_substitute_dual,
    reference_substitute_fm,
)


class TestMUniPoly:
    def test_construction_trims_zeros(self):
        assert MUniPoly((1, 2, 0, 0)).coeffs == (Fraction(1), Fraction(2))
        assert not MUniPoly((0, 0))
        assert MUniPoly().degree == -1

    def test_arithmetic(self):
        p = (M + 1) * (M - 1)
        assert p == M * M - 1
        assert p.eval(3) == 8
        assert (M * 2 + 1) - (M + 1) == M

    def test_eval_horner(self):
        p = 3 * M**2 + Fraction(1, 2) * M + 5
        assert p.eval(Fraction(1, 3)) == Fraction(1, 3) + Fraction(1, 6) + 5

    def test_format(self):
        assert str(2 * M**2 - M) == "2*m^2 - m"
        assert str(MUniPoly()) == "0"


class TestGenBinomial:
    def test_integer_cases(self):
        assert gen_binomial(5, 2) == 10
        assert gen_binomial(5, -1) == 0
        assert gen_binomial(-1, 2) == 1  # (-1)(-2)/2!

    def test_negative_k_is_zero_for_any_n(self):
        assert gen_binomial(M * 7 + 3, -1) == MUniPoly()
        assert gen_binomial(Fraction(9, 2), -4) == 0

    def test_single_factor(self):
        assert gen_binomial(2 * M, 1) == 2 * M

    @given(st.integers(0, 30), st.integers(0, 30))
    def test_matches_factorial_ratio(self, n, k):
        assert gen_binomial(n, k) == (math.comb(n, k) if k <= n else 0)

    def test_matches_factorial_ratio_exhaustive(self):
        for n in range(31):
            for k in range(n + 1):
                assert gen_binomial(n, k) == math.comb(n, k)

    @given(st.integers(-8, 8), st.integers(0, 8))
    def test_polynomial_specializes(self, v, k):
        poly = gen_binomial(3 * M + 1, k)
        assert poly.eval(v) == gen_binomial(3 * v + 1, k)

    def test_binom_int(self):
        assert binom_int(7, 3) == 35
        assert binom_int(-1, 3) == -1

    def test_integer_n_matches_the_product_definition(self):
        for n in range(-12, 13):
            for k in range(-1, 11):
                value = gen_binomial(n, k)
                assert type(value) is Fraction
                assert value == binom_by_product(Fraction(n), k), (n, k)
                assert gen_binomial(Fraction(n), k) == value

    def test_fraction_n_matches_the_product_definition(self):
        for n in (Fraction(7, 2), Fraction(-5, 3), Fraction(1, 7), Fraction(-23, 4)):
            for k in range(-1, 9):
                assert gen_binomial(n, k) == binom_by_product(n, k), (n, k)

    def test_polynomial_n_is_memoised_and_specializes(self):
        rng = random.Random(5)
        for N in (3 * M + 1, 2 * M - 5, M / 3 + 2, Fraction(-7, 2) * M, MUniPoly.const(4)):
            for k in range(-1, 8):
                poly = gen_binomial(N, k)
                if k >= 0:
                    assert gen_binomial(N + 0, k) is poly  # an equal key, a new object
                for _ in range(3):
                    v = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                    assert poly.eval(v) == binom_by_product(N.eval(v), k), (N, k, v)


class TestIntegralRepresentation:
    """MUniPoly arithmetic against plain Fraction tuples (ascending powers,
    trailing zeros trimmed), on seeded random operands."""

    @staticmethod
    def random_coeffs(rng):
        return [Fraction(rng.randint(-30, 30), rng.randint(1, 12)) * rng.randint(0, 1)
                for _ in range(rng.randint(0, 5))]

    def test_matches_fraction_tuples(self):
        rng = random.Random(20261018)
        for _ in range(400):
            a, b = self.random_coeffs(rng), self.random_coeffs(rng)
            P, Q = MUniPoly(a), MUniPoly(b)
            s = Fraction(rng.choice([-1, 1]) * rng.randint(1, 20), rng.randint(1, 20))
            for poly, ref in (
                (P, ref_trim(a)),
                (P + Q, ref_add(a, b)),
                (P - Q, ref_add(a, [-c for c in b])),
                (P * Q, ref_mul(a, b)),
                (P / s, ref_trim([c / s for c in a])),
                (P * s + 3, ref_add([c * s for c in a], [Fraction(3)])),
                (2 - P, ref_add([Fraction(2)], [-c for c in a])),
            ):
                assert poly.coeffs == ref
                assert poly.den > 0 and math.gcd(poly.den, *poly.nums) == 1
                if not ref:
                    assert (poly.nums, poly.den) == ((), 1)
                for _ in range(2):
                    v = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
                    assert poly.eval(v) == sum(c * v**i for i, c in enumerate(ref))
            assert (P == Q) == (ref_trim(a) == ref_trim(b))
            assert P * Q == Q * P and hash(P * Q) == hash(Q * P)
            assert (P + Q) - Q == P and hash((P + Q) - Q) == hash(P)

    def test_zero_and_constants(self):
        assert (MUniPoly().nums, MUniPoly().den) == ((), 1)
        assert ((M + 1) - (M + 1)).den == 1
        assert MUniPoly.const(Fraction(-6, 4)).nums == (-3,)
        assert MUniPoly.const(Fraction(-6, 4)).den == 2
        assert MUniPoly.const(5) == 5 and MUniPoly.const(Fraction(1, 2)) == Fraction(1, 2)
        with pytest.raises(ZeroDivisionError):
            M / 0

    def test_objects_are_immutable(self):
        p = MUniPoly((1, 2))
        for name, value in (("nums", (5,)), ("den", 3), ("coeffs", (Fraction(5),))):
            with pytest.raises(AttributeError):
                setattr(p, name, value)
        assert p.coeffs == (Fraction(1), Fraction(2))
        q = MPoly.x()
        with pytest.raises(AttributeError):
            q.terms = {}
        assert q == MPoly.term(1, 0)

    def test_copies_and_pickles_are_equal(self):
        F = f_closed(ir("B3"))
        for clone in (copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))):
            assert clone(M / 3 - 1) == M / 3 - 1
            assert clone(F) == F and clone(F).dumps() == F.dumps()


class TestGoldInt:
    def test_golden_ratio(self):
        tau = GoldInt(0, 1)
        assert tau * tau == tau + GoldInt(1)
        assert 3 * tau == tau + tau + tau
        assert GoldInt(1, -1).sign() < 0  # 1 - tau < 0

    def test_division_is_exact_when_it_divides(self):
        rng = random.Random(11)
        for _ in range(300):
            x = GoldInt(rng.randint(-20, 20), rng.randint(-20, 20))
            y = GoldInt(rng.randint(-20, 20), rng.randint(-20, 20))
            if y:
                assert (x * y) // y == x
        q = GoldInt(1) // GoldInt(2)
        assert q * GoldInt(2) != GoldInt(1)

    def test_sign_is_the_real_sign(self):
        # u + v tau = (a + b sqrt5)/2 with a = 2u + v, b = v; for b != 0,
        # s = isqrt(5 b^2) has s < sqrt5 |b| < s + 1, as sqrt5 |b| is irrational
        def sign_of(a, b):
            if b == 0:
                return (a > 0) - (a < 0)
            s = math.isqrt(5 * b * b)
            return 1 if (-a <= s if b > 0 else a >= s + 1) else -1

        rng = random.Random(17)
        grid = [(u, v) for u in range(-12, 13) for v in range(-12, 13)]
        grid += [(rng.randint(-10**9, 10**9), rng.randint(-10**9, 10**9)) for _ in range(2000)]
        # next to zero: F(k+1) - F(k) tau = (1 - tau)^k, F the Fibonacci numbers
        fib = [0, 1]
        while len(fib) < 80:
            fib.append(fib[-1] + fib[-2])
        grid += [(fib[k + 1] + d, -fib[k]) for k in range(78) for d in (-1, 0, 1)]
        for u, v in grid:
            assert GoldInt(u, v).sign() == sign_of(2 * u + v, v), (u, v)
            assert (-GoldInt(u, v)).sign() == -GoldInt(u, v).sign()


def ref_trim(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def ref_add(a, b):
    n = max(len(a), len(b))
    return ref_trim((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n))


def ref_mul(a, b):
    out = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
    for i, c in enumerate(a):
        for j, d in enumerate(b):
            out[i + j] += c * d
    return ref_trim(out)


def binom_by_product(n, k):
    """N(N-1)...(N-K+1)/K! for numeric N, zero for K < 0."""
    if k < 0:
        return 0
    out = Fraction(1)
    for i in range(k):
        out *= n - i
    return out / math.factorial(k)


def substitute_fm_by_products(F, n):
    """The transform as a sum over the monomials of F of products of MPoly
    powers: x^k y^l -> (x(1+y))^k (xy)^l (1-xy)^(n-k-l)."""
    x, y = MPoly.x(), MPoly.y()
    out = MPoly.zero()
    for (k, l), c in F.terms.items():
        out = out + (x * (1 + y)) ** k * (x * y) ** l * (1 - x * y) ** (n - k - l) * c
    return out


def random_mpoly(rng, max_deg=3, max_mdeg=2):
    terms = {}
    for _ in range(rng.randint(1, 5)):
        k, l = rng.randint(0, max_deg), rng.randint(0, max_deg)
        coeffs = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(max_mdeg + 1)]
        terms[(k, l)] = MUniPoly(coeffs)
    return MPoly(terms)


class TestMPoly:
    def test_basic_identities(self):
        x, y = MPoly.x(), MPoly.y()
        p = (x + y) * (x - y)
        assert p == x * x - y * y
        assert (x + 1) ** 2 == x * x + 2 * x + 1

    def test_ring_axioms_random_triples(self):
        rng = random.Random(20240811)
        for _ in range(100):
            a, b, c = (random_mpoly(rng) for _ in range(3))
            assert a * (b + c) == a * b + a * c
            assert (a * b) * c == a * (b * c)
            assert a + b == b + a
            # spot-evaluate at integer points
            for mv, xv, yv in [(1, 2, 3), (2, -1, 1)]:
                lhs = (a * b + c).eval_m(mv).eval_xy(xv, yv)
                rhs = a.eval_m(mv).eval_xy(xv, yv) * b.eval_m(mv).eval_xy(xv, yv) + c.eval_m(
                    mv
                ).eval_xy(xv, yv)
                assert lhs == rhs

    def test_diff_y(self):
        x, y = MPoly.x(), MPoly.y()
        p = x * y**3 + 2 * y + 5
        assert p.diff_y() == 3 * x * y**2 + 2

    def test_eval_m(self):
        p = MPoly({(1, 0): M, (0, 1): MUniPoly.const(1), (0, 0): MUniPoly.const(1)})
        assert p.eval_m(2) == MPoly({(1, 0): MUniPoly.const(2), (0, 1): MUniPoly.const(1), (0, 0): MUniPoly.const(1)})
        # m = 0 drops every m-divisible term
        assert (MPoly.term(1, 0, M) + 1).eval_m(0) == MPoly.const(1)

    def test_set_diagonal(self):
        x, y = MPoly.x(), MPoly.y()
        p = x * y + x**2 + y**2
        assert p.set_diagonal() == 3 * MPoly.term(2, 0)

    def test_poly_eval_m_on_dihedral_display(self):
        from catwb.ftriangle import f_i2

        x, y = MPoly.x(), MPoly.y()
        out = f_i2(3).eval_m(1)
        assert out == 2 * x**2 + 2 * x * y + 3 * x + y**2 + 2 * y + 1

    def test_latex_format(self):
        p = MPoly({(3, 0): Fraction(25, 3) * M, (1, 1): MUniPoly.const(1)})
        assert p.format(latex=True) == "\\frac{25}{3} m x^{3} + xy"

    def test_serialization_roundtrip_bit_exact(self):
        rng = random.Random(7)
        for _ in range(25):
            p = random_mpoly(rng)
            s = p.dumps()
            q = MPoly.loads(s)
            assert q == p
            assert q.dumps() == s

    def test_serialization_schema(self):
        import jsonschema
        from pathlib import Path

        schema = json.loads(
            (Path(__file__).parent.parent / "src/catwb/schemas/mpoly.schema.json").read_text()
        )
        p = MPoly({(1, 2): M * 2 + Fraction(1, 3)})
        jsonschema.validate(p.to_json_obj(), schema)


def canonical_problems(p: MPoly) -> list[str]:
    """Every stored row is a nonzero tuple of ints, trailing zeros trimmed,
    over one positive denominator, and the denominator and all numerators
    are in lowest terms."""
    out = []
    for key, row in p.rows.items():
        if type(row) is not tuple or not all(type(a) is int for a in row):
            out.append(f"{key}: not a tuple of ints {row!r}")
        elif not row or row[-1] == 0:
            out.append(f"{key}: zero or untrimmed row {row}")
    nums = [a for row in p.rows.values() for a in row]
    if type(p.den) is not int or p.den <= 0 or math.gcd(p.den, *nums) != 1:
        out.append(f"not in lowest terms over {p.den!r}")
    return out


def kernel_operand(rng) -> MPoly:
    """A random MPoly whose coefficients have mixed denominators and zero
    inner coefficients."""
    terms = {}
    for _ in range(rng.randint(0, 6)):
        key = (rng.randint(0, 3), rng.randint(0, 3))
        terms[key] = MUniPoly(
            Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3, 4, 6, 9, 10))) * rng.randint(0, 1)
            for _ in range(rng.randint(1, 4))
        )
    return MPoly(terms)


class TestIntegerKernels:
    """MPoly products, sums and scalings against the per-coefficient Fraction
    reference of tests/mpoly_reference.py."""

    SCALARS = (0, 1, -3, 12, Fraction(-7, 6), Fraction(-1, 9), Fraction(5, 4), True, False,
               MUniPoly(), M, MUniPoly((Fraction(1, 2), 0, Fraction(-2, 3))))

    @staticmethod
    def check(got: MPoly, ref: MPoly):
        assert got == ref
        assert canonical_problems(got) == []
        assert got.to_json_obj() == reference_json(ref)

    def test_products_and_sums_match_the_reference(self):
        rng = random.Random(20261019)
        for _ in range(300):
            p, q = kernel_operand(rng), kernel_operand(rng)
            self.check(p * q, reference_mul(p, q))
            self.check(p + q, reference_add(p, q))
            self.check(p - q, reference_add(p, reference_mul(q, -1)))
            self.check(p * q - q * p, MPoly())
            self.check(p + (-p), MPoly())

    def test_linear_maps_match_the_reference(self):
        rng = random.Random(20261023)
        for _ in range(200):
            p = kernel_operand(rng)
            self.check(-p, reference_neg(p))
            self.check(p.diff_y(), reference_diff_y(p))
            self.check(p.set_diagonal(), reference_set_diagonal(p))
            for mv in (0, 1, 2, 5, Fraction(3, 2)):
                self.check(p.eval_m(mv), reference_eval_m(p, mv))
            n = max(p.total_degree, 0) + rng.randint(0, 1)
            self.check(substitute_fm(p, n), reference_substitute_fm(p, n))
            self.check(substitute_dual(p, n), reference_substitute_dual(p, n))

    def test_sums_that_cancel_are_canonical(self):
        rng = random.Random(20261024)
        for _ in range(200):
            p, q = kernel_operand(rng), kernel_operand(rng)
            # adding q and taking it away again cancels every row that q brought
            self.check((p + q) - q, p)
            self.check(p + (q - p), q)
            zero = p * q - (q * p) + (p - p) * q
            self.check(zero, MPoly())
            assert (zero.rows, zero.den) == ({}, 1)
            r = p + MPoly({key: -c for key, c in p.terms.items() if rng.random() < 0.5})
            self.check(r, reference_add(p, reference_neg(p - r)))

    def test_terms_that_cancel_to_zero(self):
        x, y, h = MPoly.x(), MPoly.y(), Fraction(1, 2)
        p, q = x * h + y * M, x * h - y * M
        self.check(p * q, reference_mul(p, q))
        assert sorted((p * q).terms) == [(0, 2), (2, 0)]
        r = MPoly({(1, 1): M / 3 + Fraction(1, 6), (0, 0): MUniPoly((0, 0, Fraction(-5, 4)))})
        s = MPoly({(1, 1): -M / 3, (0, 0): MUniPoly((0, 0, Fraction(5, 4))), (2, 0): ONE})
        self.check(r + s, MPoly({(1, 1): MUniPoly.const(Fraction(1, 6)), (2, 0): ONE}))
        assert (r + s).terms[(1, 1)].den == 6
        parts = {(0, 0): ((3, 0, -6), -4), (1, 2): ((0,), 5), (2, 1): ((1, 1), 6)}
        self.check(MPoly.from_parts(parts), MPoly({(0, 0): MUniPoly((Fraction(-3, 4), 0, Fraction(3, 2))),
                                                   (2, 1): MUniPoly((Fraction(1, 6), Fraction(1, 6)))}))

    def test_scalars_match_the_reference(self):
        rng = random.Random(20261020)
        for _ in range(60):
            p = kernel_operand(rng)
            for v in self.SCALARS:
                self.check(p * v, reference_mul(p, v))
                self.check(p + v, reference_add(p, v))
                if isinstance(v, MUniPoly):  # on the left: test_unipoly_on_the_left_defers_to_mpoly
                    continue
                self.check(v * p, reference_mul(p, v))
                self.check(v + p, reference_add(p, v))
                c = MUniPoly(Fraction(rng.randint(-9, 9), rng.randint(1, 8)) for _ in range(3))
                f = Fraction(v)
                assert (c * v).coeffs == (v * c).coeffs == ref_trim([a * f for a in c.coeffs])
                assert (c + v).coeffs == ref_add(list(c.coeffs), [f])
                assert (c - v).coeffs == ref_add(list(c.coeffs), [-f])
                assert (v - c).coeffs == ref_add([f], [-a for a in c.coeffs])

    def test_unipoly_on_the_left_defers_to_mpoly(self):
        rng = random.Random(20261022)
        for _ in range(100):
            p = kernel_operand(rng)
            c = MUniPoly(Fraction(rng.randint(-9, 9), rng.randint(1, 8)) for _ in range(3))
            for v in (MUniPoly(), M, c):
                self.check(v * p, reference_mul(p, v))
                self.check(v + p, reference_add(p, v))
                self.check(v - p, reference_add(reference_mul(p, -1), v))
                assert v * p == p * v and v + p == p + v

    def test_bool_scalars_take_the_coercing_path(self, monkeypatch):
        coerced = []
        coerce = MUniPoly.coerce

        def spy(v):
            if not isinstance(v, MUniPoly):
                coerced.append(v)
            return coerce(v)

        monkeypatch.setattr(MUniPoly, "coerce", staticmethod(spy))
        p = MPoly({(1, 0): M / 2, (0, 2): MUniPoly.const(Fraction(-3, 4))})
        assert p * 3 == p + p + p and M * 2 + 1 == MUniPoly((1, 2))
        assert coerced == []
        assert p * True == p and (p * False).terms == {} and True * p == p
        assert M * True == M and M + True == M + 1 and not M * False
        assert coerced and all(type(v) is bool for v in coerced)

    def test_json_strings_are_the_fraction_strings(self):
        p = MPoly({(0, 0): MUniPoly((0, 3, 0, Fraction(-4, 6))), (1, 2): MUniPoly((7, -2)),
                   (2, 0): MUniPoly((Fraction(5, 10), 0, 0, 1)), (3, 3): M * 0 + Fraction(-8, 12)})
        assert p.to_json_obj() == reference_json(p)
        assert p.to_json_obj()[0]["coeff"] == ["0/1", "3/1", "0/1", "-2/3"]
        assert p.to_json_obj()[1]["coeff"] == ["7/1", "-2/1"]
        rng = random.Random(20261021)
        for _ in range(100):
            q = kernel_operand(rng) * kernel_operand(rng)
            assert q.to_json_obj() == reference_json(q)


class TestSubstituteFm:
    def test_rank_one(self):
        F = MPoly({(1, 0): M, (0, 1): MUniPoly.const(1), (0, 0): MUniPoly.const(1)})
        out = substitute_fm(F, 1)
        expected = MPoly({(1, 1): M, (1, 0): M, (0, 0): MUniPoly.const(1)})
        assert out == expected

    def test_constant(self):
        assert substitute_fm(MPoly.const(1), 0) == MPoly.const(1)

    def test_degree_error(self):
        with pytest.raises(DegreeError):
            substitute_fm(MPoly.term(2, 1), 2)
        with pytest.raises(DegreeError):
            substitute_fm(f_closed(ir("B3")), 2)

    @pytest.mark.parametrize(
        "s",
        [f"A{n}" for n in range(1, 9)]
        + [f"B{n}" for n in range(2, 9)]
        + [f"D{n}" for n in range(4, 9)]
        + [f"I2({a})" for a in (3, 4, 5, 6, 7, 8, 12)]
        + ["H3", "H4", "F4", "E6", "E7", "E8", "A2xB2"],
    )
    def test_matches_monomial_products_on_the_catalog(self, s):
        t = ir(s)
        F = f_closed(t)
        for n in (t.rank, t.rank + 1):
            assert substitute_fm(F, n) == substitute_fm_by_products(F, n)

    def test_matches_monomial_products_on_random_triangles(self):
        rng = random.Random(4242)
        for _ in range(60):
            n = rng.randint(0, 5)
            F = MPoly(
                {
                    (k, rng.randint(0, n - k)): MUniPoly(
                        Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(rng.randint(0, 3))
                    )
                    for k in (rng.randint(0, n) for _ in range(rng.randint(0, 6)))
                }
            )
            assert F.total_degree <= n
            assert substitute_fm(F, n) == substitute_fm_by_products(F, n)

    def test_multiplicative_across_rank_split(self):
        rng = random.Random(99)
        for _ in range(20):
            f = random_mpoly(rng, max_deg=1)
            g = random_mpoly(rng, max_deg=1)
            n1 = f.total_degree + rng.randint(0, 1)
            n2 = g.total_degree + rng.randint(0, 1)
            lhs = substitute_fm(f * g, n1 + n2)
            rhs = substitute_fm(f, n1) * substitute_fm(g, n2)
            assert lhs == rhs

    def test_linear_in_the_triangle(self):
        rng = random.Random(123)
        for _ in range(20):
            f = random_mpoly(rng, max_deg=2)
            g = random_mpoly(rng, max_deg=2)
            n = max(f.total_degree, g.total_degree, 0)
            assert substitute_fm(f + g, n) == substitute_fm(f, n) + substitute_fm(g, n)
