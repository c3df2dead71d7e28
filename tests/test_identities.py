"""Convolution-kernel identities and the Chu-Vandermonde helper."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import carlitz_reference as reference
from catwb import identities
from catwb.errors import SingularPoint
from catwb.identities import (
    CarlitzKernel,
    carlitz_7_sides,
    carlitz_8_sides,
    check_carlitz_7,
    check_carlitz_8,
    chu_vandermonde,
    kernel,
    proof_instantiations,
    run_named_cases,
    run_random_suite,
    sum_equals,
)


class TestKernel:
    def test_base_point(self):
        assert kernel(0, 0, 3, 2, a=1, b=1, c=1, d=1) == 1

    def test_spec_value(self):
        # (1*1*2 + 0 + 2)/((2+2)(1+1)) * binom(4,1) * binom(1,0) = 2
        assert kernel(1, 0, 2, 1, a=2, b=1, c=1, d=1) == 2

    def test_mirror_point(self):
        # (0 + 1*1*1 + 2*1)/((1+2)(1+1)) * binom(3,0) * binom(2,1) = 1
        assert kernel(0, 1, 2, 1, a=2, b=1, c=1, d=1) == 1

    def test_singular_raises(self):
        with pytest.raises(SingularPoint):
            kernel(0, 1, 5, -1, a=1, b=1, c=1, d=1)  # second form is 1 - 1 = 0

    def test_extended_value_at_singularity(self):
        ker = CarlitzKernel(1, 1, 1, 1)
        # the removable singularity evaluates to beta
        assert ker.value_extended(0, 1, Fraction(5), Fraction(-1)) == -1
        # and matches the strict kernel off the singular set
        for k in range(3):
            for n in range(3):
                strict = ker.value(k, n, 2, 3)
                assert ker.value_extended(k, n, 2, 3) == strict


class TestConvolutions:
    def test_trivial_point(self):
        params = dict(a=1, b=1, c=1, d=1, alpha=1, beta=1, alpha2=1, beta2=1)
        assert check_carlitz_7(params, 0, 0)
        assert check_carlitz_8(params, 0, 0)

    def test_spot(self):
        params = dict(a=3, b=1, c=2, d=1, alpha=2, beta=1, alpha2=4, beta2=3)
        assert check_carlitz_7(params, 2, 3)
        assert check_carlitz_8(params, 2, 3)

    def test_random_suite_seeded(self):
        res = run_random_suite(seed=7, draws=80)
        assert res.ok
        assert res.passed + res.skipped == 80

    def test_named_cases(self):
        cases = proof_instantiations()
        assert any("family-A" in c["name"] for c in cases)
        assert any(c["extend"] for c in cases)
        res = run_named_cases()
        assert res.ok
        assert res.passed > 400


class TestChuVandermonde:
    def test_examples(self):
        assert chu_vandermonde(2, 2, 2)
        assert chu_vandermonde(-1, 3, 2)
        assert chu_vandermonde(5, 0, 3)

    @given(st.integers(-6, 8), st.integers(-6, 8), st.integers(0, 12))
    def test_holds_for_integer_arguments(self, r, s, k):
        assert chu_vandermonde(r, s, k)

    def test_rational_arguments(self):
        assert chu_vandermonde(Fraction(5, 2), Fraction(-1, 3), 7)


def outcome(fn, *args):
    try:
        return fn(*args)
    except SingularPoint:
        return "singular"


class TestAgainstFractionReference:
    """The integer kernel and checks against the Fraction evaluation they
    replaced (tests/carlitz_reference.py)."""

    @pytest.fixture
    def compared(self, monkeypatch):
        """Route every check the suites make through a comparison with the
        reference, and record the outcomes."""
        seen = []
        for name in ("check_carlitz_7", "check_carlitz_8"):

            def checked(params, k, n, extend=False, mine=getattr(identities, name), ref=getattr(reference, name)):
                got = outcome(mine, params, k, n, extend)
                assert got == outcome(ref, params, k, n, extend), (params, k, n, extend)
                seen.append(got)
                if got == "singular":
                    raise SingularPoint(f"at (k, n) = ({k}, {n})")
                return got

            monkeypatch.setattr(identities, name, checked)
        return seen

    def test_every_random_draw_of_fifty_seeds(self, compared):
        for seed in range(50):
            res = identities.run_random_suite(seed=seed, draws=200)
            assert (res.passed, res.skipped, res.failures) == (200, 0, [])
        assert len(compared) == 50 * 200

    def test_every_named_case(self, compared):
        res = identities.run_named_cases()
        assert len(compared) == res.passed + res.skipped == len(proof_instantiations()) * 16

    @pytest.mark.parametrize("k,n", [(1, 1), (2, 3), (3, 1)])
    def test_wrong_right_hand_sides_fail(self, monkeypatch, k, n):
        # alpha2 = 7 keeps 3k - 2n + alpha2 > 0, so c = -2 meets no singular point
        params = dict(a=3, b=1, c=2, d=1, alpha=2, beta=1, alpha2=7, beta2=3)
        wrong = [
            ("carlitz_7_sides", carlitz_7_sides, {"alpha2": 8}),  # off by one in alpha2
            ("carlitz_8_sides", carlitz_8_sides, {"alpha2": 8}),
            ("carlitz_8_sides", carlitz_8_sides, {"c": -2}),  # the minus sign on the cn shift
        ]
        for name, sides, change in wrong:
            assert sum_equals(*sides(params, k, n))

            def mixed(params, k, n, extend=False, sides=sides, change=change):
                return sides(params, k, n, extend)[0], sides({**params, **change}, k, n, extend)[1]

            monkeypatch.setattr(identities, name, mixed)
            check = identities.check_carlitz_7 if name == "carlitz_7_sides" else identities.check_carlitz_8
            assert not check(params, k, n)
            monkeypatch.undo()

    @settings(max_examples=200, deadline=None)
    @given(
        st.tuples(*[st.integers(-2, 4)] * 4),
        st.integers(0, 4),
        st.integers(0, 4),
        *[st.one_of(st.integers(-10, 6), st.fractions(-6, 6, max_denominator=6))] * 2,
    )
    def test_rational_and_singular_arguments(self, abcd, k, n, alpha, beta):
        ker = CarlitzKernel(*abcd)
        got = outcome(ker.value, k, n, alpha, beta)
        assert got == outcome(reference.value, *abcd, k, n, alpha, beta)
        assert got == outcome(lambda *a: kernel(*a, **dict(zip("abcd", abcd))), k, n, alpha, beta)
        assert ker.value_extended(k, n, alpha, beta) == reference.value_extended(*abcd, k, n, alpha, beta)
        assert type(ker.value_extended(k, n, alpha, beta)) is Fraction
        if got != "singular":
            assert type(got) is Fraction

    def test_singular_points_on_a_grid(self):
        shifts = [-5, -4, -3, -2, -1, 0, 1, Fraction(-3, 2), Fraction(1, 3)]
        singular = 0
        for abcd in [(1, 1, 1, 1), (2, 1, 1, 3), (0, 2, -1, 1)]:
            ker = CarlitzKernel(*abcd)
            for k, n, alpha, beta in itertools.product(range(4), range(4), shifts, shifts):
                got = outcome(ker.value, k, n, alpha, beta)
                assert got == outcome(reference.value, *abcd, k, n, alpha, beta), (abcd, k, n, alpha, beta)
                singular += got == "singular"
                if isinstance(alpha, int) and isinstance(beta, int):  # pairs keep q > 0
                    assert ker.pair(k, n, alpha, beta, extend=True)[1] > 0
                    assert got == "singular" or ker.pair(k, n, alpha, beta)[1] > 0
        assert singular > 100
