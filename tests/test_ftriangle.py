"""F-triangles: closed forms, recurrence, row sums, positivity, duals."""

import hashlib
from fractions import Fraction
from math import comb, prod

import pytest

from catwb.cli import RECURRENCE_TYPES
from catwb.exactmath import M, MPoly, MUniPoly, gen_binomial
from catwb.ftriangle import (
    check_recurrence,
    dual_f_triangle,
    f_closed,
    face_number_a,
    face_number_b,
    face_number_d,
    narayana_closed,
    refined_face_number,
    row_sum,
    row_sum_closed,
    verify_dual,
    _narayana_weighted,
    _triangle_from_rows,
)
from catwb.ncposet import rank_census
from catwb.rootdata import degrees_irr, fuss_catalan, ir

import closed_form_reference as ref
from golden import GOLDEN_F_EXCEPTIONAL, golden_f_i2

ALL_TYPES = (
    [f"A{n}" for n in range(1, 9)]
    + [f"B{n}" for n in range(2, 9)]
    + [f"D{n}" for n in range(4, 9)]
    + [f"I2({a})" for a in (5, 6, 7, 10)]
    + ["H3", "H4", "F4", "E6", "E7", "E8"]
)


class TestClosedForms:
    def test_a1(self):
        assert f_closed(ir("A1")) == MPoly({(1, 0): M, (0, 1): MUniPoly.const(1), (0, 0): MUniPoly.const(1)})

    def test_i2_matches_display(self):
        for a in range(5, 11):
            assert f_closed(ir(f"I2({a})")) == golden_f_i2(a)

    def test_i2_aliases_collapse(self):
        assert golden_f_i2(3) == f_closed(ir("A2"))
        assert golden_f_i2(4) == f_closed(ir("B2"))

    def test_exceptional_match_display(self):
        for name, expected in GOLDEN_F_EXCEPTIONAL.items():
            assert f_closed(ir(name)) == expected, name

    def test_refined_face_numbers(self):
        assert refined_face_number(ir("A1"), 0, 0) == MUniPoly.const(1)
        # k = 2, l = 0 in rank 2 of the A family
        expected = gen_binomial(3 * M + 1, 2)
        assert refined_face_number(ir("A2"), 2, 0) == expected / 3 * 1
        assert refined_face_number(ir("D4"), 0, 0) == MUniPoly.const(1)
        assert refined_face_number(ir("D4"), 1, 0) == 12 * M  # m * number of positive roots
        assert refined_face_number(ir("H3"), 1, 0) == 15 * M

    def test_multiplicativity(self):
        lhs = f_closed(ir("B3") * ir("A2"))
        assert lhs == f_closed(ir("B3")) * f_closed(ir("A2"))

    def test_d_family_aliases(self):
        raw_d2 = _triangle_from_rows(2, lambda k, l: face_number_d(2, k, l))
        raw_d3 = _triangle_from_rows(3, lambda k, l: face_number_d(3, k, l))
        assert raw_d2 == f_closed(ir("A1xA1"))
        assert raw_d3 == f_closed(ir("A3"))

    @pytest.mark.parametrize("s", ALL_TYPES)
    def test_positivity_and_shape(self, s):
        t = ir(s)
        F = f_closed(t)
        assert F.total_degree <= t.rank
        assert F.coeff(0, 0) == MUniPoly.const(1)
        for _, _, c in F.iter_terms():
            assert c.is_nonneg()

    @pytest.mark.parametrize("s", ALL_TYPES)
    def test_linear_coefficients_count_roots(self, s):
        # one-element faces: positive ones are counted m per positive root,
        # negative ones once per simple root
        from catwb.rootdata import positive_root_count

        t = ir(s)
        F = f_closed(t)
        assert F.coeff(1, 0) == M * positive_root_count(t)
        assert F.coeff(0, 1) == MUniPoly.const(t.rank)


CLASSICAL_TYPES = [s for s in ALL_TYPES if s[0] in "ABD"]


class TestAgainstTheFractionForms:
    """The integer numerator rows against the Fraction and m-polynomial
    arithmetic of tests/closed_form_reference.py, coefficient by
    coefficient."""

    @pytest.mark.parametrize("s", CLASSICAL_TYPES)
    def test_face_numbers(self, s):
        t = ir(s)
        f = t.single()
        n = f.rank
        face = {"A": face_number_a, "B": face_number_b, "D": face_number_d}[f.family]
        for k in range(n + 1):
            for l in range(n + 1 - k):
                nums, den = face(n, k, l)
                assert MUniPoly(Fraction(a, den) for a in nums) == ref.FACE_NUMBERS[f.family](n, k, l), (k, l)
        expected = {(k, l): ref.FACE_NUMBERS[f.family](n, k, l) for k in range(n + 1) for l in range(n + 1 - k)}
        assert f_closed(t).terms == {key: c for key, c in expected.items() if c}

    @pytest.mark.parametrize("s", [s for s in CLASSICAL_TYPES if s[0] != "D"])
    def test_narayana_vectors(self, s):
        assert narayana_closed(ir(s)) == ref.narayana_closed(ir(s))

    @pytest.mark.parametrize("s", ["A1", "A2", "A3", "A4", "B2", "B3", "B4"])
    def test_symbolic_narayana_weighting(self, s):
        t = ir(s)
        nar = ref.narayana_closed(t)
        nar1 = tuple(e.eval(1) for e in nar)
        assert _narayana_weighted(t, nar, nar1).terms == ref.narayana_weighted(t, nar, nar1).terms

    def test_weighting_by_rational_vectors(self):
        t = ir("B3")
        nar_m = (M / 3 + 1, Fraction(5, 7), -2 * M * M, MUniPoly.const(Fraction(-1, 6)))
        nar_1 = (Fraction(3, 2), Fraction(-4, 5), 7, Fraction(-9, 4))
        assert _narayana_weighted(t, nar_m, nar_1).terms == ref.narayana_weighted(t, nar_m, nar_1).terms

    @pytest.mark.parametrize("s,m", [("I2(5)", 2), ("H3", 3), ("D4", 1), ("D4", 2), ("B3", 2)])
    def test_census_narayana_weighting(self, s, m):
        t = ir(s)
        nar_m, nar_1 = rank_census(t, m), rank_census(t, 1)
        assert _narayana_weighted(t, nar_m, nar_1).terms == ref.narayana_weighted(t, nar_m, nar_1).terms


CLOSED_ROW_TYPES = ALL_TYPES + ["I2(3)", "I2(4)", "I2(12)", "A2xB2", "A1xH3", "D4xI2(5)"]


class TestClosedFormRows:
    """Rows of every F-triangle against closed forms in m, at m = 0..5."""

    @pytest.mark.parametrize("s", CLOSED_ROW_TYPES)
    def test_facets_count_the_fuss_catalan_number(self, s):
        t = ir(s)
        n = t.rank
        for m in range(6):
            F = f_closed(t).eval_m(m)
            assert sum(F.coeff(n - l, l).constant_value() for l in range(n + 1)) == fuss_catalan(t, m)

    @pytest.mark.parametrize("s", CLOSED_ROW_TYPES)
    def test_top_row_is_the_positive_fuss_catalan_number(self, s):
        # f_{n,0}(m) = prod over the degrees d_i of each factor of (m h + d_i - 2) / d_i
        t = ir(s)
        for m in range(6):
            positive = prod(
                Fraction(m * max(degrees_irr(f)) + d - 2, d) for f in t.factors for d in degrees_irr(f)
            )
            assert f_closed(t).eval_m(m).coeff(t.rank, 0).constant_value() == positive

    @pytest.mark.parametrize("s", CLOSED_ROW_TYPES)
    def test_no_positive_root_gives_one_plus_y_to_the_rank(self, s):
        t = ir(s)
        for m in range(6):
            F = f_closed(t).eval_m(m)
            assert {l: c for (k, l), c in F.terms.items() if k == 0} == {
                l: MUniPoly.const(comb(t.rank, l)) for l in range(t.rank + 1)
            }


class TestRecurrence:
    @pytest.mark.parametrize("s", ["A4", "B4", "D5", "I2(8)", "H4", "E6"])
    def test_spot(self, s):
        assert check_recurrence(ir(s)).equal

    def test_a3_explicit(self):
        # derivative equals twice the rank-2 triangle plus the split product
        lhs = f_closed(ir("A3")).diff_y()
        rhs = 2 * f_closed(ir("A2")) + f_closed(ir("A1xA1"))
        assert lhs == rhs


class TestRowSums:
    def test_k0(self):
        assert row_sum(ir("A5"), 0) == MUniPoly.const(1)

    def test_b2_top(self):
        assert row_sum(ir("B2"), 2) == (M + 1) * (2 * M + 1)

    def test_d4_top(self):
        expected = gen_binomial(3 * M + 4, 4) + gen_binomial(3 * M + 3, 4)
        assert row_sum(ir("D4"), 4) == expected

    @pytest.mark.parametrize("s", ["A4", "B4", "D5"])
    def test_matches_closed(self, s):
        t = ir(s)
        for k in range(t.rank + 1):
            assert row_sum(t, k) == row_sum_closed(t, k)


def dual_by_products(F, n):
    """(-1)^n F(-1-x, -1-y) as a sum over the monomials of F of products of
    MPoly powers: x^k y^l -> (-1-x)^k (-1-y)^l."""
    x, y = MPoly.x(), MPoly.y()
    out = MPoly.zero()
    for (k, l), c in F.terms.items():
        out = out + (-1 - x) ** k * (-1 - y) ** l * c
    return -out if n % 2 else out


class TestDual:
    def test_a1_dual_triangle(self):
        out = dual_f_triangle(ir("A1"))
        assert out == MPoly({(0, 0): M, (1, 0): M, (0, 1): MUniPoly.const(1)})

    @pytest.mark.parametrize("s", RECURRENCE_TYPES)
    def test_matches_monomial_products(self, s):
        t = ir(s)
        assert dual_f_triangle(t) == dual_by_products(f_closed(t), t.rank)

    @pytest.mark.parametrize("s", ["A1", "A2", "A3", "A4", "B2", "B3", "B4"])
    def test_symbolic(self, s):
        assert verify_dual(ir(s)).equal

    def test_census_mode(self):
        assert verify_dual(ir("I2(5)"), 2).equal
        assert verify_dual(ir("H3"), 2).equal
        assert verify_dual(ir("H3"), 3).equal
        assert verify_dual(ir("D4"), 1).equal

    def test_census_mode_d4_discrepancy(self):
        """The displayed Narayana-ratio identity fails for D4 at m >= 2: the
        ratio of the two sides is not constant along the k+l = 2 diagonal
        (e.g. 642/141 vs 192/42 vs 27/6 at m = 2), so no rank census can
        satisfy it.  The faithful check reports the inequality."""
        rep = verify_dual(ir("D4"), 2)
        assert not rep.equal
        diff = rep.diff
        assert (diff["dx"], diff["dy"]) == (0, 2)
        # the weighted side carries the non-integral value (111/24) * 6 = 111/4
        assert diff["rhs"] == ["111/4"]
        assert diff["lhs"] == ["27"]

    @pytest.mark.parametrize("s,m", [("A3", None), ("H3", 2), ("D4", 1), ("D4", 2), ("D4", 3)])
    def test_report_hashes(self, s, m):
        """A report hashes each side's canonical dump; an equal report dumps
        once, and criterion 10's red cases keep two different hashes."""
        rep = verify_dual(ir(s), m)
        obj = rep.to_json_obj()
        for side in ("lhs", "rhs"):
            dump = getattr(rep, side).dumps().encode()
            assert obj[f"{side}_hash"] == hashlib.sha256(dump).hexdigest()
        assert (obj["lhs_hash"] == obj["rhs_hash"]) == rep.equal == (s != "D4" or m == 1)

    def test_narayana_positive(self):
        for s in ("A3", "B3"):
            vec = narayana_closed(ir(s))
            for mv in (1, 2, 3):
                values = [e.eval(mv) for e in vec]
                assert all(v > 0 for v in values)
            # the top entry counts the unique maximal element
            assert vec[-1] == MUniPoly.const(1)

    def test_narayana_minimal_count(self):
        # rank-0 entry counts minimal elements: the Fuss-Catalan numerator form
        vec = narayana_closed(ir("A2"))
        assert vec[1].eval(2) == 6  # rank-1 count at m = 2
