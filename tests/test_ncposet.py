"""m-divisible posets: construction, censuses, M-triangles both ways."""

import hashlib
import random

import pytest

from catwb.errors import BudgetExceeded, InvariantError
from catwb.exactmath import M, MPoly, MUniPoly
from catwb.fmverify import verify_fm
from catwb.ftriangle import narayana_closed, row_sum
from catwb.ncposet import (
    NCmPoset,
    build_ncm,
    export_poset_obj,
    m_triangle_bruteforce,
    m_triangle_formula,
    mtriangle_rhs_transform,
    rank_census,
    _build_ncm,
)
from catwb.rootdata import fuss_catalan, ir
from catwb.wgroup import (
    _char_poly,
    _decomposition_numbers,
    _iter_bits,
    _type_table,
    build_nc,
    char_poly,
    decomposition_numbers,
)

import closed_form_reference as ref
from mobius_reference import reference_m_triangle
from mpoly_reference import reference_m_triangle_formula
from oracle import ncm_pair_sweep, poset_m_triangle, zeta_poly

# sha256 of MPoly.dumps() of m_triangle_bruteforce(t, m), taken from the
# sweep over sorted up-lists that preceded the coordinate sweep
BRUTE_SHA256 = {
    "A3/3": "af06696b9aee3789186ff510a48c2bdab90e904a6ab109dc98ca423be1b1c522",
    "B3/2": "47da756e80697f3ddf10205988390c24205c4362501e524dca884f93bb419177",
    "D4/2": "30dc4a25ceb9b2bd70aafd0b3b7a774561d541bf0566596e482e3db55bbf9006",
    "F4/1": "650f24dfb7ef9df067842fa8fbe048ee61c1bca6b58096936419fc477f5da5d3",
    "H3/3": "612f09a6628c55208b8e1c6298c99dd0f3b1c4483438662304077a0478bdd5b4",
    "I2(7)/2": "fc862d0d10075af397c42637568253e31cdd55221179d3382fec10c97283c706",
}


def reference_up_masks(ncm: NCmPoset) -> list[int]:
    """The order of NC^m as bit rows, built coordinate by coordinate and
    independently of the up-lists: up[A] is the intersection over i = 1..m
    of the set of elements B with B[i] <= A[i] in NC."""
    core, elements = ncm.core, ncm.elements
    coord_masks: list[dict[int, int]] = []
    for i in range(1, ncm.m + 1):
        with_coord: dict[int, int] = {}
        for b_idx, delta in enumerate(elements):
            with_coord[delta[i]] = with_coord.get(delta[i], 0) | (1 << b_idx)
        le_mask: dict[int, int] = {}
        for p in range(core.size):
            acc = 0
            for q in _iter_bits(core.poset.down[p]):
                acc |= with_coord.get(q, 0)
            le_mask[p] = acc
        coord_masks.append(le_mask)
    up = []
    for delta in elements:
        mask = coord_masks[0][delta[1]]
        for i in range(2, ncm.m + 1):
            mask &= coord_masks[i - 1][delta[i]]
        up.append(mask)
    return up


ORACLE_CASES = [
    (s, m)
    for s in ["A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "D4", "D5", "F4", "H3", "I2(5)", "I2(8)"]
    for m in (1, 2, 3)
    if fuss_catalan(ir(s), m) ** 2 <= 10**7
]


class TestBuildNcm:
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_rank_one(self, m):
        p = build_ncm(ir("A1"), m)
        assert p.size == m + 1
        assert p.poset.rank_counts() == [m, 1]
        assert p.minimal_count() == m

    def test_m1_is_nc(self):
        t = ir("A2")
        core = build_nc(t)
        p = build_ncm(t, 1)
        assert p.size == core.size
        # coordinate-0 mapping is a rank-preserving order isomorphism
        index_map = [delta[0] for delta in p.elements]
        for i in range(p.size):
            assert p.poset.ranks[i] == core.poset.ranks[index_map[i]]
            for j in range(p.size):
                assert p.poset.leq(i, j) == core.poset.leq(index_map[i], index_map[j])

    def test_i2_5_m2_census(self):
        p = build_ncm(ir("I2(5)"), 2)
        assert p.size == 18
        assert p.poset.rank_counts() == [7, 10, 1]
        assert row_sum(ir("I2(5)"), 2).eval(2) == 18

    @pytest.mark.parametrize("s,m", ORACLE_CASES)
    def test_order_matches_coordinate_masks(self, s, m):
        t = ir(s)
        p = build_ncm(t, m, poset_cap=10**7)
        assert p.poset.up == reference_up_masks(p)
        # the related pairs u <= w of NC^m number Cat^(2m)
        assert sum(len(row) + 1 for row in p.poset.above) == fuss_catalan(t, 2 * m)
        assert all(list(row) == sorted(row) and all(j > i for j in row) for i, row in enumerate(p.poset.above))
        # the coordinate transform against the row recursion and the pair sweep on the derived lists
        assert p.m_triangle() == reference_m_triangle(p.poset) == poset_m_triangle(p.poset)

    @pytest.mark.parametrize("s,m", [("D4", 6), ("A6", 2)])
    def test_transform_matches_the_pair_sweep(self, s, m):
        # the two largest posets of perfbench's ncm-sweep workload
        p = build_ncm(ir(s), m, poset_cap=2 * 10**8)
        assert p.m_triangle() == ncm_pair_sweep(p)

    @pytest.mark.parametrize("s,m", [("A2", 3), ("B3", 2), ("D4", 2), ("H3", 3), ("D4", 6)])
    def test_reads_per_coordinate_are_a_fuss_catalan_difference(self, s, m):
        # lowering coordinate i of u to y < u[i] splits u[i] = y (y^-1 u[i]):
        # the pairs (u, y <= u[i]) are the elements of NC^(m+1)
        t = ir(s)
        p = build_ncm(t, m, poset_cap=2 * 10**8)
        downs = p._down_lists()
        for i in range(1, m + 1):
            assert sum(len(downs[delta[i]]) - 1 for delta in p.elements) == fuss_catalan(t, m + 1) - fuss_catalan(t, m)

    @pytest.mark.parametrize("s,m", [("A3", 3), ("B3", 2), ("H3", 2), ("H3", 3)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_a_shuffled_element_list_gives_the_true_triangle_or_is_refused(self, s, m, seed):
        # a walk in stored order would read values that are not yet final
        p = build_ncm(ir(s), m)
        order = list(range(p.size))
        random.Random(seed).shuffle(order)
        shuffled = NCmPoset(p.type, m, p.core, *([seq[k] for k in order] for seq in (p.elements, p.ranks, p.keys)))
        try:
            got = shuffled.m_triangle()
        except InvariantError:
            return
        assert got == reference_m_triangle(p.poset)

    def test_the_brute_witness_reads_no_formula_memo(self):
        # the brute side must stay independent of the type tables behind the formula side
        memos = (_type_table, _decomposition_numbers, _char_poly)
        for memo in memos:
            memo.cache_clear()
        m_triangle_bruteforce(ir("B3"), 2)
        assert verify_fm(ir("B3"), "brute", 2).equal
        assert [memo.cache_info().currsize for memo in memos] == [0, 0, 0]

    def test_sweep_and_census_derive_no_up_lists(self):
        t = ir("B3")
        _build_ncm.cache_clear()
        m_triangle_bruteforce(t, 2)
        p = build_ncm(t, 2)
        assert "poset" not in vars(p)
        assert rank_census(t, 2) == tuple(p.poset.rank_counts())
        rank_census(t, 3)
        assert "poset" not in vars(build_ncm(t, 3))

    @pytest.mark.parametrize("rank", [1, 2])
    def test_a_missing_element_is_refused(self, rank):
        # an element of positive rank lies above a minimal one, so its key is
        # in the product of that minimal element's down-lists
        p = build_ncm(ir("B3"), 2)
        k = p.ranks.index(rank)
        cut = NCmPoset(p.type, p.m, p.core, *([x for i, x in enumerate(seq) if i != k] for seq in (p.elements, p.ranks, p.keys)))
        with pytest.raises(InvariantError, match=rf"NC\^2\(B3\): {p.keys[k]} lies above an element"):
            cut.m_triangle()
        with pytest.raises(InvariantError, match=rf"NC\^2\(B3\): key {p.keys[k]} lies above an element"):
            cut.poset

    def test_unique_maximum(self):
        p = build_ncm(ir("B2"), 3)
        top = p.maximum()
        assert all(p.poset.leq(i, top) for i in range(p.size))

    @pytest.mark.parametrize("s,m", [("B2", 2), ("A3", 2), ("I2(5)", 3)])
    def test_ground_set_definition(self, s, m):
        # every delta tuple multiplies out to the Coxeter element with
        # additive reflection lengths, and rank is the length of slot zero
        t = ir(s)
        p = build_ncm(t, m)
        from catwb.wgroup import enumerate_group, walk_nc

        g = enumerate_group(t.single())
        mul = g.backend.mul
        elements = walk_nc(t)[1]
        for idx, delta in enumerate(p.elements):
            words = [elements[i] for i in delta]
            prod = words[0]
            for w in words[1:]:
                prod = mul(prod, w)
            assert prod == g.coxeter
            assert sum(g.abs_length_of(w) for w in words) == t.rank
            assert p.poset.ranks[idx] == g.abs_length_of(words[0])

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            build_ncm(ir("A3"), 3, poset_cap=100)

    def test_memo_ignores_caps(self):
        # the caps are checked up front; the memoised results are keyed by the mathematics
        t = ir("D4")
        assert build_ncm(t, 2) is build_ncm(t, 2, group_cap=100_000, poset_cap=2_000_000)
        assert build_nc(t) is build_nc(t, group_cap=100_000)
        assert decomposition_numbers(t) is decomposition_numbers(t, group_cap=100_000)
        assert char_poly(t) is char_poly(t, group_cap=100_000)

    @pytest.mark.parametrize("s,m", [("A2", 2), ("B2", 2), ("I2(5)", 3)])
    def test_graded(self, s, m):
        # every element of positive rank has a lower cover one rank down
        p = build_ncm(ir(s), m).poset
        for j in range(p.size):
            if p.ranks[j] == 0:
                continue
            covers = [
                i
                for i in range(p.size)
                if i != j and p.leq(i, j) and p.ranks[i] == p.ranks[j] - 1
            ]
            assert covers, f"element {j} has no lower cover"


class TestRankCensus:
    @pytest.mark.parametrize("s,m", [("A2", 2), ("A3", 2), ("B2", 3), ("B3", 2)])
    def test_matches_closed_formula(self, s, m):
        t = ir(s)
        vec = rank_census(t, m)
        closed = [e.eval(m) for e in narayana_closed(t)]
        assert list(vec) == closed

    def test_a2_m2_rank1(self):
        assert rank_census(ir("A2"), 2)[1] == 6

    def test_census_total_equals_top_row_sum(self):
        for s, m in [("A2", 3), ("B2", 2), ("D4", 2), ("H3", 2), ("I2(6)", 3)]:
            t = ir(s)
            total = sum(rank_census(t, m))
            assert total == row_sum(t, t.rank).eval(m)


class TestMTriangles:
    def test_a1_bruteforce(self):
        for m in (1, 2, 3, 4):
            mt = m_triangle_bruteforce(ir("A1"), m)
            expected = MPoly(
                {(0, 0): MUniPoly.const(m), (1, 1): MUniPoly.const(1), (0, 1): MUniPoly.const(-m)}
            )
            assert mt == expected

    def test_a2_m1(self):
        mt = m_triangle_bruteforce(ir("A2"), 1)
        x, y = MPoly.x(), MPoly.y()
        expected = 1 - 3 * y + 2 * y**2 + 3 * x * y - 3 * x * y**2 + x**2 * y**2
        assert mt == expected

    def test_const_term_counts_minimals(self):
        for s, m in [("A2", 2), ("B2", 3), ("I2(7)", 2)]:
            p = build_ncm(ir(s), m)
            mt = m_triangle_bruteforce(ir(s), m)
            assert mt.coeff(0, 0).constant_value() == p.minimal_count()
            assert mt.coeff(ir(s).rank, ir(s).rank) == MUniPoly.const(1)

    @pytest.mark.parametrize("case", BRUTE_SHA256)
    def test_bruteforce_is_pinned(self, case):
        name, m = case.split("/")
        poly = m_triangle_bruteforce(ir(name), int(m))
        assert hashlib.sha256(poly.dumps().encode()).hexdigest() == BRUTE_SHA256[case]

    def test_formula_a1(self):
        assert m_triangle_formula(ir("A1")) == MPoly(
            {(0, 0): MUniPoly.const(1), (1, 0): M, (1, 1): M}
        )

    @pytest.mark.parametrize("s", ["A2", "A3", "B2", "I2(3)", "I2(4)", "I2(5)", "I2(6)", "H3"])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_formula_matches_bruteforce(self, s, m):
        t = ir(s)
        sym = m_triangle_formula(t).eval_m(m)
        brute = mtriangle_rhs_transform(m_triangle_bruteforce(t, m), t.rank)
        assert sym == brute

    @pytest.mark.parametrize("s,m", [("A3", 2), ("B3", 1), ("D4", 2), ("H3", 2), ("I2(5)", 3)])
    def test_rhs_transform_matches_the_reference(self, s, m):
        t = ir(s)
        mt = m_triangle_bruteforce(t, m)
        assert mtriangle_rhs_transform(mt, t.rank).terms == ref.mtriangle_rhs_transform(mt, t.rank).terms
        sym = m_triangle_formula(t)
        assert mtriangle_rhs_transform(sym, t.rank).terms == ref.mtriangle_rhs_transform(sym, t.rank).terms

    @pytest.mark.parametrize("s", ["A1", "A4", "B3", "B4", "D4", "D5", "F4", "H3", "H4", "I2(5)", "I2(8)", "E6"])
    def test_formula_matches_the_mpoly_sum(self, s):
        assert m_triangle_formula(ir(s)) == reference_m_triangle_formula(ir(s))

    def test_i2_formula_expansion(self):
        # the displayed expansion for the dihedral types
        for a in (4, 7):
            t = ir(f"I2({a})")
            from catwb.exactmath import gen_binomial

            x, y = MPoly.x(), MPoly.y()
            expected = (
                MPoly.term(2, 0, 1) * (y**2 + a * y + (a - 1)) * M
                + MPoly.term(2, 0, a) * (-y - 1) ** 2 * gen_binomial(M, 2)
                + MPoly.term(1, 0, a) * (-y - 1) * (-1) * M
                + 1
            )
            assert m_triangle_formula(t) == expected


class TestZetaRoute:
    @pytest.mark.parametrize("s,m", [("B2", 2), ("A2", 2), ("I2(5)", 2)])
    def test_m_triangle_via_zeta_interpolation(self, s, m):
        # rebuild the M-triangle from multichain counts interpolated at z = -1;
        # fully independent of the Mobius recursion apart from its own assert
        t = ir(s)
        p = build_ncm(t, m).poset
        terms = {}
        for u in range(p.size):
            for w in range(p.size):
                if not p.leq(u, w):
                    continue
                coeffs = zeta_poly(p, u, w)
                mu = sum(c * (-1) ** i for i, c in enumerate(coeffs))
                key = (p.ranks[u], p.ranks[w])
                terms[key] = terms.get(key, 0) + mu
        rebuilt = MPoly({k: MUniPoly.const(v) for k, v in terms.items() if v})
        assert rebuilt == m_triangle_bruteforce(t, m)


class TestExport:
    def test_a2_m1(self):
        obj = export_poset_obj(ir("A2"), 1)
        assert obj["num_elements"] == 5
        assert obj["num_minimal"] == 1
        # hasse edges: identity below three reflections, three reflections below top
        assert len(obj["hasse_edges"]) == 6

    def test_a1_m4(self):
        obj = export_poset_obj(ir("A1"), 4)
        assert obj["num_elements"] == 5
        assert obj["num_minimal"] == 4

    def test_schema(self):
        import json
        import jsonschema
        from pathlib import Path

        schema = json.loads(
            (Path(__file__).parent.parent / "src/catwb/schemas/poset.schema.json").read_text()
        )
        jsonschema.validate(export_poset_obj(ir("B2"), 2), schema)
