"""m-divisible posets: construction, censuses, M-triangles both ways."""

import hashlib
import itertools
import json
import random
from collections import Counter
from functools import cached_property
from operator import mul

import pytest

from catwb.cli import CHAINS_GRID, FM_BRUTE_TYPES
from catwb.errors import BudgetExceeded, InvalidArgument, InvariantError
from catwb.exactmath import MPoly
from catwb.fmverify import verify_fm
from catwb.ftriangle import narayana_closed, row_sum
from catwb import ncposet
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
from catwb.rootdata import degrees_irr, fuss_catalan, ir
from catwb.wgroup import NCCore, _build_nc, _type_table, build_nc, chain_counts_classical

import closed_form_reference as ref
from mobius_reference import reference_m_triangle
from mpoly_reference import M, gen_binomial, reference_m_triangle_formula
from oracle import (
    _iter_bits,
    chain_count_brute,
    digit_conjugates,
    down,
    leq,
    ncm_pair_sweep,
    ncm_tuples,
    per_element_m_triangle,
    poset_m_triangle,
    zeta_poly,
)

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
            for q in _iter_bits(down(core.poset)[p]):
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

# the nine posets of perfbench's ncm-sweep workload
SWEEP_CASES = [("A6", 2), ("A5", 3), ("D4", 6), ("B4", 4), ("A4", 5), ("F4", 3), ("H3", 6), ("D5", 2), ("B5", 2)]

# sha256 of the JSON list [firsts, keys, conjugates] of build_ncm(t, m), taken
# from the build that sorted every element's links by quotient on each build
NCM_COLUMNS_SHA256 = {
    "A6/2": "f6cb84c8e3c826a1897f1d4ce36c3a61555d239e2887f79a9f0e3435572fa425",
    "A5/3": "8bf24f895eb7ffd5eac426942f849240dde1709c7816864010aaf34109daac0d",
    "D4/6": "87a888fdf3a6d98b0a1a63dd3df08092f3d9a7159dcdb8b0d2f7f6b10b6d365a",
    "B4/4": "33684b013b5bccd52359729cba808e316bef4bdd2b9adf28a77a6fea0185c0f1",
    "A4/5": "efda3532951fd38e92d35e0af2d0619dda8f5591195c33dca0edbc286159a51d",
    "F4/3": "d3bcacf0a2272380df8b7ffd554b668c23f341ec3337f6976232174ab193cf69",
    "H3/6": "c95d836f1ed00376e673d10aa7998bbcdbeca05869bd3741d927173dd7b2fff1",
    "D5/2": "65db32822b9fddcbef648b0856361c082e1ea4a6e7904d1b6dbf52977503779c",
    "B5/2": "e7e9f803fc55204d1c77dd66dd4c75e68b0fd10f11d9e095dc4811117b4f83df",
}

# the orbit sweep against the per-element sweep: the oracle cases, types
# where w_0 = -1 (so c^(h/2) is central and orbits have at most h/2
# elements) at m >= 2, and an even dihedral type; the two largest benchmark
# posets are in test_transform_matches_the_pair_sweep
ORBIT_CASES = ORACLE_CASES + [("B4", 4), ("F4", 2), ("F4", 3), ("I2(10)", 4)]


def without(ncm: NCmPoset, k: int) -> NCmPoset:
    """NC^m with element k cut from each of its three columns."""
    columns = (ncm.firsts, ncm.keys, ncm.conjugates)
    return NCmPoset(ncm.type, ncm.m, ncm.core, *([x for i, x in enumerate(seq) if i != k] for seq in columns))


def conjugate_positions(ncm: NCmPoset) -> list[int]:
    """For each element, the position of (c w_0 c^-1; c w_1 c^-1, ...),
    conjugated digit by digit on the decoded tuples, w_0 included."""
    sigma = ncm.core.sigma
    index = {delta: k for k, delta in enumerate(ncm.elements)}
    return [index[tuple(sigma[d] for d in delta)] for delta in ncm.elements]


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
                assert leq(p.poset, i, j) == leq(core.poset, index_map[i], index_map[j])

    def test_i2_5_m2_census(self):
        p = build_ncm(ir("I2(5)"), 2)
        assert p.size == 18
        assert p.poset.rank_counts() == [7, 10, 1]
        assert row_sum(ir("I2(5)"), 2).eval(2) == 18

    @pytest.mark.parametrize(
        "s,m",
        [(s, m) for s in ("A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "D4", "D5", "F4", "H3", "I2(5)") for m in (1, 2, 3)]
        + SWEEP_CASES,
    )
    def test_the_walk_lists_the_sorted_tuples(self, s, m):
        # the quotient-sorted walk against the tuples built, sorted and keyed in separate passes
        p = build_ncm(ir(s), m, poset_cap=2 * 10**8)
        assert (p.elements, p.ranks, list(p.keys)) == ncm_tuples(p.core, m)

    @pytest.mark.parametrize("s,m", SWEEP_CASES)
    def test_the_columns_are_pinned(self, s, m):
        p = build_ncm(ir(s), m, poset_cap=2 * 10**8)
        blob = json.dumps([list(p.firsts), list(p.keys), list(p.conjugates)])
        assert hashlib.sha256(blob.encode()).hexdigest() == NCM_COLUMNS_SHA256[f"{s}/{m}"]

    def test_the_walk_sorts_nothing(self, monkeypatch):
        # the core keeps its rows in the quotient order the walk reads
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return sorted(*args, **kwargs)

        for s, m in SWEEP_CASES:
            build_nc(ir(s))
        _build_ncm.cache_clear()
        monkeypatch.setitem(vars(ncposet), "sorted", counted)
        for s, m in SWEEP_CASES:
            build_ncm(ir(s), m, poset_cap=2 * 10**8)
        assert calls == []

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
        assert p.m_triangle() == ncm_pair_sweep(p) == per_element_m_triangle(p)

    @pytest.mark.parametrize("s,m", ORBIT_CASES)
    def test_the_orbit_sweep_matches_the_per_element_sweep(self, s, m):
        p = build_ncm(ir(s), m, poset_cap=2 * 10**8)
        assert p.m_triangle() == per_element_m_triangle(p) == ncm_pair_sweep(p)

    def test_the_orbit_sweep_on_e7_with_the_caps_raised(self):
        p = build_ncm(ir("E7"), 1, group_cap=10**7, poset_cap=10**8)
        assert p.m_triangle() == per_element_m_triangle(p) == ncm_pair_sweep(p)

    @pytest.mark.parametrize(
        "s,m", [("A3", 2), ("B3", 3), ("D4", 6), ("F4", 2), ("H3", 3), ("I2(8)", 3), ("A6", 2)]
    )
    def test_the_walk_carries_the_conjugates(self, s, m):
        # the walk's column, the derivation from the keys, and the decoded tuples agree
        p = build_ncm(ir(s), m, poset_cap=2 * 10**8)
        assert list(p.conjugates) == digit_conjugates(p) == [p.keys[j] for j in conjugate_positions(p)]
        assert p.conjugates.typecode == p.keys.typecode

    @pytest.mark.parametrize("s,m", [("A3", 2), ("B3", 2), ("D4", 3), ("F4", 2), ("H3", 3), ("I2(8)", 3), ("I2(7)", 2)])
    def test_each_pass_solves_one_element_per_orbit(self, s, m):
        # a solve reads coordinate i of its key once; keys that count those
        # reads show that each pass solves the representatives alone
        t = ir(s)
        p = build_ncm(t, m)
        solves = Counter()

        class Key(int):
            def __floordiv__(self, scale):
                solves[int(self)] += 1
                return int(self) // scale

        counted = NCmPoset(t, m, p.core, p.firsts, [Key(key) for key in p.keys], p.conjugates)
        assert counted.m_triangle() == p.m_triangle()
        at, reps, sizes = p.orbits()
        assert solves == {p.keys[k]: m for k in reps}
        assert sum(sizes) == fuss_catalan(t, m)
        # the orbits against the conjugates of the decoded tuples
        after = conjugate_positions(p)
        for o, (k, size) in enumerate(zip(reps, sizes)):
            orbit = [k]
            while after[orbit[-1]] != k:
                orbit.append(after[orbit[-1]])
            assert len(orbit) == size and min(orbit) == k
            assert {at[p.keys[j]] for j in orbit} == {o}
        assert max(sizes) <= max(degrees_irr(t.single()))

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
        # the sweep goes by orbit and by rank, not by stored order, so a
        # shuffled list is never refused; the conjugates are the walk's, or
        # derived from the keys
        p = build_ncm(ir(s), m)
        order = list(range(p.size))
        random.Random(seed).shuffle(order)
        columns = (p.firsts, p.keys, p.conjugates if seed % 2 else digit_conjugates(p))
        shuffled = NCmPoset(p.type, m, p.core, *([seq[k] for k in order] for seq in columns))
        assert shuffled.m_triangle() == reference_m_triangle(p.poset)

    def test_the_brute_witness_reads_no_formula_memo(self):
        # the brute side must stay independent of the type tables, which every formula path reads
        _type_table.cache_clear()
        m_triangle_bruteforce(ir("B3"), 2)
        assert verify_fm(ir("B3"), "brute", 2).equal
        assert _type_table.cache_info().currsize == 0

    def test_sweep_and_census_derive_no_up_lists(self):
        t = ir("B3")
        _build_ncm.cache_clear()
        m_triangle_bruteforce(t, 2)
        p = build_ncm(t, 2)
        assert "poset" not in vars(p)
        assert rank_census(t, 2) == tuple(p.poset.rank_counts())
        rank_census(t, 3)
        assert "poset" not in vars(build_ncm(t, 3))

    def test_the_down_sets_are_transposed_once_per_core(self, monkeypatch):
        # every m_triangle and every derived up-list of a type reads one table of its core
        built = []
        transpose = NCCore.lower.func

        def counted(core):
            built.append(core.type)
            return transpose(core)

        lower = cached_property(counted)
        lower.__set_name__(NCCore, "lower")
        monkeypatch.setattr(NCCore, "lower", lower)
        _build_nc.cache_clear()
        _build_ncm.cache_clear()
        t = ir("B3")
        for m in (1, 2, 3):
            m_triangle_bruteforce(t, m)
        build_ncm(t, 2).poset
        assert built == [t]
        assert all(build_ncm(t, m).core is build_nc(t) for m in (1, 2, 3))

    def test_sweep_and_census_decode_no_tuples(self):
        t = ir("B3")
        _build_ncm.cache_clear()
        m_triangle_bruteforce(t, 2)
        rank_census(t, 2)
        assert "elements" not in vars(build_ncm(t, 2))

    @pytest.mark.parametrize("rank", [1, 2])
    def test_a_missing_element_is_refused(self, rank):
        # an element of positive rank lies above a minimal one, so its key is
        # in the product of that minimal element's down-lists; each element is
        # its own conjugate here, so each is its own orbit and the refusal
        # comes from the lowering step, not from a conjugate
        p = build_ncm(ir("B3"), 2)
        k = p.ranks.index(rank)
        firsts, keys = ([x for i, x in enumerate(seq) if i != k] for seq in (p.firsts, p.keys))
        cut = NCmPoset(p.type, p.m, p.core, firsts, keys, keys)
        assert set(cut.orbits()[2]) == {1}
        with pytest.raises(InvariantError, match=rf"NC\^2\(B3\): {p.keys[k]} lies above an element"):
            cut.m_triangle()
        with pytest.raises(InvariantError, match=rf"NC\^2\(B3\): key {p.keys[k]} lies above an element"):
            cut.poset

    def test_a_missing_element_reached_only_by_conjugation_is_refused(self):
        # a minimal element lies above no element, so no lowered key reaches
        # it; one stored after its orbit's representative is reached only as
        # the conjugate of another element of its orbit
        p = build_ncm(ir("B3"), 2)
        at, reps, _ = p.orbits()
        k = next(k for k, key in enumerate(p.keys) if p.ranks[k] == 0 and reps[at[key]] != k)
        message = rf"NC\^2\(B3\): {p.keys[k]} lies above an element or is the conjugate of one, but is no element"
        with pytest.raises(InvariantError, match=message):
            without(p, k).m_triangle()

    def test_a_missing_fixed_point_is_refused_by_the_element_count(self):
        # (e; e, c) is minimal and fixed by conjugation: neither a lowered key
        # nor a conjugate reaches it, and only the count of the elements does
        p = build_ncm(ir("B3"), 2)
        k = list(p.keys).index(p.core.top * p.core.size)
        assert p.ranks[k] == 0 and p.conjugates[k] == p.keys[k]
        with pytest.raises(InvariantError, match=r"NC\^2\(B3\) has 83 elements, Cat\^\(2\) = 84"):
            without(p, k).m_triangle()

    def test_an_orbit_that_does_not_close_within_h_is_refused(self):
        # two orbits of h = 4 elements, joined into one cycle of 8 by
        # exchanging the conjugates of their representatives
        p = build_ncm(ir("A3"), 2)
        at, reps, sizes = p.orbits()
        a, b = [k for k, size in zip(reps, sizes) if size == 4][:2]
        conjugates = list(p.conjugates)
        conjugates[a], conjugates[b] = conjugates[b], conjugates[a]
        joined = NCmPoset(p.type, p.m, p.core, p.firsts, p.keys, conjugates)
        message = rf"NC\^2\(A3\): the orbit of {p.keys[a]} under conjugation by c has not closed after h = 4 steps"
        with pytest.raises(InvariantError, match=message):
            joined.m_triangle()

    def test_a_conjugation_into_another_orbit_is_refused(self):
        # an element whose conjugate lies in an orbit closed before never leads back
        p = build_ncm(ir("A3"), 2)
        at, reps, sizes = p.orbits()
        a, b = [k for k, size in zip(reps, sizes) if size > 1][:2]
        conjugates = list(p.conjugates)
        conjugates[b] = conjugates[a]
        with pytest.raises(InvariantError, match=rf"the orbit of {p.keys[b]} under conjugation by c has not closed"):
            NCmPoset(p.type, p.m, p.core, p.firsts, p.keys, conjugates).m_triangle()

    @pytest.mark.parametrize("s,m", [("I2(10)", 18), ("I2(8)", 22)])
    def test_keys_past_64_bits(self, s, m):
        # |NC|^m passes 2^64, so the keys are kept in a list, not in a 'Q' array
        p = build_ncm(ir(s), m, poset_cap=10**9)
        assert max(p.keys) >= 2**64 and isinstance(p.keys, list) and p.firsts.typecode == "H"
        assert verify_fm(ir(s), "brute", m, poset_cap=10**9).equal

    def test_columns_are_index_arrays(self):
        p = build_ncm(ir("D4"), 6, poset_cap=2 * 10**8)  # keys below 50^6 < 2^64
        assert (p.firsts.typecode, p.keys.typecode) == ("H", "Q")

    def test_unique_maximum(self):
        p = build_ncm(ir("B2"), 3)
        top = p.maximum()
        assert all(leq(p.poset, i, top) for i in range(p.size))

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
                if i != j and leq(p, i, j) and p.ranks[i] == p.ranks[j] - 1
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
            expected = MPoly({(0, 0): m, (1, 1): 1, (0, 1): -m})
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
            assert mt.coeff(ir(s).rank, ir(s).rank) == 1

    @pytest.mark.parametrize("case", BRUTE_SHA256)
    def test_bruteforce_is_pinned(self, case):
        name, m = case.split("/")
        poly = m_triangle_bruteforce(ir(name), int(m))
        assert hashlib.sha256(poly.dumps().encode()).hexdigest() == BRUTE_SHA256[case]

    def test_formula_a1(self):
        assert m_triangle_formula(ir("A1")) == 1 + M * MPoly.term(1, 0) + M * MPoly.term(1, 1)

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
            x, y = MPoly.x(), MPoly.y()
            expected = (
                MPoly.term(2, 0, 1) * (y**2 + a * y + (a - 1)) * M
                + MPoly.term(2, 0, a) * (-y - 1) ** 2 * gen_binomial(M, 2)
                + MPoly.term(1, 0, a) * (-y - 1) * (-1) * M
                + 1
            )
            assert m_triangle_formula(t) == expected


def weak_compositions(n: int) -> list[tuple[int, ...]]:
    """Every composition of n into at most n + 1 non-negative parts."""
    return [
        tuple(b - a - 1 for a, b in zip((-1,) + cut, cut + (n + parts - 1,)))
        for parts in range(1, n + 2)
        for cut in itertools.combinations(range(n + parts - 1), parts - 1)
    ]


def zeta_values(p: NCmPoset, top: int) -> list[int]:
    """Z(k) for k = 2..top, the multichains x_1 <= ... <= x_(k-1) of p: the
    orbit-weighted total of 1 summed over up-sets k - 2 times."""
    sizes = p.orbits()[2]
    values, out = [1] * len(sizes), []
    for _ in range(2, top + 1):
        out.append(sum(map(mul, values, sizes)))
        values = p.up_sums(values)
    return out


class TestUpSums:
    @pytest.mark.parametrize("s,m", CHAINS_GRID)
    def test_chain_counts_match_the_walk_over_the_up_lists(self, s, m):
        p = build_ncm(ir(s), m)
        n = p.type.rank
        for jumps in weak_compositions(n) + [(n + 1, -1), (-1, n + 1), (n, 1, -1), (1, -1, n)]:
            assert p.chain_count(jumps) == chain_count_brute(p.poset, n, jumps), jumps
        with pytest.raises(InvalidArgument, match="sum to the rank"):
            p.chain_count((n, 1))

    @pytest.mark.parametrize("s,m", [("A3", 2), ("B3", 3), ("D4", 1), ("H3", 2)])
    def test_the_sums_of_ones_are_the_up_set_sizes(self, s, m):
        p = build_ncm(ir(s), m)
        at, reps, _ = p.orbits()
        sums = p.up_sums([1] * len(reps))
        assert [sums[at[key]] for key in p.keys] == [len(row) + 1 for row in p.poset.above]

    @pytest.mark.parametrize("s,m", [(s, m) for s in FM_BRUTE_TYPES for m in (1, 2, 3)]
                             + [("F4", 2), ("H4", 2), ("D6", 2), ("E6", 2)])
    def test_the_zeta_polynomial_is_a_fuss_catalan_number(self, s, m):
        # Z(k) = Cat^((k-1)m)(W) (Armstrong, Mem. AMS 2009, 3.6; Chapoton,
        # Sem. Lothar. Combin. 51, 2004, at m = 1), at k = 2 .. n + 2
        t = ir(s)
        p = build_ncm(t, m, poset_cap=10**9)
        assert zeta_values(p, t.rank + 2) == [fuss_catalan(t, (k - 1) * m) for k in range(2, t.rank + 3)]

    def test_the_zeta_polynomial_of_e7(self):
        t = ir("E7")
        p = build_ncm(t, 1, group_cap=10**7, poset_cap=10**9)
        assert zeta_values(p, 9) == [fuss_catalan(t, k - 1) for k in range(2, 10)]

    def test_a_missing_element_is_refused(self):
        # as in TestBuildNcm: each element its own orbit, one of rank 1 cut
        p = build_ncm(ir("B3"), 2)
        k = p.ranks.index(1)
        firsts, keys = ([x for i, x in enumerate(seq) if i != k] for seq in (p.firsts, p.keys))
        cut = NCmPoset(p.type, p.m, p.core, firsts, keys, keys)
        with pytest.raises(InvariantError, match=rf"NC\^2\(B3\): {p.keys[k]} lies above an element but is no"):
            cut.up_sums([1] * cut.size)
        with pytest.raises(InvariantError, match=rf"{p.keys[k]} lies above an element but is no element"):
            cut.chain_count((1, 2, 0))  # sums from rank 2 down to rank 0, which lies below the cut

    def test_chains_are_counted_without_the_up_lists(self):
        t = ir("B3")
        _build_ncm.cache_clear()
        p = build_ncm(t, 2)
        assert [chain_counts_classical(t, 2, j).equal for j in weak_compositions(3)] == [True] * 35
        assert "poset" not in vars(p) and "elements" not in vars(p)


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
                if not leq(p, u, w):
                    continue
                coeffs = zeta_poly(p, u, w)
                mu = sum(c * (-1) ** i for i, c in enumerate(coeffs))
                key = (p.ranks[u], p.ranks[w])
                terms[key] = terms.get(key, 0) + mu
        rebuilt = MPoly({k: v for k, v in terms.items() if v})
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
