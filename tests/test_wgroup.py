"""Reflection-group engine: enumeration, absolute order, NC posets, Mobius
machinery, classification, decomposition numbers, chain counts."""

import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
from collections import Counter
from math import factorial
from pathlib import Path

import pytest

from catwb import wgroup
from catwb.errors import BudgetExceeded, InvalidArgument, InvariantError
from catwb.exactmath import MPoly
from catwb.fmverify import verify_fm
from catwb.ncposet import build_ncm
from catwb.rootdata import degrees_irr, group_order, ir
from catwb.wgroup import (
    Poset,
    RootPermBackend,
    TypeTable,
    build_nc,
    chain_count_formula,
    chain_counts_classical,
    char_poly,
    decomposition_numbers,
    enumerate_group,
    parabolic_type_of,
    walk_nc,
    _type_table,
)

import closed_form_reference as ref
from golden import GOLDEN_CHAR, golden_char_i2, golden_decomp_i2, GOLDEN_DECOMP
from decomposition_reference import reference_decomposition_counts
from mobius_reference import reference_m_triangle
from oracle import (
    NotComparable,
    _iter_bits,
    abs_leq,
    abs_length,
    chain_count_brute,
    core_dump,
    coxeter_element,
    down,
    interval_rank_genfun,
    leq,
    mobius,
    mobius_column_vectors,
    nc_rank_genfun,
    per_element_rows,
    poset_m_triangle,
    type_table_from_core,
    zeta_poly,
)

SMALL_GROUPS = ["A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "D4", "D5", "H3", "F4"] + [
    f"I2({a})" for a in range(3, 11)
]

# every type whose core the tests build, for the type-table checks
TABLE_TYPES = [f"A{n}" for n in range(1, 7)] + [f"B{n}" for n in range(2, 6)] + [
    "D4", "D5", "D6", "F4", "H3", "H4", "E6", "I2(3)", "I2(5)", "I2(8)"
]

# sha256 of identity + reflections + simple_reflections of RootPermBackend,
# from the build that reflected every root from its coordinates
TABLE_DIGESTS = {
    "E6": "f873659e3c43e4d8826dda92aab1dbc11f37ffe5c46b1697d38bb4efce07aaad",
    "E7": "d087c80403123c01c38f2cce2779ba2f09603d16afe0683c86255dc105877d92",
    "E8": "4d1b56bd06c6b26f90d104f1cb315f3e26d65f750f3cd3695078d95fd6c7b68a",
    "F4": "c709bc67b292a132e1c377432932361698aea03de8f13c56ced07a5a6c4ef159",
    "H3": "46055fbf68eeaf8ba7805dd3dc7c455d2e88ff3f391cadaddf01d8169b2b2653",
    "H4": "1333727a74c4d97b29bcfe49c75703a1d945d61902957cfd036408bd423bc760",
    "A15": "f60efc49b52fe231e5d3f6ad790409a90e406da2b4f19e00345edadb60c0189a",
    "B11": "ea14e9ab5f74a558deafbd5471c45950426841cadb3d163dca75a05cae62d614",
    "D11": "bc961378beddad32c320a33fb2589b413d4959f80d093b3bf8525d52994c823a",
}


class TestEnumeration:
    def test_a2(self):
        g = enumerate_group(ir("A2").single())
        assert g.order == 6
        assert len(g.reflections) == 3

    def test_h3(self):
        g = enumerate_group(ir("H3").single())
        assert g.order == 120
        assert len(g.reflections) == 15

    def test_dihedral(self):
        g = enumerate_group(ir("I2(7)").single())
        assert g.order == 14
        assert len(g.reflections) == 7

    @pytest.mark.parametrize("s", SMALL_GROUPS)
    def test_orders_match_catalog(self, s):
        f = ir(s).single()
        assert enumerate_group(f).order == group_order(ir(s))

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            enumerate_group(ir("E7").single())
        with pytest.raises(BudgetExceeded):
            enumerate_group(ir("E6").single(), group_cap=1000)


class TestAbsoluteOrder:
    def test_identity_and_reflections(self):
        g = enumerate_group(ir("B3").single())
        assert abs_length(g, g.backend.identity) == 0
        for t in g.reflections:
            assert abs_length(g, t) == 1

    def test_coxeter_length_f4(self):
        g = enumerate_group(ir("F4").single())
        assert abs_length(g, coxeter_element(g)) == 4

    @staticmethod
    def _assert_nc_step_matches_oracle(g, w, length):
        # rank and reflections below w from nc_step against the BFS lengths
        rank, below, _ = g.backend.nc_step(w)
        assert rank == length
        mul = g.backend.mul
        assert below == [r for r, t in enumerate(g.reflections) if g.abs_length_of(mul(t, w)) == length - 1]

    @pytest.mark.parametrize("s", SMALL_GROUPS)
    def test_methods_agree_full_sweep(self, s):
        g = enumerate_group(ir(s).single())
        if g.order > 2000:
            pytest.skip("covered by the sampled sweep")
        for i, w in enumerate(g.elements):
            self._assert_nc_step_matches_oracle(g, w, g.abs_len[i])

    @pytest.mark.parametrize("s", ["H4", "E6"])
    def test_methods_agree_sampled(self, s):
        g = enumerate_group(ir(s).single())
        rng = random.Random(17)
        for w in rng.sample(g.elements, 500):
            self._assert_nc_step_matches_oracle(g, w, g.abs_length_of(w))

    def test_length_disagreement_raises_under_python_O(self):
        # the BFS oracle is corrupted at the identity; the check must survive -O
        code = (
            "from catwb.errors import InvariantError\n"
            "from catwb.rootdata import ir\n"
            "from catwb.wgroup import enumerate_group\n"
            "from oracle import abs_length\n"
            "g = enumerate_group(ir('A2').single())\n"
            "g.abs_len[g.index[g.backend.identity]] = 1\n"
            "try:\n"
            "    abs_length(g, g.backend.identity)\n"
            "except InvariantError as exc:\n"
            "    print('InvariantError:', exc)\n"
        )
        here = Path(__file__).resolve().parent
        pythonpath = os.pathsep.join(filter(None, [str(here.parent / "src"), str(here), os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-O", "-c", code],
            capture_output=True,
            text=True,
            timeout=120,
            env={**os.environ, "PYTHONPATH": pythonpath},
        )
        assert proc.returncode == 0, proc.stderr
        assert "InvariantError: length methods disagree" in proc.stdout

    def test_abs_leq(self):
        g = enumerate_group(ir("A3").single())
        c = coxeter_element(g)
        e = g.backend.identity
        assert abs_leq(g, e, c)
        assert abs_leq(g, c, c)
        assert not abs_leq(g, c, e)


class TestNCPoset:
    def test_sizes(self):
        assert build_nc(ir("A2")).size == 5
        assert build_nc(ir("B2")).size == 6
        assert build_nc(ir("D4")).size == 50
        assert build_nc(ir("I2(6)")).size == 8

    def test_rank_census_b2(self):
        assert build_nc(ir("B2")).poset.rank_counts() == [1, 4, 1]

    def test_mobius(self):
        core = build_nc(ir("A2"))
        assert mobius(core, 0, 0) == 1
        assert mobius(core, 0, core.top) == 2
        with pytest.raises(NotComparable):
            mobius(core, 1, 2)  # two distinct reflections

    def test_mobius_h4_top(self):
        core = build_nc(ir("H4"))
        assert mobius(core, 0, core.top) == 232

    def test_mobius_column_h3_top(self):
        core = build_nc(ir("H3"))
        assert mobius_column_vectors(core.poset)[core.top] == [-21, 35, -15, 1]

    def test_mobius_alternating_sum_zero(self):
        # column sums of the Mobius vector vanish for rank >= 1
        for s in ("A3", "B3", "I2(7)", "H3"):
            core = build_nc(ir(s))
            g_top = mobius_column_vectors(core.poset)[core.top]
            assert sum(g_top) == 0

    def test_zeta_poly(self):
        core = build_nc(ir("A2"))
        coeffs = zeta_poly(core, 0, core.top)
        # Z(1) = 1, Z(2) = interval size = 5
        def ev(z):
            return sum(c * z**i for i, c in enumerate(coeffs))

        assert ev(1) == 1
        assert ev(2) == 5
        assert ev(-1) == 2

    def test_parabolic_types(self):
        core = build_nc(ir("D4"))
        assert str(core.partypes[core.top]) == "D4"
        counts = {}
        for t in core.partypes:
            counts[str(t)] = counts.get(str(t), 0) + 1
        assert counts["e"] == 1
        assert counts["A1"] == 12  # one per positive root

    def test_parabolic_type_of_reflection_in_h3(self):
        core = build_nc(ir("H3"))
        refl_types = [str(core.partypes[i]) for i in range(core.size) if core.poset.ranks[i] == 1]
        assert refl_types == ["A1"] * 15

    def test_nc_e6_size(self):
        assert build_nc(ir("E6")).size == 833

    @pytest.mark.parametrize("s", ["A3", "B3", "H3", "I2(8)"])
    def test_order_relation_is_a_partial_order(self, s):
        poset = build_nc(ir(s)).poset
        for i in range(poset.size):
            assert leq(poset, i, i)
            for j in _iter_bits(poset.up[i]):
                # transitivity: everything above j sits above i
                assert poset.up[j] & ~poset.up[i] == 0
                # antisymmetry via strict rank increase off the diagonal
                if i != j:
                    assert poset.ranks[i] < poset.ranks[j]


class TestIterBits:
    def test_matches_naive_scan_on_large_masks(self):
        rng = random.Random(11)
        masks = [0, 1, 1 << 7, 1 << 8, 1 << 14_999, 1 | 1 << 20_000]
        masks += [rng.getrandbits(rng.randint(1, 15_000)) for _ in range(100)]  # dense
        masks += [sum(1 << rng.randrange(15_000) for _ in range(rng.randint(1, 40))) for _ in range(100)]
        for mask in masks:
            assert _iter_bits(mask) == [i for i in range(mask.bit_length()) if mask >> i & 1]


def _poset(case: str) -> Poset:
    """The NC core for "T", the poset NC^m(T) for "T/m"."""
    name, _, m = case.partition("/")
    return build_ncm(ir(name), int(m)).poset if m else build_nc(ir(name)).poset


def _layered(sizes: tuple[int, ...]) -> Poset:
    """Layers of the given sizes, each element below every element of every
    later layer; rank = layer."""
    ranks = [r for r, k in enumerate(sizes) for _ in range(k)]
    return Poset(ranks, [tuple(j for j in range(len(ranks)) if ranks[j] > r) for r in ranks])


def _boolean(n: int) -> Poset:
    """The subsets of an n-set ordered by inclusion, listed by size."""
    sets = sorted(range(1 << n), key=lambda a: (a.bit_count(), a))
    return Poset(
        [a.bit_count() for a in sets],
        [tuple(j for j, b in enumerate(sets) if a & b == a and a != b) for a in sets],
    )


class TestMTriangleSweep:
    """The oracle's pair sweep reads each up-set once; the column recursion
    over down-sets, the pairwise Mobius function and the row recursion with
    one list per rank are its references."""

    @pytest.mark.parametrize(
        "case",
        ["A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "D4", "F4", "H3", "I2(5)", "A2/3", "B3/2", "H3/2"],
    )
    def test_matches_column_recursion_and_pairwise_mobius(self, case):
        poset = _poset(case)
        columns, pairs = Counter(), Counter()
        for w, vec in enumerate(mobius_column_vectors(poset)):
            for ru, v in enumerate(vec):
                columns[ru, poset.ranks[w]] += v
        for u in range(poset.size):
            for w in _iter_bits(poset.up[u]):
                pairs[poset.ranks[u], poset.ranks[w]] += mobius(poset, u, w)
        assert poset_m_triangle(poset) == MPoly(columns) == MPoly(pairs) == reference_m_triangle(poset)

    @pytest.mark.parametrize(
        "sizes",
        [(1, 1, 1), (1, 2, 1), (1, 1000, 1), (1, 200, 200, 1), (1, 60, 60, 60, 1), (3, 7, 90, 2), (2, 2, 2, 2, 2, 2, 2)],
    )
    def test_large_mobius_values_of_both_signs(self, sizes):
        # k atoms between two bounds give mu(0, 1) = k - 1; in general, from
        # one bottom element u, mu(u, x) depends on the layer L of x alone:
        # mu_0 = 1 and mu_L = -(mu_0 + sum of k_i mu_i over 0 < i < L)
        mus = [1]
        for L in range(1, len(sizes)):
            mus.append(-(1 + sum(k * mu for k, mu in zip(sizes[1:L], mus[1:]))))
        poset = _layered(sizes)
        tri = poset_m_triangle(poset)
        assert tri == reference_m_triangle(poset)
        assert [tri.coeff(0, L).constant_value() for L in range(len(sizes))] == [
            sizes[0] * k * mu for k, mu in zip((1, *sizes[1:]), mus)
        ]

    @pytest.mark.parametrize("n", [1, 2, 5, 10])
    def test_boolean_lattice(self, n):
        # mu(S, T) = (-1)^|T - S|: entry (r, s) is (-1)^(s-r) C(n, r) C(n - r, s - r)
        from math import comb

        poset = _boolean(n)
        expected = {(r, s): (-1) ** (s - r) * comb(n, r) * comb(n - r, s - r) for r in range(n + 1) for s in range(r, n + 1)}
        assert poset_m_triangle(poset) == MPoly(expected) == reference_m_triangle(poset)

    def test_an_up_list_into_a_lower_rank_is_refused(self):
        with pytest.raises(InvariantError, match="the poset: 0 lies above an element"):
            poset_m_triangle(Poset([0, 1], [(1,), (0,)]))

    def test_down_is_built_on_demand_as_the_transpose_of_up(self):
        built = _poset("H3/2")
        fresh = Poset(list(built.ranks), list(built.above))
        poset_m_triangle(fresh)
        assert "down" not in vars(fresh)  # the sweep reads the up-lists only
        assert "up" not in vars(fresh)
        for poset in (fresh, build_nc(ir("F4")).poset):
            n = poset.size
            naive = [sum(1 << i for i in range(n) if poset.up[i] >> j & 1) for j in range(n)]
            assert down(poset) == naive


class TestTopDownBuild:
    """build_nc walks down from c and never enumerates W; here NC is rebuilt
    from the enumerated group and its breadth-first lengths and compared."""

    @pytest.mark.parametrize(
        "s", ["A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "B5", "D4", "D5", "F4", "H3", "I2(5)", "I2(8)"]
    )
    def test_matches_enumerated_group(self, s):
        t = ir(s)
        g = enumerate_group(t.single())
        mul, inv, c = g.backend.mul, g.backend.inv, coxeter_element(g)
        members = sorted(
            (g.abs_length_of(w), w)
            for w in g.elements
            if g.abs_length_of(w) + g.abs_length_of(mul(inv(w), c)) == t.rank
        )
        elems = [w for _, w in members]
        index = {w: i for i, w in enumerate(elems)}
        core = build_nc(t)
        assert walk_nc(t)[1] == elems
        assert core.poset.ranks == [r for r, _ in members]
        for i, u in enumerate(elems):
            above = [j for j, w in enumerate(elems) if abs_leq(g, u, w)]
            assert list(_iter_bits(core.poset.up[i])) == above
            pairs = dict(zip((i, *core.poset.above[i]), core.quot[i], strict=True))
            assert pairs == {j: index[mul(inv(u), elems[j])] for j in above}
        assert core.partypes == [parabolic_type_of(g, w) for w in elems]

    STEP_TYPES = ["A5", "B4", "D5", "E6", "E7", "F4", "H3", "H4", "I2(7)"]

    @pytest.mark.parametrize("s", STEP_TYPES)
    def test_subsystem_steps_match_full_steps(self, s):
        # each orbit was stepped on the roots below one upper cover only, and
        # the rest of it filled in by conjugation
        backend, elems, steps = walk_nc(ir(s))
        for w in elems:
            assert steps[w] == backend.nc_step(w)

    @pytest.mark.parametrize("s", STEP_TYPES)
    def test_one_step_per_orbit(self, s, monkeypatch):
        backend, elems, _ = walk_nc(ir(s))
        mul, c = backend.mul, elems[-1]
        c_inv = backend.inv(c)
        orbit_of = {}
        for w in elems:
            u = w
            while u not in orbit_of:
                orbit_of[u] = w
                u = mul(mul(c, u), c_inv)
        stepped = []
        nc_step = type(backend).nc_step

        def counted(self, p, roots=None):
            stepped.append(p)
            return nc_step(self, p, roots)

        monkeypatch.setattr(type(backend), "nc_step", counted)
        walk_nc(ir(s))
        assert sorted(orbit_of[w] for w in stepped) == sorted(set(orbit_of.values()))

    @pytest.mark.parametrize("s", STEP_TYPES)
    def test_lower_covers_per_orbit(self, s, monkeypatch):
        # the walk forms the products t w, its lower covers, for the stepped
        # element w of each orbit only, once per reflection t below w; the
        # products before the first step (c itself, and the permutation of
        # reflections) and inside nc_step are not lower covers
        backend, elems, steps = walk_nc(ir(s))
        refls, members = set(backend.reflections), set(elems)
        stepped, covered, stepping = [], Counter(), []
        nc_step, mul = type(backend).nc_step, type(backend).mul

        def counted_step(self, p, roots=None):
            stepped.append(p)
            stepping.append(p)
            try:
                return nc_step(self, p, roots)
            finally:
                stepping.pop()

        def counted_mul(self, p, q):
            if stepped and not stepping and p in refls and q in members:
                covered[q] += 1
            return mul(self, p, q)

        monkeypatch.setattr(type(backend), "nc_step", counted_step)
        monkeypatch.setattr(type(backend), "mul", counted_mul)
        walk_nc(ir(s))
        assert covered == {w: len(steps[w][1]) for w in stepped if w != elems[0]}

    @pytest.mark.parametrize("s", STEP_TYPES)
    def test_core_matches_the_per_element_build(self, s):
        core = build_nc(ir(s), group_cap=10**7)
        assert (list(map(tuple, core.poset.above)), list(map(tuple, core.quot))) == per_element_rows(ir(s))
        assert {row.typecode for row in (*core.poset.above, *core.quot)} == {"H"}

    def test_wide_rows_match_the_per_element_build(self, monkeypatch):
        # from 65,536 elements on, rows are 'I' arrays, conjugated as pairs
        # packed in 'Q' ints; forced here on E6
        narrowest = wgroup._index_array
        monkeypatch.setattr(wgroup, "_index_array", lambda bound, values=(): narrowest(max(bound, 1 << 17), values))
        core = wgroup._build_nc.__wrapped__(ir("E6"))
        assert (list(map(tuple, core.poset.above)), list(map(tuple, core.quot))) == per_element_rows(ir("E6"))
        assert {row.typecode for row in (*core.poset.above, *core.quot)} == {"I"}

    @pytest.mark.parametrize("s", STEP_TYPES)
    def test_core_rows_are_in_quotient_order(self, s, monkeypatch):
        # each row starts with (i, e) and ends with (c, u_i^-1 c), quotients
        # increasing, as the NC^m walk reads them; the same holds for 'I' rows,
        # forced here, which hold the same values
        core = build_nc(ir(s), group_cap=10**7)
        narrowest = wgroup._index_array
        monkeypatch.setattr(wgroup, "_index_array", lambda bound, values=(): narrowest(max(bound, 1 << 17), values))
        wide = wgroup._build_nc.__wrapped__(ir(s))
        assert {row.typecode for row in (*wide.poset.above, *wide.quot)} == {"I"}
        for built in (core, wide):
            for i, (row, qs) in enumerate(zip(built.poset.above, built.quot)):
                assert len(qs) == len(row) + 1 and qs[0] == 0
                assert all(a < b for a, b in zip(qs, qs[1:]))
                # u_i^-1 c, the quotient of the top, has the complementary rank
                assert i == core.top or row[-1] == core.top
                assert core.poset.ranks[qs[-1]] == core.type.rank - core.poset.ranks[i]
        assert list(map(list, wide.poset.above)) == list(map(list, core.poset.above))
        assert list(map(list, wide.quot)) == list(map(list, core.quot))

    @pytest.mark.parametrize("s", ["A3", "B4", "D4", "D5", "E6", "F4", "H3", "I2(5)", "I2(8)"])
    def test_sigma_is_conjugation_by_c_and_an_automorphism(self, s):
        core = build_nc(ir(s))
        backend, elems, _ = walk_nc(ir(s))
        mul, c = backend.mul, elems[-1]
        c_inv = backend.inv(c)
        index = {w: i for i, w in enumerate(elems)}
        sigma = core.sigma
        assert list(sigma) == [index[mul(mul(c, w), c_inv)] for w in elems]
        assert sorted(sigma) == list(range(core.size))
        assert [core.poset.ranks[j] for j in sigma] == core.poset.ranks
        # sigma carries the (j, u_i^-1 u_j) pairs of each element onto those of its image
        rows = [dict(zip((i, *row), qs, strict=True)) for i, (row, qs) in enumerate(zip(core.poset.above, core.quot))]
        assert all(
            {sigma[j]: sigma[q] for j, q in row.items()} == rows[sigma[i]] for i, row in enumerate(rows)
        )
        h = max(degrees_irr(ir(s).single()))
        power = list(range(core.size))
        for _ in range(h):
            power = [sigma[i] for i in power]
        assert power == list(range(core.size))  # c^h = e

    def test_index_arrays_are_the_narrowest_that_hold_the_bound(self):
        bounds = (2**16, 2**16 + 1, 2**32 + 1, 2**64, 2**64 + 1)
        assert [getattr(wgroup._index_array(b), "typecode", None) for b in bounds] == ["H", "I", "Q", "Q", None]

    def test_an_orbit_that_does_not_close_is_refused(self, monkeypatch):
        # conjugation by s1 s3 s4, of order 6 in A4, has orbits longer than h = 5
        conjugation = wgroup._conjugation

        def by_order_six(backend, c):
            s = backend.simple_reflections
            return conjugation(backend, backend.mul(s[0], backend.mul(s[2], s[3])))

        monkeypatch.setattr(wgroup, "_conjugation", by_order_six)
        with pytest.raises(InvariantError, match="has not closed after h = 5 steps"):
            walk_nc(ir("A4"))

    def test_conjugates_outside_nc_are_counted(self, monkeypatch):
        # conjugation by s1 closes its orbits, but carries c out of NC(c)
        conjugation = wgroup._conjugation
        monkeypatch.setattr(wgroup, "_conjugation", lambda b, c: conjugation(b, b.simple_reflections[0]))
        with pytest.raises(InvariantError, match=r"found \d+ elements, not Cat\(W\) = 42"):
            walk_nc(ir("A4"))

    @pytest.mark.parametrize("s,nroots", [("A16", 272), ("B12", 288), ("D12", 264)])
    def test_byte_table_bound(self, s, nroots):
        # raised before any root is generated, although |W| is within the cap
        with pytest.raises(BudgetExceeded, match=f"{nroots} roots; byte tables hold at most 255") as exc:
            build_nc(ir(s), group_cap=10**15)
        assert exc.value.estimate == nroots

    def test_e6_core_bytes_are_pinned(self):
        # sha256 of the core produced by the earlier build that enumerated W
        blob = json.dumps(core_dump(build_nc(ir("E6"))), sort_keys=True)
        assert hashlib.sha256(blob.encode()).hexdigest() == (
            "7ec0a3bea9e63b1914c4592f100749e150427e506f07c1743394254b4adca26e"
        )

    @pytest.mark.parametrize("s", TABLE_DIGESTS)
    def test_reflection_tables_are_pinned(self, s):
        b = RootPermBackend(ir(s).single())
        blob = b"".join([b.identity, *b.reflections, *b.simple_reflections])
        assert hashlib.sha256(blob).hexdigest() == TABLE_DIGESTS[s]


class TestCharPoly:
    @pytest.mark.parametrize("s", ["A1", "A2", "A3", "A4", "B3", "D4", "H3", "F4"])
    def test_matches_table(self, s):
        assert char_poly(ir(s)) == GOLDEN_CHAR[s]

    def test_i2(self):
        for a in range(3, 11):
            assert char_poly(ir(f"I2({a})")) == golden_char_i2(a)

    def test_multiplicative(self):
        assert char_poly(ir("A2xA1")) == char_poly(ir("A2")) * char_poly(ir("A1"))

    @pytest.mark.parametrize("s", TABLE_TYPES)
    def test_matches_the_m_triangle(self, s):
        # row y^n of the M-triangle of the core: c is its only element of rank n
        core = build_nc(ir(s))
        tri = poset_m_triangle(core.poset)
        assert char_poly(ir(s)) == MPoly({(0, i): v for (i, j), v in tri.terms.items() if j == core.type.rank})

    @pytest.mark.parametrize("s", TABLE_TYPES)
    def test_walked_table_matches_the_core_scan(self, s):
        walked = json.dumps(wgroup._type_table_fresh(ir(s)).to_obj())
        assert walked == json.dumps(type_table_from_core(build_nc(ir(s))).to_obj())

    @pytest.mark.parametrize("s", TABLE_TYPES)
    def test_every_row_of_the_type_table(self, s):
        table = _type_table(ir(s))
        for T, chi in zip(table.types, table.char_polys, strict=True):
            assert MPoly({(0, i): v for i, v in enumerate(chi) if v}) == char_poly(T), T

    def test_chi_at_one_vanishes(self):
        for s in ("A4", "B3", "D4", "H3", "I2(9)"):
            chi = char_poly(ir(s))
            total = sum(c.constant_value() for _, _, c in chi.iter_terms())
            assert total == 0


def truncated(counts: dict, d: int | None) -> dict:
    """The decomposition numbers of at most d factors (all when d is None)."""
    return {key: v for key, v in counts.items() if d is None or len(key) <= d}


class TestDecomposition:
    def test_i2(self):
        for a in (3, 4, 5, 6, 9):
            table = decomposition_numbers(ir(f"I2({a})"))
            for key, value in golden_decomp_i2(a).items():
                assert table.n(*(ir(s) for s in key)) == value
            assert table.counts[()] == 1

    def test_h3_exact_table(self):
        table = decomposition_numbers(ir("H3"))
        for key, value in GOLDEN_DECOMP["H3"].items():
            assert table.n(*(ir(s) for s in key)) == value, key
        # full-rank support is exactly the listed set
        listed = {tuple(sorted((ir(s) for s in key), key=lambda t: (t.rank, str(t)))) for key in GOLDEN_DECOMP["H3"]}
        assert set(table.full_rank_entries()) == listed
        assert table.closure_violations() == []

    def test_f4_closure(self):
        table = decomposition_numbers(ir("F4"))
        assert table.closure_violations() == []

    def test_symmetry_is_enforced(self):
        # the builder itself verifies permutation symmetry; reaching here means it held
        table = decomposition_numbers(ir("B3"))
        assert table.n(ir("A1"), ir("B2")) == table.n(ir("B2"), ir("A1"))

    @pytest.mark.parametrize(
        "s", ["A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "D4", "D5", "F4", "H3", "H4", "I2(5)"]
    )
    def test_matches_recursive_chain_walk(self, s):
        t = ir(s)
        core = build_nc(t)
        walked = Counter()  # strict chains from the identity by ordered step types

        def walk(i, prefix):
            for j, q in zip((i, *core.poset.above[i]), core.quot[i], strict=True):
                if j != i:
                    tau = prefix + (core.partypes[q],)
                    walked[tau] += 1
                    if len(tau) < t.rank:
                        walk(j, tau)

        walk(0, ())
        for d in range(t.rank + 1):
            expected = {(): 1}
            for tau, cnt in walked.items():
                if len(tau) <= d:
                    key = tuple(sorted(tau, key=lambda T: (T.rank, str(T))))
                    # every ordering of the same types has the same count
                    assert expected.setdefault(key, cnt) == cnt, (tau, d)
            assert truncated(decomposition_numbers(t).counts, d) == expected, d

    @pytest.mark.parametrize("s", TABLE_TYPES)
    def test_matches_the_per_element_reference(self, s):
        t = ir(s)
        for d in (None, 1, 2, 3):
            assert truncated(decomposition_numbers(t).counts, d) == reference_decomposition_counts(build_nc(t), d), d

    @pytest.mark.parametrize("s", TABLE_TYPES)
    def test_reduced_reflection_words(self, s):
        # Deligne-Chapoton: c has n! h^n / |W| reduced words in the reflections
        t = ir(s)
        n, h = t.rank, max(degrees_irr(t.single()))
        words = decomposition_numbers(t).n(*[ir("A1")] * n)
        assert words * group_order(t) == factorial(n) * h**n
        assert words == {"A6": 7**5, "E6": 41_472}.get(s, words)

    def test_e7_without_a_core(self):
        # with the group cap raised, E7's type table comes from the walk of
        # its 4,160 elements alone: no listing of W and no core
        t, cap = ir("E7"), 10**7
        cores = wgroup._build_nc.cache_info().currsize
        table = decomposition_numbers(t, group_cap=cap)
        assert table.n(*[ir("A1")] * 7) == 1_062_882 == factorial(7) * 18**7 // group_order(t)
        assert table.closure_violations() == []
        assert verify_fm(t, "formula", group_cap=cap).equal
        assert wgroup._build_nc.cache_info().currsize == cores

    def test_a_tampered_table_breaks_the_symmetry(self, monkeypatch):
        t = ir("B3")
        table = _type_table(t)
        a1, b2 = table.types.index(ir("A1")), table.types.index(ir("B2"))
        top = tuple((a, c, k + ((a, c) == (a1, b2))) for a, c, k in table.pairs[-1])
        assert top != table.pairs[-1]
        tampered = TypeTable(table.types, table.mult, table.pairs[:-1] + (top,))
        monkeypatch.setattr(wgroup, "_type_table", lambda _: tampered)
        with pytest.raises(InvariantError, match="symmetry"):
            wgroup.decomposition_numbers(t)


class TestDiskCache:
    def test_type_table_roundtrip_and_checks(self):
        t = ir("D4")
        table = _type_table(t)
        obj = table.to_obj()
        assert TypeTable.from_obj(json.loads(json.dumps(obj)), t) == table
        last = len(table.types) - 1
        a1a1, a2 = table.types.index(ir("A1xA1")), table.types.index(ir("A2"))

        def swap_first_two_types(o):
            # a consistent relabelling, so that the row of A1xA1 comes before that of A1
            swap = {1: 2, 2: 1}
            for key in ("types", "mult", "pairs"):
                o[key][1:3] = o[key][2:0:-1]
            o["pairs"] = [[[swap.get(a, a), swap.get(c, c), k] for a, c, k in row] for row in o["pairs"]]

        edits = [
            (lambda o: o.update(repr_version=0), "stale"),
            (lambda o: o["types"].__setitem__(1, "Q9"), "cannot parse"),
            (lambda o: o["types"].__setitem__(-1, "I2(8)xA2"), "from e to t"),  # rank 4, Cat 50
            (lambda o: o["types"].__setitem__(0, "A1"), "from e to t"),
            (lambda o: o["pairs"].pop(), "from e to t"),
            (lambda o: o["types"].__setitem__(a2, "A1xA1"), "from e to t"),  # a type twice
            (lambda o: o["mult"].__setitem__(1, o["mult"][1] + 1), "Cat\\(W\\)"),
            (lambda o: o["pairs"][-1][0].__setitem__(2, o["pairs"][-1][0][2] + 1), "Cat\\(D4\\) - 1"),
            (lambda o: o["pairs"][-1][-1].__setitem__(0, last), "out of order"),  # u of the type of c below c
            (lambda o: o["pairs"][-1][-1].__setitem__(1, 0), "out of order"),  # ranks do not add up
            (swap_first_two_types, "row of A1xA1 joins types out of order"),
            # the identity below w_B with a quotient of another type of the same rank
            (lambda o: o["pairs"][a1a1][0].__setitem__(1, a2), "row of A1xA1 joins types out of order"),
        ]
        for edit, message in edits:
            bad = json.loads(json.dumps(obj))
            edit(bad)
            with pytest.raises(ValueError, match=message):
                TypeTable.from_obj(bad, t)


class TestBessisIntervals:
    @pytest.mark.parametrize("s", ["A4", "B3", "D4", "H3", "F4"])
    def test_interval_rank_genfun_matches_parabolic(self, s):
        core = build_nc(ir(s))
        for w in range(core.size):
            got = tuple(interval_rank_genfun(core, w))
            expected = nc_rank_genfun(core.partypes[w])
            assert got == expected, (s, w, core.partypes[w])


class TestChainCounts:
    def test_formula_examples(self):
        assert chain_count_formula(ir("A2"), 1, (1, 1)) == 3
        assert chain_count_formula(ir("B2"), 2, (2,)) == 1

    @pytest.mark.parametrize(
        "s", [f"A{n}" for n in range(1, 7)] + [f"B{n}" for n in range(2, 6)] + [f"D{n}" for n in range(4, 7)]
    )
    def test_formula_matches_the_fraction_form(self, s):
        # every composition of the rank into at most rank + 1 non-negative
        # jumps, at m = 1, 2, 3 (type D: m = 1)
        t = ir(s)
        n = t.rank
        ms = (1,) if s[0] == "D" else (1, 2, 3)
        jumps = [
            tuple(b - a - 1 for a, b in zip((-1,) + cut, cut + (n + parts - 1,)))
            for parts in range(1, n + 2)
            for cut in itertools.combinations(range(n + parts - 1), parts - 1)
        ]
        assert all(sum(j) == n and min(j) >= 0 for j in jumps)
        for m in ms:
            for j in jumps:
                try:
                    expected = ref.chain_count_formula(t, m, j)
                except InvariantError:
                    with pytest.raises(InvariantError):
                        chain_count_formula(t, m, j)
                    continue
                assert chain_count_formula(t, m, j) == expected, (m, j)

    def test_a_count_that_is_not_an_integer_is_an_invariant_error(self, monkeypatch):
        monkeypatch.setattr(wgroup, "binom_int", lambda n, k: 1)  # 1/3 chains in A2
        with pytest.raises(InvariantError, match="not an integer"):
            chain_count_formula(ir("A2"), 1, (1, 1))

    def test_a2_brute(self):
        res = chain_counts_classical(ir("A2"), 1, (1, 1))
        assert res.formula == res.brute == 3

    def test_d4_eq40(self):
        res = chain_counts_classical(ir("D4"), 1, (1, 1, 2))
        assert res.brute is not None
        assert res.formula == res.brute

    def test_zero_jumps_allowed(self):
        full = chain_counts_classical(ir("A2"), 2, (1, 1))
        padded = chain_counts_classical(ir("A2"), 2, (1, 0, 1))
        assert padded.formula == full.formula
        assert padded.brute == full.brute

    def test_a_negative_jump_is_refused(self):
        # the brute count finds no chain through a rank outside the poset,
        # but the closed forms are products of binomials and read no ranks
        poset = build_ncm(ir("A2"), 1).poset
        for jumps in ((3, -1), (-1, 3), (2, 1, -1)):
            assert chain_count_brute(poset, 2, jumps) == 0, jumps
            with pytest.raises(InvalidArgument, match="non-negative"):
                chain_count_formula(ir("A2"), 1, jumps)
            with pytest.raises(InvalidArgument, match="non-negative"):
                chain_counts_classical(ir("A2"), 1, jumps)
