"""Root-system catalog: type algebra, Gram matrices, deletions, and the
backend's sub-root-system classifier."""

import random

import pytest

from catwb.errors import ClassificationError, TypeParseError, UnsupportedType
from catwb.rootdata import (
    Irreducible,
    RootSystemType,
    _classify_diagram,
    deletion_types,
    diagram_edges,
    fuss_catalan,
    group_order,
    ir,
    positive_root_count,
)
from catwb.wgroup import RootPermBackend, _backend_for, enumerate_group


class TestTypeAlgebra:
    @pytest.mark.parametrize(
        "s,canon",
        [
            ("A5", "A5"),
            ("B3xA1", "B3xA1"),
            ("A1xB3", "B3xA1"),
            ("I2(7)", "I2(7)"),
            ("I2(3)", "A2"),
            ("I2(4)", "B2"),
            ("I2(5)", "I2(5)"),
            ("B1", "A1"),
            ("D2", "A1xA1"),
            ("D3", "A3"),
            ("D4", "D4"),
            ("D2xD3", "A3xA1xA1"),
            ("e", "e"),
        ],
    )
    def test_parse_canonical(self, s, canon):
        assert str(RootSystemType.parse(s)) == canon

    def test_roundtrip(self):
        for s in ["A5", "B3xA1", "I2(7)", "D4", "E8", "H4xA2"]:
            t = RootSystemType.parse(s)
            assert RootSystemType.parse(str(t)) == t

    @pytest.mark.parametrize(
        "bad",
        ["Q3", "A", "I2()", "A0", "D1", "F5", "E5", "H5", "I2(2)",
         "E9", "E4", "H2", "F3", "B0", "D0", "I2(0)", "I2(1)"],
    )
    def test_parse_errors(self, bad):
        with pytest.raises(TypeParseError):
            RootSystemType.parse(bad)

    @pytest.mark.parametrize(
        "family,rank,param", [("I", 5, 7), ("I", 1, 7), ("I", 2, None), ("A", 3, 7), ("E", 6, 6), ("Q", 3, None)]
    )
    def test_labels_outside_the_catalog_are_rejected(self, family, rank, param):
        # I5(7) would print as I2(7) and A3(7) as A3, yet differ from them
        with pytest.raises(UnsupportedType, match="is not a valid type"):
            RootSystemType.irreducible(family, rank, param)

    def test_single_requires_an_irreducible_type(self):
        assert ir("B3").single() == Irreducible("B", 3)
        for s in ("A1xA1", "e"):
            with pytest.raises(UnsupportedType, match=f"an irreducible type is required, got {s}"):
                ir(s).single()

    def test_parse_is_memoised_and_errors_repeat(self):
        assert RootSystemType.parse("B3xA1") is RootSystemType.parse("B3xA1")
        assert RootSystemType.parse(" D3 ") is RootSystemType.parse(" D3 ") == ir("A3")
        for _ in range(2):
            with pytest.raises(TypeParseError):
                RootSystemType.parse("E5")

    @pytest.mark.parametrize("alias,canon", [("D3", "A3"), ("I2(4)", "B2")])
    def test_aliases_are_equal_keys(self, alias, canon):
        assert ir(alias) == ir(canon) and hash(ir(alias)) == hash(ir(canon))
        assert {ir(alias): 1}[ir(canon)] == 1

    def test_types_are_immutable_unordered_and_not_tuples(self):
        t = ir("B3xA1")
        assert t != t.factors and t.factors != t
        with pytest.raises(TypeError):
            ir("A2") < ir("A3")
        with pytest.raises(TypeError):
            t.factors[0] < t.factors[1]
        with pytest.raises(AttributeError):
            t.factors = ()
        with pytest.raises(AttributeError):
            t.factors[0].rank = 4
        assert str(t) == "B3xA1" and t.factors[0].rank == 3

    @pytest.mark.parametrize(
        "s,factors", [("A5", "(A5,)"), ("B3xA1", "(B3, A1)"), ("I2(7)", "(I2(7),)"), ("e", "()")]
    )
    def test_str_and_repr(self, s, factors):
        t = ir(s)
        assert str(t) == repr(t) == s
        assert repr(t.factors) == factors

    def test_rank_and_product(self):
        t = ir("B3") * ir("A2")
        assert t.rank == 5
        assert str(t) == "B3xA2"

    def test_group_orders(self):
        assert group_order(ir("A3")) == 24
        assert group_order(ir("B3")) == 48
        assert group_order(ir("D4")) == 192
        assert group_order(ir("H3")) == 120
        assert group_order(ir("E8")) == 696729600
        assert group_order(ir("I2(7)")) == 14

    def test_fuss_catalan(self):
        assert [fuss_catalan(ir(f"A{n}"), 1) for n in range(1, 6)] == [2, 5, 14, 42, 132]
        assert fuss_catalan(ir("B3"), 2) == 84  # binom((m + 1) n, n)
        assert fuss_catalan(ir("I2(7)"), 3) == 46  # (m + 1)(m a + 2) / 2
        assert fuss_catalan(ir("E6"), 1) == 833
        assert fuss_catalan(ir("E7"), 2) == 144210
        assert fuss_catalan(ir("E8"), 1) == 25080
        assert fuss_catalan(ir("A2xA1"), 1) == 5 * 2
        assert fuss_catalan(RootSystemType.empty(), 4) == 1


class TestDeletions:
    def test_a3(self):
        assert [str(t) for t in deletion_types(ir("A3"))] == ["A2", "A1xA1", "A2"]

    def test_d4(self):
        got = sorted(str(t) for t in deletion_types(ir("D4")))
        assert got == ["A1xA1xA1", "A3", "A3", "A3"]

    def test_i2(self):
        assert [str(t) for t in deletion_types(ir("I2(9)"))] == ["A1", "A1"]

    def test_h3_h4(self):
        assert sorted(str(t) for t in deletion_types(ir("H3"))) == ["A1xA1", "A2", "I2(5)"]
        assert sorted(str(t) for t in deletion_types(ir("H4"))) == [
            "A2xA1",
            "A3",
            "H3",
            "I2(5)xA1",
        ]

    def test_f4(self):
        assert sorted(str(t) for t in deletion_types(ir("F4"))) == ["A2xA1", "A2xA1", "B3", "B3"]

    def test_e8(self):
        got = sorted(str(t) for t in deletion_types(ir("E8")))
        assert got == sorted(
            ["D7", "A7", "A6xA1", "A4xA2xA1", "A4xA3", "D5xA2", "E6xA1", "E7"]
        )

    @pytest.mark.parametrize(
        "s", ["A5", "B6", "D6", "E6", "E7", "E8", "F4", "H3", "H4", "I2(10)"]
    )
    def test_rank_bookkeeping(self, s):
        t = ir(s)
        dels = deletion_types(t)
        assert len(dels) == t.rank
        assert all(d.rank == t.rank - 1 for d in dels)


class TestSimpleSystems:
    @pytest.mark.parametrize("s", ["A4", "B4", "D5", "F4", "E6", "E7", "E8", "H3", "H4"])
    def test_angles_reproduce_diagram(self, s):
        # the full positive system of each backend classifies back to its type
        backend = _backend_for(ir(s).single())
        assert backend.classify(list(range(backend.npos))) == ir(s)

    def test_golden_root_counts(self):
        assert _backend_for(ir("H3").single()).nroots == 30
        assert _backend_for(ir("H4").single()).nroots == 120
        assert _backend_for(ir("A15").single()).nroots == 240
        assert _backend_for(ir("B11").single()).nroots == 242
        assert _backend_for(ir("D11").single()).nroots == 220

    def test_positive_root_counts(self):
        assert positive_root_count(ir("H3")) == 15
        assert positive_root_count(ir("H4")) == 60
        assert positive_root_count(ir("F4")) == 24
        assert positive_root_count(ir("E6")) == 36
        assert positive_root_count(ir("A5")) == 15
        assert positive_root_count(ir("D4")) == 12


def _reflection_indices(backend, roots):
    """Reflection indices of the given positive roots, in simple-root coordinates."""
    return [backend.pos_roots.index(tuple(root)) for root in roots]


class TestClassify:
    def test_orthogonal_pair(self):
        a3 = RootPermBackend(ir("A3").single())
        below = _reflection_indices(a3, [(1, 0, 0), (0, 0, 1)])
        assert str(a3.classify(below)) == "A1xA1"

    def test_a2_from_three_roots(self):
        a3 = RootPermBackend(ir("A3").single())
        below = _reflection_indices(a3, [(1, 0, 0), (0, 1, 0), (1, 1, 0)])
        assert str(a3.classify(below)) == "A2"

    def test_b2_inside_b3(self):
        # the last simple root of B3 is the short one
        b3 = RootPermBackend(ir("B3").single())
        below = _reflection_indices(b3, [(0, 1, 0), (0, 0, 1), (0, 1, 1), (0, 1, 2)])
        assert str(b3.classify(below)) == "B2"

    def test_signed_permutation_invariance(self):
        # W(B4) is the group of signed permutations of four coordinates
        b4 = RootPermBackend(ir("B4").single())
        npos = b4.npos
        base = _reflection_indices(b4, [(1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0)])  # an A2
        rng = random.Random(5)
        for w in rng.sample(enumerate_group(ir("B4").single()).elements, 10):
            moved = [w[npos + r] - npos for r in base]
            moved = [k if k >= 0 else ~k for k in moved]  # the positive root of each image
            assert str(b4.classify(moved)) == "A2"

    def test_not_closed_raises(self):
        a2 = RootPermBackend(ir("A2").single())
        below = _reflection_indices(a2, [(1, 0), (1, 1)])  # closure needs (0, 1)
        with pytest.raises(ClassificationError, match="not closed"):
            a2.classify(below)


CATALOG_UP_TO_RANK_8 = (
    [f"A{n}" for n in range(1, 9)]
    + [f"B{n}" for n in range(2, 9)]
    + [f"D{n}" for n in range(4, 9)]
    + ["E6", "E7", "E8", "F4", "H3", "H4"]
    + [f"I2({a})" for a in range(5, 13)]
)


def _relabelled(num, edges, rng):
    """The diagram on nodes 0..num-1 under a random relabelling of its nodes,
    in a random edge order and orientation."""
    perm = list(range(num))
    rng.shuffle(perm)
    out = [(perm[i], perm[j], lab) if rng.random() < 0.5 else (perm[j], perm[i], lab) for i, j, lab in edges]
    rng.shuffle(out)
    return tuple(out)


class TestDiagramClassifier:
    @pytest.mark.parametrize("s", CATALOG_UP_TO_RANK_8)
    def test_every_catalog_diagram_classifies_back(self, s):
        f = ir(s).single()
        rng = random.Random(s)
        for _ in range(6):
            assert _classify_diagram(f.rank, _relabelled(f.rank, diagram_edges(f), rng)) == ir(s)

    @pytest.mark.parametrize("s1,s2", [("E6", "H3"), ("D5", "B5"), ("F4", "I2(7)"), ("A1", "A1"), ("E8", "A2")])
    def test_a_disjoint_union_classifies_to_the_product(self, s1, s2):
        f1, f2 = ir(s1).single(), ir(s2).single()
        n1 = f1.rank
        edges = diagram_edges(f1) + [(i + n1, j + n1, lab) for i, j, lab in diagram_edges(f2)]
        rng = random.Random(s1 + s2)
        for _ in range(4):
            assert _classify_diagram(n1 + f2.rank, _relabelled(n1 + f2.rank, edges, rng)) == ir(s1) * ir(s2)

    @pytest.mark.parametrize(
        "num,edges",
        [
            (3, [(0, 1, 4), (1, 2, 4)]),  # two 4-edges on a path
            (5, [(0, 1, 3), (0, 2, 3), (0, 3, 3), (0, 4, 3)]),  # the star K_1,4
            (7, [(0, 1, 3), (1, 2, 3), (0, 3, 3), (3, 4, 3), (0, 5, 3), (5, 6, 3)]),  # arms (2, 2, 2)
            (9, [(0, 1, 3), (0, 2, 3), (2, 3, 3), (0, 4, 3)] + [(i, i + 1, 3) for i in range(4, 8)]),  # arms (1, 2, 5)
            (5, [(0, 1, 5), (1, 2, 3), (2, 3, 3), (3, 4, 3)]),  # a 5-edge on a 5-node path
            (5, [(0, 1, 3), (1, 2, 4), (2, 3, 3), (3, 4, 3)]),  # a 4-edge in the middle of a 5-path
            (3, [(0, 1, 3), (1, 2, 3), (0, 2, 3)]),  # a 3-cycle
        ],
        ids=["two-4-edges", "star-K14", "arms-2-2-2", "arms-1-2-5", "5-edge-path-5", "4-edge-mid-path-5", "3-cycle"],
    )
    def test_diagrams_outside_the_catalog_raise(self, num, edges):
        reason = "not a tree" if len(edges) >= num else "matches no catalog type"
        with pytest.raises(ClassificationError, match=reason):
            _classify_diagram(num, tuple(edges))
