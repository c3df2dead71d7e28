"""Catalog of finite root-system types: Coxeter data, Gram matrices read off
the Coxeter diagrams, classification of labelled Coxeter diagrams, and the
types left by deleting one node of a diagram.  Root vectors themselves live
in the group backends of `wgroup`, which label the diagram of a
sub-root-system by the orders of products of its simple reflections and
classify it with these diagram tools.

The catalog is stated once: diagram_edges draws each canonical label's
diagram, _ADMITTED gives the ranks each family admits (for I, the labels a)
and _ALIASES the labels that name other types.  Gram matrices and deletions
are read off the diagrams, and a diagram is classified by isomorphism with
them (Humphreys, Reflection Groups and Coxeter Groups, 2.4-2.7), through one
labelled-tree code (Aho-Hopcroft-Ullman) and no per-family shape rule.

Types are multisets of irreducible factors.  The aliases B1 = A1, D2 = A1xA1,
D3 = A3, I2(3) = A2 and I2(4) = B2 are normalized at construction so that
every formula downstream is stated once per canonical label; any other label
outside the catalog raises UnsupportedType.
"""

from __future__ import annotations

import re
from functools import lru_cache
from math import prod
from typing import Iterable

from .errors import ClassificationError, TypeParseError, UnsupportedType
from .exactmath import GoldInt

# The ranks each family admits as a canonical label (for I, the labels a),
# an inclusive range with None for no upper end, in the order factors sort.
_ADMITTED = {"A": (1, None), "B": (2, None), "D": (4, None), "E": (6, 8), "F": (4, 4), "H": (3, 4), "I": (5, None)}
_FAMILIES = tuple(_ADMITTED)


class Irreducible:
    """One irreducible factor: family letter, rank, and the dihedral label a
    for family I (None otherwise).  Instances are canonical labels only; use
    RootSystemType.make to apply the alias rewrites.  Immutable, hashable and
    unordered, like RootSystemType: both key every memo and table, so both
    hash once, and pickle through their constructor to rehash where loaded."""

    def __init__(self, family: str, rank: int, param: int | None = None):
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "param", param)
        object.__setattr__(self, "_hash", hash((family, rank, param)))

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return Irreducible, (self.family, self.rank, self.param)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.family == other.family and self.rank == other.rank and self.param == other.param

    def __hash__(self):
        return self._hash

    def sort_key(self):
        return (-self.rank, _FAMILIES.index(self.family), self.param or 0)

    def __str__(self):
        if self.family == "I":
            return f"I2({self.param})"
        return f"{self.family}{self.rank}"

    def __repr__(self):
        return str(self)


# The labels that name another type; with _ADMITTED and diagram_edges, the
# one statement of the catalog.
_ALIASES = {
    Irreducible("B", 1): (Irreducible("A", 1),),
    Irreducible("D", 2): (Irreducible("A", 1),) * 2,
    Irreducible("D", 3): (Irreducible("A", 3),),
    Irreducible("I", 2, 3): (Irreducible("A", 2),),
    Irreducible("I", 2, 4): (Irreducible("B", 2),),
}


def _admitted(f: Irreducible) -> bool:
    """Whether f is a canonical catalog label."""
    if f.family == "I":
        if f.rank != 2 or f.param is None:
            return False
        n = f.param
    elif f.family in _ADMITTED and f.param is None:
        n = f.rank
    else:
        return False
    lo, hi = _ADMITTED[f.family]
    return lo <= n and (hi is None or n <= hi)


def _canonical_factors(factors: Iterable[Irreducible]) -> tuple[Irreducible, ...]:
    out: list[Irreducible] = []
    for f in factors:
        if f in _ALIASES:
            out.extend(_ALIASES[f])
        elif _admitted(f):
            out.append(f)
        else:
            label = f"{f.family}{f.rank}" + ("" if f.param is None else f"({f.param})")
            raise UnsupportedType(f"{label} is not a valid type")
    return tuple(sorted(out, key=Irreducible.sort_key))


class RootSystemType:
    """A formal, possibly reducible and possibly empty, root-system type."""

    def __init__(self, factors: tuple[Irreducible, ...]):
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "rank", sum(f.rank for f in factors))
        object.__setattr__(self, "_hash", hash(factors))

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return RootSystemType, (self.factors,)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.factors == other.factors

    def __hash__(self):
        return self._hash

    @staticmethod
    def make(*factors: Irreducible) -> "RootSystemType":
        return RootSystemType(_canonical_factors(factors))

    @staticmethod
    def irreducible(family: str, rank: int, param: int | None = None) -> "RootSystemType":
        return RootSystemType.make(Irreducible(family, rank, param))

    @staticmethod
    def empty() -> "RootSystemType":
        return RootSystemType(())

    @staticmethod
    @lru_cache(maxsize=None)  # the type is frozen; a bad string is not cached and raises again
    def parse(s: str) -> "RootSystemType":
        s = s.strip()
        if s in ("e", ""):
            return RootSystemType.empty()
        factors = []
        for part in s.split("x"):
            part = part.strip()
            m = re.fullmatch(r"I2\((\d+)\)", part)
            if m:
                factors.append(Irreducible("I", 2, int(m.group(1))))
                continue
            m = re.fullmatch(r"([ABDEFH])(\d+)", part)
            if not m:
                raise TypeParseError(f"cannot parse type factor {part!r}")
            factors.append(Irreducible(m.group(1), int(m.group(2))))
        try:
            return RootSystemType.make(*factors)
        except UnsupportedType as exc:
            raise TypeParseError(str(exc)) from exc

    def single(self) -> Irreducible:
        """The one factor of an irreducible type; UnsupportedType otherwise."""
        if len(self.factors) != 1:
            raise UnsupportedType(f"an irreducible type is required, got {self}")
        return self.factors[0]

    def __str__(self):
        if not self.factors:
            return "e"
        return "x".join(str(f) for f in self.factors)

    def __repr__(self):
        return str(self)

    def __mul__(self, other: "RootSystemType") -> "RootSystemType":
        return RootSystemType.make(*(self.factors + other.factors))


def ir(s: str) -> RootSystemType:
    """Shorthand parser, mainly for tests and tables."""
    return RootSystemType.parse(s)


# ---------------------------------------------------------------------------
# Catalog constants
# ---------------------------------------------------------------------------


_EXCEPTIONAL_DEGREES = {
    ("H", 3): (2, 6, 10),
    ("H", 4): (2, 12, 20, 30),
    ("F", 4): (2, 6, 8, 12),
    ("E", 6): (2, 5, 6, 8, 9, 12),
    ("E", 7): (2, 6, 8, 10, 12, 14, 18),
    ("E", 8): (2, 8, 12, 14, 18, 20, 24, 30),
}


def degrees_irr(f: Irreducible) -> tuple[int, ...]:
    """Degrees of the basic invariants of an irreducible reflection group."""
    n = f.rank
    if f.family == "A":
        return tuple(range(2, n + 2))
    if f.family == "B":
        return tuple(range(2, 2 * n + 1, 2))
    if f.family == "D":
        return tuple(range(2, 2 * n - 1, 2)) + (n,)
    if f.family == "I":
        return (2, f.param)
    return _EXCEPTIONAL_DEGREES[(f.family, n)]


def group_order_irr(f: Irreducible) -> int:
    return prod(degrees_irr(f))


def group_order(t: RootSystemType) -> int:
    return prod(group_order_irr(f) for f in t.factors)


def positive_root_count_irr(f: Irreducible) -> int:
    return sum(d - 1 for d in degrees_irr(f))


def positive_root_count(t: RootSystemType) -> int:
    return sum(positive_root_count_irr(f) for f in t.factors)


def fuss_catalan(t: RootSystemType, m: int) -> int:
    """Fuss-Catalan number Cat^(m)(W) = prod (m h + d_i) / d_i over the
    degrees of each factor, h its largest degree: the size of NC^m."""
    out = 1
    for f in t.factors:
        ds = degrees_irr(f)
        h = max(ds)
        out *= prod(m * h + d for d in ds)
        out //= group_order_irr(f)
    return out


def diagram_edges(f: Irreducible) -> list[tuple[int, int, int]]:
    """Coxeter diagram of an irreducible factor: (i, j, label) with nodes in
    catalog order 0..rank-1; only edges with label >= 3 are listed."""
    n = f.rank
    if f.family == "A":
        return [(i, i + 1, 3) for i in range(n - 1)]
    if f.family == "B":
        return [(i, i + 1, 3) for i in range(n - 2)] + [(n - 2, n - 1, 4)]
    if f.family == "D":
        return [(i, i + 1, 3) for i in range(n - 2)] + [(n - 3, n - 1, 3)]
    if f.family == "I":
        return [(0, 1, f.param)]
    if f.family == "H":
        return [(0, 1, 5)] + [(i, i + 1, 3) for i in range(1, n - 1)]
    if f.family == "F":
        return [(0, 1, 3), (1, 2, 4), (2, 3, 3)]
    # E types, Bourbaki numbering shifted to 0-based: node 1 hangs off node 3.
    edges = [(0, 2, 3), (2, 3, 3), (1, 3, 3)]
    edges += [(i, i + 1, 3) for i in range(3, n - 1)]
    return edges


# ---------------------------------------------------------------------------
# Gram matrices from Coxeter diagrams
# ---------------------------------------------------------------------------


def gram_matrix(f: Irreducible) -> list[list]:
    """Doubled Gram matrix 2<a_i, a_j> of the simple roots of any factor but
    I2(a), read off the Coxeter diagram: over Z for A, B, D, F and E, over
    Z[tau] for H.  Every simple root has squared length 2 except the short
    ones, B's last node and F4's nodes 2 and 3 (length 1); a label 3 edge
    joins roots of equal length a and gives -a, label 4 gives -2 and label 5
    gives -2 tau."""
    if f.family == "I":
        raise UnsupportedType(f"no Gram matrix for {f}")
    ring = GoldInt if f.family == "H" else int
    short = {"B": (f.rank - 1,), "F": (2, 3)}.get(f.family, ())
    norms = [1 if i in short else 2 for i in range(f.rank)]
    gram = [[ring(2 * a if i == j else 0) for j in range(f.rank)] for i, a in enumerate(norms)]
    for i, j, label in diagram_edges(f):
        entry = {3: ring(-norms[i]), 4: ring(-2), 5: GoldInt(0, -2)}[label]
        gram[i][j] = gram[j][i] = entry
    return gram


# ---------------------------------------------------------------------------
# Classification of Coxeter diagrams, and deletions
# ---------------------------------------------------------------------------


def _tree_code(nodes, edges: list[tuple[int, int, int]]) -> tuple:
    """An isomorphism code of a labelled tree (Aho-Hopcroft-Ullman): the tree
    hung from its centre, each node's subtrees sorted behind their edge
    labels; with two centres, the smaller of the two codes."""
    adj: dict[int, list[tuple[int, int]]] = {v: [] for v in nodes}
    for i, j, lab in edges:
        adj[i].append((j, lab))
        adj[j].append((i, lab))
    degree = {v: len(ws) for v, ws in adj.items()}
    layer, left = [v for v, d in degree.items() if d <= 1], len(adj)
    while left > 2:  # peel the leaves until the centre or centres are left
        left -= len(layer)
        nxt = []
        for v in layer:
            for w, _ in adj[v]:
                degree[w] -= 1
                if degree[w] == 1:
                    nxt.append(w)
        layer = nxt

    def hang(v, parent):
        return tuple(sorted((lab, hang(w, v)) for w, lab in adj[v] if w != parent))

    return min(hang(c, None) for c in layer)


@lru_cache(maxsize=None)
def _catalog_codes(rank: int) -> dict[tuple, Irreducible]:
    """The catalog labels of a rank, by the code of their diagram."""
    labels = (Irreducible(fam, rank) for fam in _ADMITTED if fam != "I")
    return {_tree_code(range(rank), diagram_edges(f)): f for f in labels if _admitted(f)}


def _classify_labeled_component(nodes: list[int], edges: list[tuple[int, int, int]]) -> Irreducible:
    """Match one connected labelled diagram against the catalog diagrams by
    isomorphism; a single edge of label a is I2(a), which make rewrites."""
    n = len(nodes)
    if len(edges) != n - 1:  # first: _tree_code would peel a cycle forever
        raise ClassificationError("diagram component is not a tree")
    if n == 2:
        return Irreducible("I", 2, edges[0][2])
    found = _catalog_codes(n).get(_tree_code(nodes, edges))
    if found is None:
        raise ClassificationError("diagram component matches no catalog type")
    return found


@lru_cache(maxsize=None)
def _classify_diagram(num: int, edges: tuple[tuple[int, int, int], ...]) -> RootSystemType:
    """The type of a labelled Coxeter diagram on nodes 0..num-1, memoised on
    (num, edges): NC builds meet the same few diagrams many times."""
    parent = list(range(num))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for i, j, _ in edges:
        parent[find(i)] = find(j)
    comps: dict[int, list[int]] = {}
    for v in range(num):
        comps.setdefault(find(v), []).append(v)
    factors = []
    for vs in comps.values():
        sub_edges = [(i, j, lab) for i, j, lab in edges if find(i) == find(vs[0])]
        factors.append(_classify_labeled_component(vs, sub_edges))
    return RootSystemType.make(*factors)


@lru_cache(maxsize=None)
def deletion_types(t: RootSystemType) -> tuple[RootSystemType, ...]:
    """For each simple root of an irreducible type, the type generated by the
    remaining simple roots; entries follow catalog node order."""
    f = t.single()
    n = f.rank
    edges = diagram_edges(f)
    out = []
    for removed in range(n):
        keep = [v for v in range(n) if v != removed]
        remap = {v: i for i, v in enumerate(keep)}
        sub_edges = [(remap[i], remap[j], lab) for i, j, lab in edges if i != removed and j != removed]
        out.append(_classify_diagram(len(keep), tuple(sub_edges)))
    return tuple(out)
