"""Catalog of finite root-system types: Coxeter data, Gram matrices read off
the Coxeter diagrams, classification of labelled Coxeter diagrams, and the
types left by deleting one node of a diagram.  Root vectors themselves live
in the group backends of `wgroup`, which label the diagram of a
sub-root-system by the orders of products of its simple reflections and
classify it with these diagram tools.

Types are multisets of irreducible factors.  The aliases B1 = A1, D2 = A1xA1,
D3 = A3, I2(3) = A2 and I2(4) = B2 are normalized at construction so that
every formula downstream is stated once per canonical label.
"""

from __future__ import annotations

import re
from functools import lru_cache
from math import prod
from typing import Iterable

from .errors import ClassificationError, TypeParseError, UnsupportedType
from .exactmath import GoldInt

_FAMILIES = ("A", "B", "D", "E", "F", "H", "I")


class Irreducible:
    """One irreducible factor: family letter, rank, and the dihedral label a
    for family I (None otherwise).  Instances are canonical labels only; use
    RootSystemType.make to apply the alias rewrites.  Immutable, hashable and
    unordered, like RootSystemType: both key every memo and table."""

    def __init__(self, family: str, rank: int, param: int | None = None):
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "param", param)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.family == other.family and self.rank == other.rank and self.param == other.param

    def __hash__(self):
        return hash((self.family, self.rank, self.param))

    def sort_key(self):
        return (-self.rank, _FAMILIES.index(self.family), self.param or 0)

    def __str__(self):
        if self.family == "I":
            return f"I2({self.param})"
        return f"{self.family}{self.rank}"

    def __repr__(self):
        return str(self)


def _canonical_factors(factors: Iterable[Irreducible]) -> tuple[Irreducible, ...]:
    out: list[Irreducible] = []
    for f in factors:
        fam, n, a = f.family, f.rank, f.param
        if fam == "A":
            if n < 1:
                raise UnsupportedType(f"A{n} is not a valid type")
            out.append(f)
        elif fam == "B":
            if n == 1:
                out.append(Irreducible("A", 1))
            elif n >= 2:
                out.append(f)
            else:
                raise UnsupportedType(f"B{n} is not a valid type")
        elif fam == "D":
            if n == 2:
                out.extend([Irreducible("A", 1), Irreducible("A", 1)])
            elif n == 3:
                out.append(Irreducible("A", 3))
            elif n >= 4:
                out.append(f)
            else:
                raise UnsupportedType(f"D{n} is not a valid type")
        elif fam == "I":
            if a is None or a < 3:
                raise UnsupportedType(f"I2({a}) requires a >= 3")
            if a == 3:
                out.append(Irreducible("A", 2))
            elif a == 4:
                out.append(Irreducible("B", 2))
            else:
                out.append(f)
        elif fam == "E":
            if n not in (6, 7, 8):
                raise UnsupportedType(f"E{n} is not a valid type")
            out.append(f)
        elif fam == "F":
            if n != 4:
                raise UnsupportedType(f"F{n} is not a valid type")
            out.append(f)
        elif fam == "H":
            if n not in (3, 4):
                raise UnsupportedType(f"H{n} is not a valid type")
            out.append(f)
        else:
            raise UnsupportedType(f"unknown family {fam!r}")
    return tuple(sorted(out, key=Irreducible.sort_key))


class RootSystemType:
    """A formal, possibly reducible and possibly empty, root-system type."""

    def __init__(self, factors: tuple[Irreducible, ...]):
        object.__setattr__(self, "factors", factors)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.factors == other.factors

    def __hash__(self):
        return hash(self.factors)

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

    @property
    def rank(self) -> int:
        return sum(f.rank for f in self.factors)

    @property
    def is_irreducible(self) -> bool:
        return len(self.factors) == 1

    def single(self) -> Irreducible:
        if not self.is_irreducible:
            raise ValueError(f"{self} is not irreducible")
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


def _classify_labeled_component(nodes: list[int], edges: list[tuple[int, int, int]]) -> Irreducible:
    """Match one connected labeled tree against the catalog diagrams."""
    n = len(nodes)
    if n == 1:
        return Irreducible("A", 1)
    if len(edges) != n - 1:
        raise ClassificationError("diagram component is not a tree")
    if n == 2:
        a = edges[0][2]
        if a == 3:
            return Irreducible("A", 2)
        if a == 4:
            return Irreducible("B", 2)
        return Irreducible("I", 2, a)
    adj: dict[int, list[tuple[int, int]]] = {v: [] for v in nodes}
    for i, j, lab in edges:
        adj[i].append((j, lab))
        adj[j].append((i, lab))
    degs = {v: len(adj[v]) for v in nodes}
    max_deg = max(degs.values())
    if max_deg == 2:
        start = min(v for v in nodes if degs[v] == 1)
        seq = []
        prev, cur = None, start
        while True:
            nxt = [(w, lab) for w, lab in adj[cur] if w != prev]
            if not nxt:
                break
            w, lab = nxt[0]
            seq.append(lab)
            prev, cur = cur, w
        labels = sorted(set(seq))
        if labels == [3]:
            return Irreducible("A", n)
        if seq.count(4) == 1 and all(l in (3, 4) for l in seq):
            idx = seq.index(4)
            if idx in (0, n - 2):
                return Irreducible("B", n)
            if n == 4 and idx == 1:
                return Irreducible("F", 4)
        if seq.count(5) == 1 and all(l in (3, 5) for l in seq):
            idx = seq.index(5)
            if idx in (0, n - 2) and n in (3, 4):
                return Irreducible("H", n)
        raise ClassificationError(f"path with labels {seq} matches no catalog type")
    if max_deg == 3 and all(lab == 3 for _, _, lab in edges):
        branch = [v for v in nodes if degs[v] == 3]
        if len(branch) == 1:
            arms = []
            for w, _ in adj[branch[0]]:
                length, prev, cur = 1, branch[0], w
                while True:
                    nxt = [x for x, _ in adj[cur] if x != prev]
                    if not nxt:
                        break
                    prev, cur = cur, nxt[0]
                    length += 1
                arms.append(length)
            arms.sort()
            if arms[:2] == [1, 1]:
                return Irreducible("D", arms[2] + 3)
            if arms[0] == 1 and arms[1] == 2 and arms[2] in (2, 3, 4):
                return Irreducible("E", arms[2] + 4)
    raise ClassificationError("diagram component matches no catalog type")


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
    if not t.is_irreducible:
        raise UnsupportedType(f"deletion_types requires an irreducible type, got {t}")
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
