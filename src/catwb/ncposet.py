"""The m-divisible non-crossing partition poset: construction by delta
sequences along NC, rank census, brute-force M-triangles, and the symbolic
M-triangle from decomposition numbers.

Elements are tuples (w_0; w_1, ..., w_m) of NC indices whose group product is
the Coxeter element with additive absolute lengths; they are enumerated as
m-multichains of NC, which bounds the work by the poset size rather than by
|W|^(m+1).

The order, B >= A iff B[i] <= A[i] in NC for i = 1..m, is built as sorted
up-lists of element indices: the candidates above A are the product of the
NC down-lists of its coordinates, each looked up among the elements.  The
related pairs number Cat^(2m), far fewer than the square of Cat^(m), and the
bit rows of the Poset are derived from the lists only when read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat
from math import factorial
from operator import mul

from .errors import BudgetExceeded, InvalidArgument, InvariantError
from .exactmath import M, MPoly, gen_binomial
from .ftriangle import NarayanaVector
from .rootdata import RootSystemType, fuss_catalan
from .wgroup import (
    DEFAULT_POSET_CAP,
    NCCore,
    Poset,
    build_nc,  # re-exported: the benchmark tracer test patches ncposet.build_nc
    char_poly_at_neg_y,
    decomposition_numbers,
    _build_nc,
    _check_group_cap,
    _check_irreducible,
)


@dataclass
class NCmPoset:
    """The m-divisible poset over one irreducible type."""

    type: RootSystemType
    m: int
    core: NCCore
    elements: list[tuple[int, ...]]  # delta tuples of NC indices
    poset: Poset

    @property
    def size(self) -> int:
        return self.poset.size

    def maximum(self) -> int:
        """Index of the unique maximal element (c; identity, ..., identity):
        the only element with c in slot zero, so it sorts last."""
        top = self.size - 1
        if self.elements[top] != (self.core.top,) + (0,) * self.m:
            raise InvariantError(f"NC^{self.m}({self.type}) does not end with (c; e, ..., e)")
        return top

    def minimal_count(self) -> int:
        return sum(1 for r in self.poset.ranks if r == 0)


@dataclass(frozen=True)
class MTriangle:
    """Rank-weighted Mobius generating polynomial of an m-divisible poset."""

    type: RootSystemType
    m: int | None
    poly: MPoly


def build_ncm(
    t: RootSystemType,
    m: int,
    group_cap: int | None = None,
    poset_cap: int | None = None,
) -> NCmPoset:
    """Construct the m-divisible poset for an irreducible type at concrete m.

    The order relation is the component-wise reverse of the NC order on
    coordinates 1..m; coordinate 0 is unconstrained.  BudgetExceeded when the
    Mobius pair sweep would exceed the poset cap (from Cat^(m), checked first)
    or the group exceeds the group cap, before the memo is consulted.
    """
    if m < 1:
        raise InvalidArgument("m must be a positive integer")
    _check_irreducible(t)
    cap = DEFAULT_POSET_CAP if poset_cap is None else poset_cap
    n_elements = fuss_catalan(t, m)
    if n_elements * n_elements > cap:
        raise BudgetExceeded(
            f"NC^{m}({t}) has {n_elements} elements; {n_elements}^2 pairs exceed the poset cap {cap}",
            n_elements,
        )
    _check_group_cap(t, group_cap)
    return _build_ncm(t, m)


@lru_cache(maxsize=None)
def _build_ncm(t: RootSystemType, m: int) -> NCmPoset:
    n_elements = fuss_catalan(t, m)
    core = _build_nc(t)
    size = core.size
    top = core.top
    quot = core.quot
    # multichains e <= c_0 <= ... <= c_(m-1) <= c of NC, grown one link at a
    # time as (delta so far, last link); quot[a] maps each b >= a to a^-1 b
    level = [((), 0)]
    for _ in range(m - 1):
        level = [(delta + (q,), b) for delta, a in level for b, q in quot[a].items()]
    elements = [delta + (q, quot[b][top]) for delta, a in level for b, q in quot[a].items()]
    if len(elements) != n_elements:
        raise InvariantError(f"NC^{m}({t}) has {len(elements)} elements, Cat^({m}) = {n_elements}")
    elements.sort()
    ranks = [core.poset.ranks[delta[0]] for delta in elements]

    # B >= A iff B[i] <= A[i] in NC for i = 1..m.  Each element is keyed by
    # delta[1:] as a mixed-radix integer, the sum of delta[i] size^(i-1); the
    # candidates above A are the keys in the product of the NC down-lists of
    # its coordinates, and a candidate that is no element reads -1 and is dropped.
    downs: list[list[int]] = [[i] for i in range(size)]
    for i, row in enumerate(core.poset.above):
        for j in row:
            downs[j].append(i)
    radix = [size**i for i in range(m)]
    tables = [[[q * r for q in row] for row in downs] for r in radix]
    index = {sum(map(mul, delta[1:], radix)): k for k, delta in enumerate(elements)}
    if len(index) != len(elements):
        raise InvariantError(f"two elements of NC^{m}({t}) share the coordinates 1..{m}")
    above = []
    for k, delta in enumerate(elements):
        keys = None  # until a coordinate is not the identity: the key 0 alone
        for scaled, d in zip(tables, delta[1:]):
            if d:  # the identity is below itself only, and adds 0 to every key
                keys = scaled[d] if keys is None else [a + b for b in scaled[d] for a in keys]
        row = sorted(map(index.get, keys or [0], repeat(-1)))
        misses = row.count(-1)
        if row[misses] != k:  # delta[0] gains rank up the order, so k sorts first
            raise InvariantError(f"element {k} of NC^{m}({t}) is not the least of its up-set")
        above.append(tuple(row[misses + 1 :]))
    ncm = NCmPoset(t, m, core, elements, Poset(ranks, above))
    top_idx = ncm.maximum()
    if any(not row or row[-1] != top_idx for row in above[:-1]):
        raise InvariantError(f"the maximum of NC^{m}({t}) is not above everything")
    if ranks[top_idx] != t.rank:
        raise InvariantError(f"the maximum of NC^{m}({t}) has rank {ranks[top_idx]}")
    return ncm


def rank_census(
    t: RootSystemType, m: int, group_cap: int | None = None, poset_cap: int | None = None
) -> NarayanaVector:
    """Counts of elements by rank: the Fuss-Narayana numbers at concrete m."""
    ncm = build_ncm(t, m, group_cap, poset_cap)
    counts = ncm.poset.rank_counts()
    return NarayanaVector(t, tuple(counts))


def m_triangle_bruteforce(
    t: RootSystemType, m: int, group_cap: int | None = None, poset_cap: int | None = None
) -> MTriangle:
    """The M-triangle by the generic Mobius recursion over all related pairs."""
    ncm = build_ncm(t, m, group_cap, poset_cap)
    return MTriangle(t, m, ncm.poset.m_triangle())


def mtriangle_rhs_transform(mt: MPoly, n: int) -> MPoly:
    """Re-index an M-triangle by the dual-poset sign conventions: each term
    c x^i y^j becomes c (-1)^(2n-i-j) x^(n-i) y^(n-j)."""
    terms = {}
    for (i, j), c in mt.terms.items():
        sign = -1 if (2 * n - i - j) % 2 else 1
        terms[(n - i, n - j)] = c * sign
    return MPoly(terms)


def m_triangle_formula(t: RootSystemType, group_cap: int | None = None) -> MTriangle:
    """The symbolic-m counterpart of the transformed M-triangle, assembled
    from decomposition numbers, characteristic polynomials at -y, and
    binomial weights in m.

    The result carries the same sign and dual conventions as
    mtriangle_rhs_transform of the brute-force M-triangle.
    """
    table = decomposition_numbers(t, group_cap=group_cap)
    acc = MPoly.zero()
    for key, n_value in table.counts.items():
        d = len(key)
        orderings = factorial(d)
        seen: dict[RootSystemType, int] = {}
        for T in key:
            seen[T] = seen.get(T, 0) + 1
        for cnt in seen.values():
            orderings //= factorial(cnt)
        prod = MPoly.const(1)
        for T in key:
            prod = prod * char_poly_at_neg_y(T, group_cap)
        rksum = sum(T.rank for T in key)
        weight = gen_binomial(M, d) * (n_value * orderings)
        sign = -1 if rksum % 2 else 1
        acc = acc + prod * MPoly.term(rksum, 0, weight * sign)
    return MTriangle(t, None, acc)


def export_poset_obj(
    t: RootSystemType, m: int, group_cap: int | None = None, poset_cap: int | None = None
) -> dict:
    """Hasse diagram export: ranks plus covering edges, JSON-ready."""
    ncm = build_ncm(t, m, group_cap, poset_cap)
    poset = ncm.poset
    edges = []
    for i in range(poset.size):
        ri = poset.ranks[i]
        for j in poset.above[i]:
            if poset.ranks[j] == ri + 1:
                edges.append([i, j])
    edges.sort()
    return {
        "type": str(t),
        "m": m,
        "num_elements": poset.size,
        "ranks": list(poset.ranks),
        "elements": [list(d) for d in ncm.elements],
        "hasse_edges": edges,
        "num_minimal": ncm.minimal_count(),
    }
