"""The m-divisible non-crossing partition poset: construction by delta
sequences along NC, rank census, brute-force M-triangles, and the symbolic
M-triangle from decomposition numbers.  An M-triangle is returned as the
MPoly it is, the rank census as a tuple of counts.

Elements are tuples (w_0; w_1, ..., w_m) of NC indices whose group product is
the Coxeter element with additive absolute lengths; they are enumerated as
m-multichains of NC, which bounds the work by the poset size rather than by
|W|^(m+1).  Each is keyed by w_1..w_m as a mixed-radix integer; w_0 is
determined by them.

The order is B >= A iff B[i] <= A[i] in NC for i = 1..m, and the tuples
(w_1, ..., w_m) of NC^m are closed downward under the componentwise NC order
(Armstrong, Mem. AMS 2009, 3.4).  Proof: write A[i] = B R with absolute
lengths adding; conjugating R to the front of c = A[0] ... B R ... A[m]
changes no length, so c = R' A[0] ... B ... A[m] is again length-additive
and (R' A[0]; A[1], ..., B, ..., A[m]) is an element.  So the closed up-set
of A is the product of the NC down-lists of A[1], ..., A[m]: the zeta
function of NC^m is one NC zeta function per coordinate (Stanley, EC I,
3.8), and the M-triangle inverts it one coordinate at a time, in
m (Cat^(m+1) - Cat^(m)) reads, not the Cat^(2m) - Cat^(m) related pairs.
The sorted up-lists are derived from the products only when read (chain
counts, the Hasse export).
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from math import factorial
from operator import mul

from .errors import BudgetExceeded, InvalidArgument, InvariantError
from .exactmath import MPoly, falling
from .rootdata import RootSystemType, fuss_catalan
from .wgroup import (
    DEFAULT_POSET_CAP,
    NCCore,
    Poset,
    build_nc,  # re-exported: the benchmark tracer test patches ncposet.build_nc
    decomposition_numbers,
    _build_nc,
    _check_group_cap,
    _check_irreducible,
    _type_table,
)


def unpack_rows(rows: list[int], width: int) -> MPoly:
    """The M-triangle whose coefficient of x^r y^s is field s of rows[r]."""
    mask, half = (1 << width) - 1, 1 << (width - 1)
    terms = {}
    for r, v in enumerate(rows):
        for s in range(len(rows)):
            d = v & mask
            if d >= half:
                d -= mask + 1
            if d:
                terms[(r, s)] = d
            v = (v - d) >> width
    return MPoly(terms)


class NCmPoset:
    """The m-divisible poset over one irreducible type: its elements in
    sorted order, which is also rank order since w_0 comes first and NC
    indices follow rank, their ranks and their coordinate keys.  The order
    is read off the NC down-lists of the coordinates (see the module
    docstring); `poset` derives the sorted up-lists from their products on
    first read."""

    def __init__(self, type: RootSystemType, m: int, core: NCCore, elements: list[tuple[int, ...]],
                 ranks: list[int], keys: list[int]):
        self.type = type
        self.m = m
        self.core = core
        self.elements = elements  # delta tuples of NC indices
        self.ranks = ranks
        self.keys = keys  # keys[k]: the sum of elements[k][i] |NC|^(i-1) over i = 1..m

    @property
    def size(self) -> int:
        return len(self.elements)

    @property
    def name(self) -> str:
        return f"NC^{self.m}({self.type})"

    def maximum(self) -> int:
        """Index of the unique maximal element (c; identity, ..., identity):
        the only element with c in slot zero, so it sorts last."""
        top = self.size - 1
        if self.elements[top] != (self.core.top,) + (0,) * self.m:
            raise InvariantError(f"{self.name} does not end with (c; e, ..., e)")
        return top

    def minimal_count(self) -> int:
        return self.ranks.count(0)

    def _down_lists(self) -> list[list[int]]:
        """For each NC index d, d and then the smaller indices below it in NC."""
        downs: list[list[int]] = [[d] for d in range(self.core.size)]
        for i, row in enumerate(self.core.poset.above):
            for j in row:
                downs[j].append(i)
        return downs

    def _up_keys(self, elements):
        """For each delta in turn, the keys of its closed up-set: the product
        of the NC down-lists of delta[1..m], scaled by the radix.  Each
        down-list starts with its own element, so the key of delta comes
        first."""
        downs, size = self._down_lists(), self.core.size
        tables = [[[q * size**i for q in row] for row in downs] for i in range(self.m)]
        for delta in elements:
            keys = None  # until a coordinate is not the identity: the key 0 alone
            for scaled, d in zip(tables, delta[1:]):
                if d:  # the identity is below itself only, and adds 0 to every key
                    keys = scaled[d] if keys is None else [a + b for b in scaled[d] for a in keys]
            yield keys or (0,)

    def m_triangle(self) -> MPoly:
        """Sum of mu(A, B) x^rank(A) y^rank(B) over all pairs A <= B.

        h(A) = sum of mu(A, B) X^rank(B) over B >= A solves sum of h(B) over
        B >= A = X^rank(A); as the up-set is a product, it is solved for one
        coordinate i at a time, each pass in ascending key order: h(A) -= the
        h(B) of the B that lower A[i] in NC, of smaller keys and so final.
        In base X = 2^W, field s of h(A) is at most the chains from A, below
        (N + 1)^n for N = self.size, and a row sum is below (N + 1)^(n + 1):
        with W as below each field reads back as a balanced digit.  A key
        that is no element raises InvariantError."""
        radix, n = self.core.size, self.type.rank
        width = (n + 1) * (self.size + 1).bit_length() + 1
        h = {key: 1 << width * r for key, r in zip(self.keys, self.ranks)}
        get, walk, downs = h.__getitem__, sorted(h), self._down_lists()
        try:
            for scale in (radix**i for i in range(self.m)):
                steps = [[(y - d) * scale for y in row[1:]] for d, row in enumerate(downs)]
                for key in walk:
                    step = steps[key // scale % radix]
                    if len(step) == 1:  # an atom: one read, of the identity in its place
                        h[key] -= h[key + step[0]]
                    elif step:
                        h[key] -= sum(map(get, map(key.__add__, step)))
        except KeyError as exc:
            raise InvariantError(f"{self.name}: {exc.args[0]} lies above an element but is no element") from None
        rows = [0] * (n + 1)
        for key, r in zip(self.keys, self.ranks):
            rows[r] += h[key]
        return unpack_rows(rows, width)

    @cached_property
    def poset(self) -> Poset:
        """The order as sorted strict up-lists, derived from the key products
        on first read; the M-triangle does not need it."""
        index = {key: k for k, key in enumerate(self.keys)}
        above = []
        try:
            for k, keys in enumerate(self._up_keys(self.elements)):
                row = sorted(map(index.__getitem__, keys))
                if row[0] != k:  # delta[0] gains rank up the order, so k sorts first
                    raise InvariantError(f"element {k} of {self.name} is not the least of its up-set")
                above.append(tuple(row[1:]))
        except KeyError as exc:
            raise InvariantError(f"{self.name}: key {exc.args[0]} lies above an element but is no element") from None
        top = self.maximum()
        if any(not row or row[-1] != top for row in above[:-1]):
            raise InvariantError(f"the maximum of {self.name} is not above everything")
        return Poset(self.ranks, above)


def build_ncm(
    t: RootSystemType,
    m: int,
    group_cap: int | None = None,
    poset_cap: int | None = None,
) -> NCmPoset:
    """Construct the m-divisible poset for an irreducible type at concrete m.

    The order relation is the component-wise reverse of the NC order on
    coordinates 1..m; coordinate 0 is unconstrained.  BudgetExceeded when the
    square of Cat^(m) exceeds the poset cap (checked first) or the group
    exceeds the group cap, before the memo is consulted.
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
    quot = core.quot
    # multichains e <= c_0 <= ... <= c_(m-1) <= c of NC, grown one link at a
    # time as (delta so far, last link); quot[a] lists a^-1 b for each b in
    # closed[a] = (a, *above[a]), and ends with a^-1 c
    closed = [(a, *row) for a, row in enumerate(core.poset.above)]
    level = [((), 0)]
    for _ in range(m - 1):
        level = [(delta + (q,), b) for delta, a in level for b, q in zip(closed[a], quot[a])]
    elements = [delta + (q, quot[b][-1]) for delta, a in level for b, q in zip(closed[a], quot[a])]
    if len(elements) != n_elements:
        raise InvariantError(f"NC^{m}({t}) has {len(elements)} elements, Cat^({m}) = {n_elements}")
    elements.sort()
    ranks = [core.poset.ranks[delta[0]] for delta in elements]
    radix = [core.size**i for i in range(m)]
    keys = [sum(map(mul, delta[1:], radix)) for delta in elements]
    if len(set(keys)) != len(keys):
        raise InvariantError(f"two elements of NC^{m}({t}) share the coordinates 1..{m}")
    ncm = NCmPoset(t, m, core, elements, ranks, keys)
    top = ncm.maximum()
    if ranks[top] != t.rank:
        raise InvariantError(f"the maximum of NC^{m}({t}) has rank {ranks[top]}")
    return ncm


def rank_census(
    t: RootSystemType, m: int, group_cap: int | None = None, poset_cap: int | None = None
) -> tuple[int, ...]:
    """Counts of elements by rank 0 through the rank of t: the Fuss-Narayana
    numbers at concrete m."""
    ranks = build_ncm(t, m, group_cap, poset_cap).ranks
    return tuple(ranks.count(r) for r in range(t.rank + 1))


def m_triangle_bruteforce(
    t: RootSystemType, m: int, group_cap: int | None = None, poset_cap: int | None = None
) -> MPoly:
    """The M-triangle, the rank-weighted Mobius polynomial of NC^m, by
    Mobius inversion one coordinate at a time, from the order of NC alone."""
    return build_ncm(t, m, group_cap, poset_cap).m_triangle()


def mtriangle_rhs_transform(mt: MPoly, n: int) -> MPoly:
    """Re-index an M-triangle by the dual-poset sign conventions: each term
    c x^i y^j becomes c (-1)^(2n-i-j) x^(n-i) y^(n-j)."""
    return MPoly.from_parts(
        {(n - i, n - j): (row if (i + j) % 2 == 0 else [-a for a in row], mt.den) for (i, j), row in mt.rows.items()}
    )


def m_triangle_formula(t: RootSystemType, group_cap: int | None = None) -> MPoly:
    """The symbolic-m counterpart of the transformed M-triangle, assembled
    from decomposition numbers, characteristic polynomials at -y, and
    binomial weights in m.

    Both come from the type table of t, which holds the characteristic
    polynomial of every parabolic type of t, so no core is built.  They
    have integer coefficients free of m, so sign * N * orderings * (the
    product of the char polys at -y) is summed as integers per (rank sum,
    y-degree, d), then weighted by binomial(m, d) once.  The result carries
    the same sign and dual conventions as mtriangle_rhs_transform of the
    brute-force M-triangle.
    """
    table = decomposition_numbers(t, group_cap=group_cap)
    types = _type_table(t)
    at_neg_y = {  # y-coefficients of char(T)(-y)
        T: [(-1) ** l * v for l, v in enumerate(chi)] for T, chi in zip(types.types, types.char_polys)
    }
    totals: dict[tuple[int, int, int], int] = {}
    for key, n_value in table.counts.items():
        d = len(key)
        orderings = factorial(d)
        for T in set(key):
            orderings //= factorial(key.count(T))
        prod = [1]
        for T in key:
            out = [0] * (len(prod) + T.rank)
            for i, a in enumerate(prod):
                for j, b in enumerate(at_neg_y[T], i):
                    out[j] += a * b
            prod = out
        rksum = sum(T.rank for T in key)
        scale = n_value * orderings * (-1) ** rksum
        for l, v in enumerate(prod):
            totals[rksum, l, d] = totals.get((rksum, l, d), 0) + scale * v
    # binomial(m, d) = falling(1, 0, d) / d!, over the one denominator top!
    top = max((d for _, _, d in totals), default=0)
    rows: dict[tuple[int, int], list[int]] = {}
    for (rksum, l, d), v in totals.items():
        row = rows.setdefault((rksum, l), [0] * (top + 1))
        scale = v * (factorial(top) // factorial(d))
        for i, c in enumerate(falling(1, 0, d)):
            row[i] += scale * c
    return MPoly.from_parts({key: (row, factorial(top)) for key, row in rows.items()})


def export_poset_obj(
    t: RootSystemType, m: int, group_cap: int | None = None, poset_cap: int | None = None
) -> dict:
    """Hasse diagram export: ranks plus covering edges, JSON-ready."""
    ncm = build_ncm(t, m, group_cap, poset_cap)
    poset = ncm.poset
    ranks = poset.ranks
    edges = sorted([i, j] for i, row in enumerate(poset.above) for j in row if ranks[j] == ranks[i] + 1)
    return {
        "type": str(t),
        "m": m,
        "num_elements": poset.size,
        "ranks": list(poset.ranks),
        "elements": [list(d) for d in ncm.elements],
        "hasse_edges": edges,
        "num_minimal": ncm.minimal_count(),
    }
