"""The m-divisible non-crossing partition poset: construction by delta
sequences along NC, rank census, brute-force M-triangles, and the symbolic
M-triangle from decomposition numbers.  An M-triangle is returned as the
MPoly it is, the rank census as a tuple of counts.

Elements are tuples (w_0; w_1, ..., w_m) of NC indices whose group product is
the Coxeter element with additive absolute lengths; they are enumerated as
m-multichains of NC, which bounds the work by the poset size rather than by
|W|^(m+1).  Each is keyed by w_1..w_m as a mixed-radix integer; w_0 is
determined by them.  The walk takes the links from each NC element in
increasing quotient order, the order in which the core stores them, so it
lists NC^m in canonical order, sorted by delta tuple, and sorts nothing;
the poset holds only the keys, the first links w_0 and the keys of the
conjugates, as three index arrays, and the tuples are decoded only for the
Hasse export and the up-lists.

The order is B >= A iff B[i] <= A[i] in NC for i = 1..m, and the tuples
(w_1, ..., w_m) of NC^m are closed downward under the componentwise NC order
(Armstrong, Mem. AMS 2009, 3.4).  Proof: write A[i] = B R with absolute
lengths adding; conjugating R to the front of c = A[0] ... B R ... A[m]
changes no length, so c = R' A[0] ... B ... A[m] is again length-additive
and (R' A[0]; A[1], ..., B, ..., A[m]) is an element.  So the closed up-set
of A is the product of the NC down-lists of A[1], ..., A[m]: the zeta
function of NC^m is one NC zeta function per coordinate (Stanley, EC I,
3.8), and the M-triangle inverts it one coordinate at a time.  Conjugation
by c is an automorphism of NC(c), the square of the Kreweras complement
(Armstrong, Mem. AMS 2009); applied to every coordinate it is a
rank-preserving automorphism of NC^m, whose orbits have at most h elements
(Bessis-Reiner, Ann. Comb. 2011, for their sizes).  The Mobius values are
constant on its orbits, so each coordinate pass solves one element per
orbit, and the reads, m (Cat^(m+1) - Cat^(m)) over all elements, fall by
about the mean orbit size; the Cat^(2m) - Cat^(m) related pairs are never
read.  Sums over up-sets (`up_sums`) make the same passes with + in place of
-, orbit by orbit, and count the rank-jump chains (`chain_count`) as
repeated up-set sums of a rank indicator.  The sorted up-lists are derived
from the products only for the Hasse export.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Sequence
from functools import cached_property, lru_cache
from itertools import accumulate, chain, repeat
from math import factorial
from operator import mul

from .errors import BudgetExceeded, InvalidArgument, InvariantError
from .exactmath import MPoly, falling
from .rootdata import RootSystemType, degrees_irr, fuss_catalan
from .wgroup import (
    DEFAULT_POSET_CAP,
    NCCore,
    Poset,
    build_nc,  # re-exported: the benchmark tracer test patches ncposet.build_nc
    decomposition_numbers,
    _build_nc,
    _check_group_cap,
    _index_array,
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
    """The m-divisible poset over one irreducible type, in the sorted order of
    its delta tuples, which is also rank order since w_0 comes first and NC
    indices follow rank: for each element its first link w_0, its
    coordinate key and the key of its conjugate by c, each column an index
    array (a list where |NC|^m passes 2^64).  The tuples are decoded only
    when read (the Hasse export and the up-lists).  The order is read off
    the NC down-lists of the coordinates (see the module docstring); `poset`
    derives the sorted up-lists from their products on first read, for the
    Hasse export."""

    def __init__(self, type: RootSystemType, m: int, core: NCCore, firsts: Sequence[int], keys: Sequence[int],
                 conjugates: Sequence[int]):
        self.type = type
        self.m = m
        self.core = core
        self.firsts = firsts  # firsts[k]: w_0 of element k, an NC index
        self.keys = keys  # keys[k]: the sum of w_i |NC|^(i-1) over i = 1..m
        # conjugates[k]: the key of element k conjugated by c in every coordinate
        self.conjugates = conjugates

    @property
    def size(self) -> int:
        return len(self.keys)

    @property
    def name(self) -> str:
        return f"NC^{self.m}({self.type})"

    @property
    def ranks(self) -> list[int]:
        """The rank of each element: the NC rank of its first link."""
        return list(map(self.core.poset.ranks.__getitem__, self.firsts))

    @cached_property
    def elements(self) -> list[tuple[int, ...]]:
        """The delta tuples (w_0; w_1, ..., w_m): each first link followed by
        the base-|NC| digits of its key."""
        radix, m = self.core.size, self.m
        out = []
        for first, key in zip(self.firsts, self.keys):
            delta = [first]
            for _ in range(m):
                key, d = divmod(key, radix)
                delta.append(d)
            out.append(tuple(delta))
        return out

    def maximum(self) -> int:
        """Index of the unique maximal element (c; identity, ..., identity):
        the only element with c in slot zero, so it sorts last."""
        top = self.size - 1
        if self.firsts[top] != self.core.top or self.keys[top] != 0:
            raise InvariantError(f"{self.name} does not end with (c; e, ..., e)")
        return top

    def minimal_count(self) -> int:
        return self.ranks.count(0)

    def _down_lists(self) -> list[list[int]]:
        """For each NC index d, d and then the smaller indices below it in NC."""
        return [[d, *(d + x for x in row)] for d, row in enumerate(self.core.lower)]

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

    def orbits(self) -> tuple[dict, list[int], list[int]]:
        """The orbits of conjugation by c in every coordinate, found by
        following the conjugates, each represented by its element stored
        first.  Returns a dict from each key to the index of its orbit, and
        for each orbit in turn the position of its representative and its
        size.  A conjugate that is no element raises KeyError; an orbit that
        has not closed after h conjugations, h the Coxeter number (c^h = e),
        raises InvariantError."""
        keys, n_elements = self.keys, self.size
        h = max(degrees_irr(self.type.single()))
        at = dict(zip(keys, range(n_elements)))  # key -> position, then -> its orbit's index
        after = list(map(at.__getitem__, self.conjugates))  # the position of each conjugate
        orbit = [-1] * n_elements
        reps, sizes = [], []
        for k in range(n_elements):
            if orbit[k] >= 0:
                continue  # met in the orbit of an earlier representative
            orbit[k] = index = len(reps)
            j, size = after[k], 1
            while j > k and size < h:  # j <= k: back at k, or in an orbit closed before, which never leads back
                orbit[j] = index
                j, size = after[j], size + 1
            if j != k:
                raise InvariantError(
                    f"{self.name}: the orbit of {keys[k]} under conjugation by c has not closed after h = {h} steps"
                )
            reps.append(k)
            sizes.append(size)
        at.update(zip(keys, orbit))
        return at, reps, sizes

    def m_triangle(self) -> MPoly:
        """Sum of mu(A, B) x^rank(A) y^rank(B) over all pairs A <= B.

        h(A) = sum of mu(A, B) X^rank(B) over B >= A solves sum of h(B) over
        B >= A = X^rank(A); as the up-set is a product, it is solved for one
        coordinate i at a time: h(A) -= the h(B) of the B that lower A[i] in
        NC.  Conjugation by c in every coordinate keeps rank and order, so h
        is constant on its orbits (see `orbits`): each pass solves one
        representative per orbit, and every value is read through the map
        from key to orbit.  The representatives go in decreasing rank, so a
        lowered neighbour, which lies above, has its value final: its
        representative has its rank.  Row r of the triangle sums h over the
        representatives of rank r, each weighted by its orbit size.
        In base X = 2^W, field s of h(A) is at most the chains from A, below
        (N + 1)^n for N = self.size, and a row sum is below (N + 1)^(n + 1):
        with W as below each field reads back as a balanced digit.  A lowered
        key or a conjugate that is no element raises InvariantError naming
        it, and a list of other than Cat^(m) elements is refused.
        Down-closure is so checked at the representatives only; with closure
        under conjugation it holds everywhere."""
        radix, n = self.core.size, self.type.rank
        width = (n + 1) * (self.size + 1).bit_length() + 1
        ranks = self.core.poset.ranks  # an element's rank is that of its first link
        try:
            at, reps, sizes = self.orbits()
            get = at.__getitem__
            repkeys = list(map(self.keys.__getitem__, reps))
            rep_ranks = [ranks[self.firsts[k]] for k in reps]
            h = [1 << width * r for r in rep_ranks]  # h[o]: the value on orbit o
            value = h.__getitem__
            order = sorted(range(len(reps)), key=rep_ranks.__getitem__, reverse=True)
            steps = lower = self.core.lower
            for scale in (radix**i for i in range(self.m)):
                if scale > 1:  # scaled[x] = x * scale, read from the end like lower's table
                    scaled = [x * scale for x in range(-radix, 0)]
                    steps = [[scaled[x] for x in row] for row in lower]
                for o in order:
                    key = repkeys[o]
                    step = steps[key // scale % radix]
                    if len(step) == 1:  # an atom: one read, of the identity in its place
                        h[o] -= h[get(key + step[0])]
                    elif step:
                        h[o] -= sum(map(value, map(get, map(key.__add__, step))))
        except KeyError as exc:
            raise InvariantError(
                f"{self.name}: {exc.args[0]} lies above an element or is the conjugate of one, but is no element"
            ) from None
        n_elements = fuss_catalan(self.type, self.m)
        if self.size != n_elements:  # e.g. a minimal element fixed by conjugation, which nothing reaches
            raise InvariantError(f"{self.name} has {self.size} elements, Cat^({self.m}) = {n_elements}")
        rows = [0] * (n + 1)
        for r, size, v in zip(rep_ranks, sizes, h):
            rows[r] += v * size
        return unpack_rows(rows, width)

    @cached_property
    def _summed(self) -> tuple[dict, list[int], list[int], list[int], list[list[list[int]]], dict]:
        """What the up-set sums read, kept only on the posets whose up-sets
        are summed (the M-triangle calls `orbits` afresh): the map from key
        to orbit, and per orbit the key and rank of its representative, in
        increasing rank as stored, and its size; for each coordinate the NC
        down-sets as key differences; and the memo of chain-count states."""
        at, reps, sizes = self.orbits()
        ranks, radix = self.core.poset.ranks, self.core.size
        steps = [[[x * radix**i for x in row] for row in self.core.lower] for i in range(self.m)]
        return at, [self.keys[k] for k in reps], [ranks[self.firsts[k]] for k in reps], sizes, steps, {}

    def up_sums(self, values: Sequence[int], low: int = 0, high: int | None = None) -> list[int]:
        """For each orbit of conjugation by c (see `orbits`, in its order),
        the sum of `values`, one per orbit, over the closed up-set of its
        elements.  As in `m_triangle`, one pass per coordinate i: each
        representative A, in increasing rank, adds the values of the B that
        lower A[i] in NC, which lie above and so are not yet summed in this
        pass.  Only the representatives of rank low..high are summed: for
        values that vanish above `high` the sums are exact from rank `low`
        up, and below it the values come back as given.  A lowered key that
        is no element raises InvariantError naming it."""
        at, repkeys, rep_ranks, _, steps, _ = self._summed
        start = bisect_left(rep_ranks, low)
        stop = bisect_right(rep_ranks, self.type.rank if high is None else high)
        out = list(values)
        get, value, radix = at.__getitem__, out.__getitem__, self.core.size
        try:
            for scale, rows in zip((radix**i for i in range(self.m)), steps):
                for o in range(start, stop):
                    key = repkeys[o]
                    step = rows[key // scale % radix]
                    if step:
                        out[o] += sum(map(value, map(get, map(key.__add__, step))))
        except KeyError as exc:
            raise InvariantError(f"{self.name}: {exc.args[0]} lies above an element but is no element") from None
        return out

    def chain_count(self, jumps: Sequence[int]) -> int:
        """Multichains x_1 >= x_2 >= ... of NC^m whose ranks fall from n by
        the given jumps, the last one to 0: x_i has rank n - (j_1 + ... +
        j_i).  A chain through a rank outside 0..n, or that climbs, is none.
        The count for each prefix of ranks is kept: the indicator of the
        first rank, then per rank the up-set sums of the last state,
        restricted to the ranks between, read at that rank only."""
        n = self.type.rank
        partial = list(accumulate(jumps))
        if partial[-1] != n:
            raise InvalidArgument("jumps must sum to the rank")
        needed = tuple(n - p for p in partial[:-1])  # the ranks of x_1, x_2, ...
        if not needed:
            return 1
        if any(a < b for a, b in zip((n, *needed), (*needed, 0))):
            return 0
        _, _, rep_ranks, sizes, _, memo = self._summed
        state = [1 if r == needed[0] else 0 for r in rep_ranks]
        for k in range(2, len(needed) + 1):
            prefix = needed[:k]
            if prefix not in memo:
                t = prefix[-1]
                memo[prefix] = [v if r == t else 0 for v, r in zip(self.up_sums(state, t, prefix[-2]), rep_ranks)]
            state = memo[prefix]
        return sum(map(mul, state, sizes))

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
    t.single()  # UnsupportedType for a reducible or empty type
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
    quot, size, sigma = core.quot, core.size, core.sigma
    # multichains e <= c_0 <= ... <= c_(m-1) <= c of NC, grown one link at a
    # time as columns of first links, keys so far and last links a, over the
    # links (q, b) from a: quot[a] lists q = a^-1 b for b in (a, *above[a])
    # in increasing q, as the core stores them, and ends with a^-1 c.  The
    # first links, from e, are all of NC in order, since q = b there.
    # Within each level the links come in increasing q, and a prefix
    # (w_0, ..., w_(m-1)) fixes the whole tuple, so the walk lists NC^m in
    # sorted order with no sort.  The rows of the last link also add b^-1 c
    # in the next digit, so no column of last links follows them.  A further
    # column carries the keys of the conjugates c w_i c^-1, each q read
    # through sigma.
    ends = [row[-1] for row in quot]  # a^-1 c
    if m == 1:
        firsts, keys, conjugates = range(size), ends, list(map(sigma.__getitem__, ends))
    else:
        counts = list(map(len, quot))
        closed = [(a, *row) for a, row in enumerate(core.poset.above)]
        firsts = lasts = range(size)
    for level in range(1, m):  # the link c_(level-1) <= c_level, digit level - 1 of the key
        scale = size ** (level - 1)
        if level < m - 1:
            qs = [[q * scale for q in row] for row in quot]
            cs = [[sigma[q] * scale for q in row] for row in quot]
        else:  # the last link: each q with b^-1 c in the next digit
            rows = list(zip(quot, closed))
            qs = [[(q + size * ends[b]) * scale for q, b in zip(*row)] for row in rows]
            cs = [[(sigma[q] + size * sigma[ends[b]]) * scale for q, b in zip(*row)] for row in rows]
        if level == 1:  # every key so far is 0
            firsts = list(chain.from_iterable(map(repeat, firsts, counts)))
            keys, conjugates = list(chain.from_iterable(qs)), list(chain.from_iterable(cs))
        else:
            firsts = list(chain.from_iterable(map(repeat, firsts, map(counts.__getitem__, lasts))))
            keys = [key + q for key, a in zip(keys, lasts) for q in qs[a]]
            conjugates = [key + q for key, a in zip(conjugates, lasts) for q in cs[a]]
        if level < m - 1:
            lasts = list(chain.from_iterable(map(closed.__getitem__, lasts)))
    if len(firsts) != n_elements:
        raise InvariantError(f"NC^{m}({t}) has {len(firsts)} elements, Cat^({m}) = {n_elements}")
    if len(set(keys)) != len(keys):
        raise InvariantError(f"two elements of NC^{m}({t}) share the coordinates 1..{m}")
    ncm = NCmPoset(t, m, core, _index_array(size, firsts), _index_array(size**m, keys),
                   _index_array(size**m, conjugates))
    rank = core.poset.ranks[ncm.firsts[ncm.maximum()]]
    if rank != t.rank:
        raise InvariantError(f"the maximum of NC^{m}({t}) has rank {rank}")
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
