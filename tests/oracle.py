"""Reference computations the tests compare catwb against: the absolute order,
the absolute length checked two ways, and the Coxeter element of an
enumerated group, the set bits of a mask, the down-set rows and the order
test of a poset, NC^m as sorted delta tuples with their ranks and keys, the
Mobius function, zeta polynomials, Mobius column vectors and rank-jump
chain counts of a poset, the M-triangle by a sweep over every related pair
and by a coordinate sweep over every element of NC^m, the conjugates of the
elements of NC^m by c read off their keys, rank censuses of intervals and of
NC, the parabolic types of NC from the walk, the rows of an NC core formed
element by element, the parabolic-type table read off an NC core, and a
canonical JSON dump of a core for pinned digests."""

import itertools
from operator import mul
from collections import Counter
from fractions import Fraction

from catwb.errors import CatwbError, InvalidArgument, InvariantError
from catwb.exactmath import MPoly
from catwb.ncposet import NCmPoset, unpack_rows
from catwb.rootdata import RootSystemType
from catwb.wgroup import GroupTable, NCCore, Poset, TypeTable, build_nc, walk_nc

from mpoly_reference import M, gen_binomial


class NotComparable(CatwbError, ValueError):
    """Two poset elements are not related in the partial order."""


_NONZERO = bytes([0] + [1] * 255)
_BYTE_BITS = [tuple(i for i in range(8) if b >> i & 1) for b in range(256)]


def _iter_bits(mask: int) -> list[int]:
    """Set bits of mask in increasing order, by a C-level scan of its bytes."""
    data = mask.to_bytes((mask.bit_length() + 7) // 8, "little")
    flags = data.translate(_NONZERO)
    out = []
    k = flags.find(1)
    while k >= 0:
        for i in _BYTE_BITS[data[k]]:
            out.append(8 * k + i)
        k = flags.find(1, k + 1)
    return out


def down(poset: Poset) -> list[int]:
    """down[j] has bit i set iff element i <= element j: the transpose of
    the up-set rows, memoised on the poset."""
    rows = vars(poset).get("down")
    if rows is None:
        rows = vars(poset)["down"] = [0] * poset.size
        for i, mask in enumerate(poset.up):
            for j in _iter_bits(mask):
                rows[j] |= 1 << i
    return rows


def leq(poset: Poset, i: int, j: int) -> bool:
    return bool(poset.up[i] >> j & 1)


def abs_leq(table: GroupTable, u, w) -> bool:
    """The absolute-order test: lengths add along u, u^-1 w."""
    lu = table.abs_length_of(u)
    lw = table.abs_length_of(w)
    if lu > lw:
        return False
    q = table.backend.mul(table.backend.inv(u), w)
    return lu + table.abs_length_of(q) == lw


def abs_length(table: GroupTable, w) -> int:
    """Absolute length as the rank of nc_step, the rank of the subsystem of
    roots w moves; checked to agree with the breadth-first layering oracle."""
    rank = table.backend.nc_step(w)[0]
    bfs = table.abs_length_of(w)
    if rank != bfs:
        raise InvariantError(f"length methods disagree on {w!r}: {rank} vs {bfs}")
    return rank


def coxeter_element(table: GroupTable):
    return table.coxeter


def _poset(core_or_poset) -> Poset:
    return core_or_poset.poset if isinstance(core_or_poset, NCCore) else core_or_poset


def ncm_tuples(core: NCCore, m: int) -> tuple[list[tuple[int, ...]], list[int], list[int]]:
    """NC^m as its sorted delta tuples (w_0; w_1, ..., w_m), their ranks and
    their keys, the sum of w_i |NC|^(i-1) over i = 1..m: the factorizations
    of c grown one factor at a time as (delta so far, rest r), each factor
    q <= r leaving q^-1 r, from r = c, then sorted and keyed in separate
    passes."""
    level = [((), core.top)]
    for _ in range(m):
        level = [(delta + (q,), p) for delta, r in level for q, p in zip(core.down[r], core.quot[r])]
    elements = sorted(delta + (r,) for delta, r in level)
    ranks = [core.ranks[delta[0]] for delta in elements]
    radix = [core.size**i for i in range(m)]
    keys = [sum(map(mul, delta[1:], radix)) for delta in elements]
    return elements, ranks, keys


def mobius(core_or_poset, i: int, j: int) -> int:
    """Mobius function of the interval [i, j], memoised on the poset."""
    poset = _poset(core_or_poset)
    if not leq(poset, i, j):
        raise NotComparable(f"{i} is not below {j}")
    memo = vars(poset).setdefault("_mobius", {})
    got = memo.get((i, j))
    if got is not None:
        return got
    total = 0
    for v in _iter_bits(poset.up[i] & down(poset)[j] & ~(1 << j)):
        total += mobius(poset, i, v)
    memo[(i, j)] = out = 1 if i == j else -total
    return out


def mobius_column_vectors(poset: Poset) -> list[list[int]]:
    """For each w, the x-polynomial sum of mu(u, w) x^rank(u) over u <= w,
    as integer coefficient lists indexed by rank: the column recursion over
    down-sets."""
    top_rank = max(poset.ranks, default=0)
    g: list[list[int] | None] = [None] * poset.size
    for w in sorted(range(poset.size), key=poset.ranks.__getitem__):
        vec = [0] * (top_rank + 1)
        vec[poset.ranks[w]] = 1
        for v in _iter_bits(down(poset)[w] & ~(1 << w)):
            for idx, c in enumerate(g[v]):
                vec[idx] -= c
        g[w] = vec
    return g


def mobius_sweep(n: int, size: int, upsets, name: str) -> MPoly:
    """The M-triangle, sum of mu(u, w) x^rank(u) y^rank(w) over all pairs
    u <= w of a poset of `size` elements and ranks 0..n, in one pass over
    every related pair.

    `upsets` yields (rank u, closed up-set of u) in non-increasing rank, each
    up-set listing u first and then the v > u, by any hashable keys.  Each
    element gets one integer h(u) = X^rank(u) - sum of h(v) over v > u, whose
    field s, in base X = 2^W with W as in NCmPoset.m_triangle, is the sum of
    mu(u, w) over w >= u of rank s; row r of the triangle is the sum of h(u)
    over u of rank r.  A key above an element that was not swept before it
    raises InvariantError naming the poset."""
    width = (n + 1) * (size + 1).bit_length() + 1
    ones = [1 << width * r for r in range(n + 1)]
    rows = [0] * (n + 1)
    h: dict = {}
    get = h.__getitem__
    try:
        for r, up in upsets:
            h[up[0]] = v = ones[r] - sum(map(get, itertools.islice(up, 1, None)))
            rows[r] += v
    except KeyError as exc:
        raise InvariantError(
            f"{name}: {exc.args[0]!r} lies above an element but is not an element of higher rank"
        ) from None
    return unpack_rows(rows, width)


def poset_m_triangle(poset: Poset) -> MPoly:
    """The pair sweep over the up-lists of a poset in decreasing rank."""
    order = sorted(range(poset.size), key=poset.ranks.__getitem__, reverse=True)
    upsets = ((poset.ranks[u], (u, *poset.above[u])) for u in order)
    return mobius_sweep(max(poset.ranks, default=0), poset.size, upsets, "the poset")


def ncm_pair_sweep(ncm: NCmPoset) -> MPoly:
    """The pair sweep over NC^m in reverse stored order, each element reading
    its up-set as the product of the NC down-lists of its coordinates."""
    upsets = zip(reversed(ncm.ranks), ncm._up_keys(reversed(ncm.keys)))
    return mobius_sweep(ncm.type.rank, ncm.size, upsets, ncm.name)


def per_element_m_triangle(ncm: NCmPoset) -> MPoly:
    """The coordinate sweep solving every element of NC^m in each pass, in
    ascending key order: h(A) -= the h(B) of the B that lower A[i] in NC,
    of smaller keys and so final; the reference for the sweep that catwb
    solves one c-conjugation orbit at a time.  Values are read by key with
    W as in NCmPoset.m_triangle; a key that is no element raises
    InvariantError."""
    radix, n = ncm.core.size, ncm.type.rank
    width = (n + 1) * (ncm.size + 1).bit_length() + 1
    ranks = ncm.core.ranks
    h = {key: 1 << width * ranks[w0] for key, w0 in zip(ncm.keys, ncm.firsts)}
    get = h.__getitem__
    try:
        for scale in (radix**i for i in range(ncm.m)):
            steps = [[x * scale for x in row] for row in ncm.core.lower]
            for key in sorted(h):
                h[key] -= sum(map(get, map(key.__add__, steps[key // scale % radix])))
    except KeyError as exc:
        raise InvariantError(f"{ncm.name}: {exc.args[0]} lies above an element but is no element") from None
    rows = [0] * (n + 1)
    for key, w0 in zip(ncm.keys, ncm.firsts):
        rows[ranks[w0]] += h[key]
    return unpack_rows(rows, width)


def digit_conjugates(ncm: NCmPoset) -> list[int]:
    """For each element of NC^m, the key of its conjugate by c in every
    coordinate, NCCore.sigma applied to each base-|NC| digit of its key: the
    reference for the column that the multichain walk carries."""
    radix, sigma = ncm.core.size, ncm.core.sigma
    out = [0] * ncm.size
    for scale in (radix**i for i in range(ncm.m)):
        scaled = [s * scale for s in sigma]
        out = [c + scaled[key // scale % radix] for c, key in zip(out, ncm.keys)]
    return out


def zeta_values(poset: Poset, i: int, j: int, max_z: int) -> list[int]:
    """Multichain counts from i to j with z links, for z = 0..max_z."""
    interval = sorted(_iter_bits(poset.up[i] & down(poset)[j]))
    pos = {e: k for k, e in enumerate(interval)}
    vec = [0] * len(interval)
    vec[pos[i]] = 1
    out = [1 if i == j else 0]
    for _ in range(max_z):
        nxt = [0] * len(interval)
        for k, e in enumerate(interval):
            if vec[k]:
                for f in _iter_bits(poset.up[e] & down(poset)[j]):
                    nxt[pos[f]] += vec[k]
        vec = nxt
        out.append(vec[pos[j]])
    return out


def zeta_poly(core_or_poset, i: int, j: int) -> list[Fraction]:
    """Exact coefficients of the zeta polynomial Z(i, j; z), interpolated
    from multichain counts; Z(-1) is checked to equal the Mobius value."""
    poset = _poset(core_or_poset)
    if not leq(poset, i, j):
        raise NotComparable(f"{i} is not below {j}")
    deg = poset.ranks[j] - poset.ranks[i]
    # Newton's forward differences: Z(z) = sum of (Delta^k Z)(0) binom(z, k)
    diffs = zeta_values(poset, i, j, deg)
    poly = MPoly.zero()  # Z(z) as a constant of MPoly, z written as m
    for k in range(deg + 1):
        poly += diffs[0] * gen_binomial(M, k)
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    poly = poly.coeff(0, 0)
    z_at_neg1 = poly.eval(-1)
    mu = mobius(poset, i, j)
    if z_at_neg1 != mu:
        raise InvariantError(f"zeta(-1) = {z_at_neg1} but mobius = {mu}")
    return list(poly.coeffs)


def chain_count_brute(poset: Poset, rank: int, jumps: tuple[int, ...]) -> int:
    """Multichains in the dual of an m-divisible poset with the given rank
    jumps: descending multichains with prescribed co-ranks, by a walk over
    the up-lists of each rank in turn; the reference for the up-set sums
    that catwb counts them by."""
    partial = list(itertools.accumulate(jumps))
    if partial[-1] != rank:
        raise InvalidArgument("jumps must sum to the rank")
    needed = [rank - p for p in partial[:-1]]  # ranks in the primal order
    if not needed:
        return 1
    slices: dict[int, list[int]] = {}  # a rank outside the poset has no elements
    for i, r in enumerate(poset.ranks):
        slices.setdefault(r, []).append(i)
    current = {e: 1 for e in slices.get(needed[0], [])}
    for r in needed[1:]:
        nxt: dict[int, int] = {}
        for f in slices.get(r, []):
            # f itself when a jump is zero, else the e above f
            total = current.get(f, 0) + sum(current.get(e, 0) for e in poset.above[f])
            if total:
                nxt[f] = total
        current = nxt
    return sum(current.values())


def interval_rank_genfun(core: NCCore, w: int) -> list[int]:
    """Rank census of the lower interval [identity, w] inside NC."""
    out = [0] * (core.ranks[w] + 1)
    for v in core.down[w]:
        out[core.ranks[v]] += 1
    return out


def nc_rank_genfun(t: RootSystemType, group_cap: int | None = None) -> tuple[int, ...]:
    """Rank census of NC(t); multiplicative (convolution) over factors."""
    out = [1]
    for f in t.factors:
        counts = build_nc(RootSystemType.make(f), group_cap).poset.rank_counts()
        new = [0] * (len(out) + len(counts) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(counts):
                new[i + j] += a * b
        out = new
    return tuple(out)


def partypes(t: RootSystemType) -> list[RootSystemType]:
    """The parabolic type of each element of NC(t), in canonical order, as
    the walk of NC classifies it."""
    _, elems, steps = walk_nc(t)
    return [steps[w][2] for w in elems]


def per_element_rows(t: RootSystemType) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """The down-sets and quotient rows of NC(t) formed element by element
    from the walk: each strict up-set pushed top down to the lower covers
    t w, the down-sets read off them, and one product u^-1 w per pair, u
    inverted for each; the reference for the core that catwb forms one
    c-conjugation orbit at a time from the down-sets of the lower covers."""
    backend, elems, steps = walk_nc(t)
    mul, inv, refls = backend.mul, backend.inv, backend.reflections
    index = {w: i for i, w in enumerate(elems)}
    ups: list[set[int]] = [set() for _ in elems]
    for i in reversed(range(len(elems))):
        w = elems[i]
        for r in steps[w][1]:
            lower = ups[index[mul(refls[r], w)]]
            lower |= ups[i]
            lower.add(i)
    rows: list[list[int]] = [[] for _ in elems]
    for u in range(len(elems)):
        for d in (u, *ups[u]):
            rows[d].append(u)
    quots = [tuple(index[mul(inv(elems[u]), w)] for u in row) for row, w in zip(rows, elems)]
    return [tuple(row) for row in rows], quots


def type_table_from_core(core: NCCore) -> TypeTable:
    """The parabolic-type table read off the rows of a core, with the types
    from the walk: for the first element w_B of each type, the types of each
    u < w_B and of its quotient u^-1 w_B; the reference for the table that
    catwb reads off the walk of NC without building a core."""
    types_of = partypes(core.type)
    types = tuple(dict.fromkeys(types_of))
    tid = list(map({T: b for b, T in enumerate(types)}.__getitem__, types_of))
    counts = [Counter() for _ in types]
    for b in range(len(types)):
        w_b = tid.index(b)
        for u, q in zip(core.down[w_b][:-1], core.quot[w_b][:-1]):
            counts[b][tid[u], tid[q]] += 1
    pairs = tuple(tuple((a, c, k) for (a, c), k in sorted(row.items())) for row in counts)
    return TypeTable(types, tuple(map(tid.count, range(len(types)))), pairs)


def core_dump(core: NCCore) -> dict:
    """Canonical JSON form of a core: ranks, up-set bit rows in hex, each
    quotient row as (j, u_i^-1 u_j) pairs for j = i and then the j > i in
    increasing order, read off the down-sets whose quotients the core keeps,
    and the parabolic types.  It is the layout, version field included, of
    the core entries that earlier versions of catwb kept on disk, so that
    digests pinned then still apply."""
    quot: list[list[list[int]]] = [[] for _ in range(core.size)]
    for j, (row, qs) in enumerate(zip(core.down, core.quot, strict=True)):
        for i, q in zip(row, qs, strict=True):
            quot[i].append([j, q])
    return {
        "repr_version": 1,
        "type": str(core.type),
        "rank": core.type.rank,
        "ranks": list(core.ranks),
        "up": [format(sum(1 << j for j, _ in pairs), "x") for pairs in quot],
        "quot": quot,
        "partypes": [str(t) for t in partypes(core.type)],
    }
