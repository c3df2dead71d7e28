"""Finite reflection-group engine.

Two backends, each in one integral ring: every type but I2(a) acts by
permutations of its roots, with the Gram matrix read off the Coxeter diagram
(over Z for A, B, D, F and E, over Z[tau] for H), and the dihedral types by
abstract rotation/reflection indices.  On top of them: the non-crossing
partition poset NC, characteristic polynomials, parabolic-type
classification, decomposition numbers and chain counts.

Each root has one index, its place in increasing simple-root coordinates.
The canonical order of NC sorts its elements by (rank, byte string), where
the byte string lists the images of the roots in that order; NC indices,
type tables and exported posets all follow it.

NC is walked top down from the Coxeter element c without enumerating W
(walk_nc): each backend's nc_step gives the rank of an element, the
reflections below it and its parabolic type, for the root backend from the
byte tables alone: the roots it moves are those whose cycle sums to zero,
and the Coxeter labels of its subsystem are orders of products of two
reflections.  As Mov(u) lies inside Mov(w) for u <= w (Brady-Watt), each
lower cover is stepped on the roots of the reflections below its upper cover
only, not on all of Phi; and as conjugation by c permutes NC, only one
element per c-conjugation orbit is stepped.  Coordinates are used only to
build the tables.
Only enumerate_group lists W; with its breadth-first absolute lengths it is
the oracle the tests compare the NC walk against.

Decomposition numbers and characteristic polynomials come from one table of
parabolic types per type.  For w <= c the interval [e, w] is NC of the
parabolic subgroup W_w with Coxeter element w, and its steps keep their
types (Armstrong, Mem. AMS 2009), so what is counted below w depends on the
type of w alone: the table keeps, per type B, its number of elements and,
below its first element w_B, the counts P_B(A, C) of u of type A with
u^-1 w_B of type C.  It is read off the walk alone, with no up-sets or
quotients (Krattenthaler-Muller, Trans. AMS 2010, need only the types of u
and of u^-1 w_B), and it is all that persists on disk (kind `nctypes`), so
formula-mode runs build no core.  The core, each element's down-set with
its quotients u^-1 w, is built in memory from the same walk's lower covers,
and never stored, for the brute-force NC^m, chain counts and exports.  It
too is formed for one element per orbit, the rows of the others mapped
through the index permutation that conjugation by c induces, and each row
is an index array in increasing index.

Posets are immutable once built and memoised by type alone: every public
entry point checks the group cap from the closed-form |W| before any memo or
disk read, so E7 and E8 are rejected up front under the default cap.  Those
that need an irreducible type call RootSystemType.single, the one
irreducibility check, which raises UnsupportedType for a reducible or empty
type.  Broken internal invariants raise InvariantError, also under python -O.
"""

from __future__ import annotations

import itertools
import sys
from array import array
from collections import Counter
from functools import cached_property, lru_cache, reduce
from math import factorial, prod
from operator import add

from .errors import (
    BudgetExceeded,
    ClassificationError,
    InvalidArgument,
    InvariantError,
    UnsupportedType,
)
from .exactmath import GoldInt, MPoly, binom_int
from .rootdata import (
    Irreducible,
    RootSystemType,
    _classify_diagram,
    degrees_irr,
    fuss_catalan,
    gram_matrix,
    group_order_irr,
    positive_root_count,
    positive_root_count_irr,
)

DEFAULT_GROUP_CAP = 100_000
DEFAULT_POSET_CAP = 2_000_000  # bound on the squared size of an NC^m poset


# ---------------------------------------------------------------------------
# Group backends
# ---------------------------------------------------------------------------


def _is_pos(v) -> bool:
    """Whether the first nonzero coordinate of v is positive."""
    for c in v:
        if c:
            return (c.sign() if isinstance(c, GoldInt) else c) > 0
    return False


def _sort_key(v):
    return tuple((c.u, c.v) if isinstance(c, GoldInt) else (c, 0) for c in v)


def _divexact(a, b):
    q = a // b
    if q * b != a:
        raise InvariantError(f"{a!r} is not divisible by {b!r}")
    return q


class RootPermBackend:
    """Every type but I2(a): elements act as permutations of the full root
    list, stored as 256-padded byte tables so composition is a single
    translate().  Types with more than 255 roots raise BudgetExceeded.

    Coordinates are used only here, in __init__.  Roots live in the
    simple-root basis with the doubled Gram matrix G read off the Coxeter
    diagram, in one ring: integers for the crystallographic types, GoldInt
    elements of Z[tau] for the H types.  Every root has one index, its place
    in increasing coordinates, and an element's byte string is its images of
    the roots in that order.  Negation reverses that order, so root g and
    root nroots - 1 - g are negatives of each other; and as the coordinates
    of a positive root (both integer parts, in Z[tau]) are all >= 0, the npos
    negative roots come first, which __init__ checks: root npos + r is the
    r-th positive root, the root of reflection r.  Only the n simple tables
    come from coordinates, read off the images s_i(gamma) formed while
    closing the positive roots; the table of every other positive root beta
    is s_i s_gamma s_i, for the step beta = s_i(gamma) that found it.  Each
    root is also kept as one packed int, `packed`, so that nc_step sums the
    roots of a cycle as plain ints.
    """

    def __init__(self, irr: Irreducible):
        nroots = 2 * positive_root_count_irr(irr)
        if nroots > 255:
            raise BudgetExceeded(f"{irr} has {nroots} roots; byte tables hold at most 255", nroots)
        self.type = irr
        self.rank = n = irr.rank
        gram = gram_matrix(irr)
        ring = type(gram[0][0])
        zero = ring(0)

        def reflect(i, beta):
            # s_i changes coordinate i only, by 2 (G beta)_i / G_ii
            p = sum((g * b for g, b in zip(gram[i], beta) if g and b), zero)
            if not p:
                return beta
            img = list(beta)
            img[i] -= _divexact(2 * p, gram[i][i])
            return tuple(img)

        units = [tuple(ring(int(i == j)) for j in range(n)) for i in range(n)]
        positives = set(units)
        # images[i][gamma] = s_i(gamma) for every positive gamma: -alpha_i for
        # gamma = alpha_i, and the rest formed while closing the positive roots
        images = [{alpha: tuple(-c for c in alpha)} for alpha in units]
        conjugates = []  # (beta, i, gamma) with beta = s_i(gamma), gamma found first
        frontier = list(units)
        while frontier:
            nxt = []
            for gamma in frontier:
                for i in range(n):
                    if gamma == units[i]:
                        continue
                    beta = images[i][gamma] = reflect(i, gamma)
                    if beta not in positives:
                        positives.add(beta)
                        conjugates.append((beta, i, gamma))
                        nxt.append(beta)
            frontier = nxt
        coords = sorted(positives | {tuple(-c for c in beta) for beta in positives}, key=_sort_key)
        self.nroots = len(coords)
        self.npos = npos = self.nroots // 2
        self.pos_roots = coords[npos:]
        if not all(map(_is_pos, self.pos_roots)):
            raise InvariantError(f"the upper half of the sorted roots of {irr} is not positive")
        index = {v: i for i, v in enumerate(coords)}
        tail = bytes(range(self.nroots, 256))
        self.identity = bytes(range(self.nroots)) + tail
        # s_i on the positive roots; as s_i(-beta) = -s_i(beta) and root g is
        # the negative of root nroots - 1 - g, the negative half is the
        # positive half reversed and complemented
        last = self.nroots - 1
        self.simple_reflections = simple = []
        for image in images:
            row = [index[image[beta]] for beta in self.pos_roots]
            simple.append(bytes(last - g for g in reversed(row)) + bytes(row) + tail)
        table = dict(zip(units, simple))
        for beta, i, gamma in conjugates:
            table[beta] = simple[i].translate(table[gamma]).translate(simple[i])
        self.reflections = [table[alpha] for alpha in self.pos_roots]
        fields = [[x for pair in _sort_key(v) for x in pair] for v in coords]
        width = (self.nroots * max(abs(x) for f in fields for x in f)).bit_length() + 1
        # each field of a cycle sum is below 2**(width - 1) in size, so the sum is 0 iff every field is
        self.packed = [sum(x << width * k for k, x in enumerate(f)) for f in fields]

    def mul(self, p, q):
        return q.translate(p)

    def inv(self, p):
        # the table sending p[i] to i
        return bytes.maketrans(p, self.identity)

    def nc_step(self, p, roots=None):
        """Rank, reflections below (indices into self.reflections) and type of
        p, read off its cycles on the roots.  A root lies in Mov(p) exactly
        when the roots of its cycle sum to zero, that sum being the cycle
        length times its projection onto Fix(p); the reflections below p are
        those of the positive roots in Mov(p) (Brady-Watt), and the rank of
        the subsystem they span is the rank of p (Carter's lemma).  The cycle
        of -alpha is the negation of the cycle of alpha, so cycles are walked
        from positive roots only and each marks its negation as well.

        `roots`, increasing reflection indices, limits the walk to their
        positive roots; by default all are walked.  The reflections below any
        w >= p suffice: p lies in the parabolic subgroup of w, which permutes
        those roots, and Mov(p) is inside Mov(w)."""
        packed = self.packed
        nroots, npos = self.nroots, self.npos
        roots = range(npos) if roots is None else roots
        moved = bytearray(nroots)
        seen = bytearray(nroots)
        for r in roots:
            g = npos + r
            if seen[g]:
                continue
            cycle = [g]
            h = p[g]
            while h != g:
                cycle.append(h)
                h = p[h]
            in_mov = not sum(map(packed.__getitem__, cycle))
            for h in cycle:
                seen[h] = seen[nroots - 1 - h] = 1
                moved[h] = moved[nroots - 1 - h] = in_mov
        below = [r for r in roots if moved[npos + r]]
        ptype = self.classify(below)
        return ptype.rank, below, ptype

    def classify(self, below: list[int]) -> RootSystemType:
        """Classify the closed subsystem whose positive roots are those of the
        given reflections, on the byte tables alone: the simple roots are the
        ones whose reflection sends exactly one root of the subsystem
        negative, two simple roots are joined by the order of the product of
        their reflections when it exceeds 2, and the diagram is matched
        against the catalog."""
        if not below:
            return RootSystemType.empty()
        inset = set(below)
        npos = self.npos
        simples = []
        for i in below:
            perm = self.reflections[i]
            negatives = 0
            for j in below:
                # the image's reflection index, complemented (~r) when negative
                k = perm[npos + j] - npos
                if k in inset:
                    continue
                if ~k in inset:
                    negatives += 1
                    if negatives > 1:
                        break
                else:
                    raise ClassificationError("root subset is not closed")
            if negatives == 1:
                simples.append(perm)
        edges = []
        for (ii, su), (jj, sv) in itertools.combinations(enumerate(simples), 2):
            rot = power = self.mul(su, sv)
            label = 1
            while power != self.identity:
                power = self.mul(rot, power)
                label += 1
            if label > 2:
                edges.append((ii, jj, label))
        result = _classify_diagram(len(simples), tuple(edges))
        if positive_root_count(result) != len(below):
            raise ClassificationError(
                f"{result} expects {positive_root_count(result)} positive roots, got {len(below)}"
            )
        return result


class DihedralBackend:
    """I2(a) handled abstractly: ('r', k) rotations and ('s', k) reflections,
    with s_k = r^k s_0; no coordinates and no new number fields."""

    def __init__(self, a: int):
        self.type = Irreducible("I", 2, a)
        self.rank = 2
        self.a = a
        self.identity = ("r", 0)
        self.reflections = [("s", k) for k in range(a)]
        self.simple_reflections = [("s", 0), ("s", 1)]

    def mul(self, p, q):
        a = self.a
        pk, pv = p
        qk, qv = q
        if pk == "r" and qk == "r":
            return ("r", (pv + qv) % a)
        if pk == "r" and qk == "s":
            return ("s", (pv + qv) % a)
        if pk == "s" and qk == "r":
            return ("s", (pv - qv) % a)
        return ("r", (pv - qv) % a)

    def inv(self, p):
        if p[0] == "s":
            return p
        return ("r", (-p[1]) % self.a)

    def nc_step(self, p, roots=None):
        """Rank, reflections below and parabolic type of p: nothing is below
        the identity, s_k alone is below s_k, every reflection below a rotation.
        `roots` is not needed here."""
        if p == ("r", 0):
            return 0, [], RootSystemType.empty()
        if p[0] == "s":
            return 1, [p[1]], RootSystemType.irreducible("A", 1)
        return 2, list(range(self.a)), RootSystemType.irreducible("I", 2, self.a)


@lru_cache(maxsize=None)
def _backend_for(irr: Irreducible):
    """The backend of one irreducible type, built once: the walk of NC and
    the enumeration of W share it."""
    if irr.family == "I":
        return DihedralBackend(irr.param)
    return RootPermBackend(irr)


# ---------------------------------------------------------------------------
# Group tables
# ---------------------------------------------------------------------------


class GroupTable:
    """A fully enumerated reflection group with absolute lengths."""

    def __init__(self, type: Irreducible, backend, elements: list, index: dict, abs_len: list[int], coxeter):
        self.type = type
        self.backend = backend
        self.elements = elements
        self.index = index
        self.abs_len = abs_len
        self.coxeter = coxeter

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def reflections(self) -> list:
        return self.backend.reflections

    def abs_length_of(self, w) -> int:
        return self.abs_len[self.index[w]]


def enumerate_group(irr: Irreducible, group_cap: int | None = None) -> GroupTable:
    """Enumerate W for one irreducible type; BudgetExceeded above the cap."""
    _check_group_cap(RootSystemType.make(irr), group_cap)
    return _enumerate_group(irr)


def _check_group_cap(t: RootSystemType, group_cap: int | None) -> None:
    """BudgetExceeded when the closed-form |W| of a factor of t exceeds the
    cap.  Public entry points call it before any memo or disk read, so the
    memoised functions behind them are keyed by the type alone."""
    cap = DEFAULT_GROUP_CAP if group_cap is None else group_cap
    for irr in t.factors:
        order = group_order_irr(irr)
        if order > cap:
            raise BudgetExceeded(f"|W({irr})| = {order} exceeds group cap {cap}", order)


@lru_cache(maxsize=None)
def _enumerate_group(irr: Irreducible) -> GroupTable:
    order = group_order_irr(irr)
    backend = _backend_for(irr)
    mul = backend.mul
    # closure under the simple reflections
    seen = {backend.identity}
    frontier = [backend.identity]
    while frontier:
        nxt = []
        for w in frontier:
            for s in backend.simple_reflections:
                v = mul(s, w)
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt
    if len(seen) != order:
        raise InvariantError(f"enumerated {len(seen)} of expected {order}")
    elements = sorted(seen)
    index = {w: i for i, w in enumerate(elements)}
    # absolute length by breadth-first layering over the full reflection set
    lengths = {backend.identity: 0}
    frontier = [backend.identity]
    level = 0
    while frontier:
        nxt = []
        level += 1
        for w in frontier:
            for t in backend.reflections:
                v = mul(t, w)
                if v not in lengths:
                    lengths[v] = level
                    nxt.append(v)
        frontier = nxt
    abs_len = [lengths[w] for w in elements]
    coxeter = reduce(mul, backend.simple_reflections)
    table = GroupTable(irr, backend, elements, index, abs_len, coxeter)
    if table.abs_length_of(coxeter) != irr.rank:
        raise InvariantError(f"Coxeter element of {irr} has length {table.abs_length_of(coxeter)}")
    return table


def parabolic_type_of(table: GroupTable, w) -> RootSystemType:
    """Type of w as a parabolic Coxeter element: classify the sub-root-system
    of the roots w moves."""
    return table.backend.nc_step(w)[2]


# ---------------------------------------------------------------------------
# Generic graded posets: sorted up-lists, bit rows derived on demand
# ---------------------------------------------------------------------------


class Poset:
    """A finite graded poset: ranks plus the order as strict up-lists, one
    increasing sequence of indices per element.  The bit rows `up` are
    derived from the lists on first read."""

    def __init__(self, ranks: list[int], above: list):
        self.ranks = ranks
        self.above = above  # above[i]: the j > i in the order
        self.size = len(ranks)

    @cached_property
    def up(self) -> list[int]:
        """up[i] has bit j set iff element i <= element j."""
        return [sum(1 << j for j in (i, *row)) for i, row in enumerate(self.above)]

    def rank_counts(self) -> list[int]:
        return [self.ranks.count(r) for r in range(max(self.ranks, default=0) + 1)]


# ---------------------------------------------------------------------------
# The non-crossing partition poset NC and its quotient structure
# ---------------------------------------------------------------------------


class NCCore:
    """NC for one irreducible type: the interval below the Coxeter element,
    with the rank of each element, and conjugation by c as an index array:
    sigma[i] is the index of c u_i c^-1, a rank-preserving automorphism of
    the order.  down[d] is an index array of the u <= d, increasing, so from
    the identity 0 to d, and quot[d], aligned with it, lists the quotients
    u^-1 d, again indices into NC: as u -> u^-1 d maps [e, d] onto itself,
    the pairs (q, q^-1 d) that split d, as the NC^m walk reads them."""

    def __init__(self, type: RootSystemType, ranks: list[int], down: list, quot: list, sigma):
        self.type = type
        self.ranks = ranks
        self.down = down
        self.quot = quot
        self.sigma = sigma

    @property
    def size(self) -> int:
        return len(self.ranks)

    @property
    def top(self) -> int:
        return self.size - 1

    @cached_property
    def lower(self) -> list[list[int]]:
        """For each index d, y - d for the y < d below d, y increasing: the
        down-sets but d itself as index differences, formed once per core.
        The values are read from one table, by index y - d from its end, so
        the rows share their ints."""
        table = list(range(-self.size, 0))
        return [[table[y - d] for y in row[:-1]] for d, row in enumerate(self.down)]

    @cached_property
    def poset(self) -> Poset:
        """The strict up-lists, transposed from the down-sets on first read;
        only the tests and the benchmark's pair count read them."""
        above: list[list[int]] = [[] for _ in self.down]
        for d, row in enumerate(self.down):
            for u in row[:-1]:
                above[u].append(d)
        return Poset(self.ranks, above)


def build_nc(t: RootSystemType, group_cap: int | None = None) -> NCCore:
    """Build NC for an irreducible catalog type; BudgetExceeded above the
    group cap, checked before the memo is consulted."""
    t.single()  # UnsupportedType for a reducible or empty type
    _check_group_cap(t, group_cap)
    return _build_nc(t)


def _conjugation(backend, g):
    """The map w -> g w g^-1 and the permutation of reflection indices it
    induces: r -> the index of g t_r g^-1."""
    mul, g_inv = backend.mul, backend.inv(g)
    index = {t: r for r, t in enumerate(backend.reflections)}

    def conj(w):
        return mul(mul(g, w), g_inv)

    return conj, [index[conj(t)] for t in backend.reflections]


def walk_nc(t: RootSystemType):
    """Walk NC(t) top down from c without enumerating W: the lower covers of
    w are t w for the reflections t below w, walked level by level.  Returns
    the backend, the elements in canonical order and a dict from each element
    to its nc_step: rank, reflections below and parabolic type.  The lower
    covers are not kept, as their byte tables would outweigh the rest.

    Conjugation by c permutes NC(c) (it is the square of the Kreweras
    complement; Armstrong, Mem. AMS 2009), keeps rank and parabolic type, and
    carries the reflections below w to those below c w c^-1.  So only the
    first element the walk meets in each orbit is stepped, on the roots of
    the reflections below one of its upper covers; the rest of its orbit, at
    most h elements, is filled in from it.  Only that first element's lower
    covers are formed: each orbit one level down holds a conjugate of a lower
    cover of it, so the next level still meets every orbit.  The walk checks
    that every orbit closes within h conjugations and that it finds Cat(W)
    elements."""
    f = t.single()
    backend = _backend_for(f)
    mul, refls = backend.mul, backend.reflections
    n, h = t.rank, max(degrees_irr(f))
    c = reduce(mul, backend.simple_reflections)
    conj, perm = _conjugation(backend, c)
    steps = {}
    level = {c: None}  # w -> the reflections below an upper cover
    for depth in range(n + 1):
        nxt: dict = {}
        for w, roots in level.items():
            if w in steps:  # a conjugate of an element met earlier, whose lower covers stand for its own
                rank = steps[w][0]
            else:
                steps[w] = rank, below, ptype = backend.nc_step(w, roots)
                for i in below:
                    nxt.setdefault(mul(refls[i], w), below)
                u = conj(w)
                for _ in range(h):
                    if u == w:
                        break
                    below = sorted(map(perm.__getitem__, below))
                    steps[u] = rank, below, ptype
                    u = conj(u)
                else:
                    raise InvariantError(f"the c-conjugation orbit of {w!r} has not closed after h = {h} steps")
            if rank != n - depth:
                raise InvariantError(f"{w!r} at depth {depth} below c has length {rank}")
        level = nxt
    if len(steps) != fuss_catalan(t, 1):
        raise InvariantError(f"the walk of NC({t}) found {len(steps)} elements, not Cat(W) = {fuss_catalan(t, 1)}")
    elems = sorted(steps, key=lambda w: (steps[w][0], w))
    if steps[elems[0]][2] != RootSystemType.empty():
        raise InvariantError(f"identity classified as {steps[elems[0]][2]}")
    if steps[elems[-1]][2] != t:
        raise InvariantError(f"Coxeter element classified as {steps[elems[-1]][2]}")
    return backend, elems, steps


def _index_array(bound: int, values=()):
    """values, all below bound, in the narrowest of the array typecodes 'H',
    'I' and 'Q' that holds them, or in a list where none does."""
    for code in "HIQ":
        if bound <= 1 << 8 * array(code).itemsize:
            return array(code, values)
    return list(values)


@lru_cache(maxsize=None)
def _build_nc(t: RootSystemType) -> NCCore:
    """Add the down-sets and the quotients u^-1 w to the walk of NC, formed
    bottom up for one element w per c-conjugation orbit: the down-set of w
    is w and those of its lower covers t w, for the t below w in the walk,
    and u^-1 w = (u^-1 c) (w^-1 c)^-1, with u^-1 c from the row of c, formed
    first.  As conjugation by c is a poset automorphism of NC and
    (c u c^-1)^-1 (c w c^-1) = c (u^-1 w) c^-1, the rows of c w c^-1 are
    those of w with both halves mapped through the index permutation sigma,
    and re-sorted.  The rows are index arrays (see _index_array): 'H' up to
    65,536 elements."""
    backend, elems, steps = walk_nc(t)
    mul, inv, refls = backend.mul, backend.inv, backend.reflections
    size, c = len(elems), elems[-1]
    index = {w: i for i, w in enumerate(elems)}
    conj, _ = _conjugation(backend, c)
    sigma = [index[conj(w)] for w in elems]
    code = _index_array(size).typecode
    wide = {"H": "I", "I": "Q"}[code]  # a (high, low) pair of indices in one int
    width = 8 * array(code).itemsize
    high = [s << width for s in sigma]
    lo = 0 if sys.byteorder == "little" else 1  # where the low half of a wide int lies in memory
    down: list = [None] * size
    quot: list = [None] * size
    down[-1] = array(code, range(size))
    quot[-1] = complements = array(code, [index[mul(inv(u), c)] for u in elems])  # u^-1 c
    # bottom up, so the down-sets of the lower covers are complete; the
    # element of each orbit met first is formed, and the rest conjugated from it
    for i in range(size):
        if down[i] is not None:
            continue
        w = elems[i]
        below = {i}
        for r in steps[w][1]:
            below.update(down[index[mul(refls[r], w)]])
        row = sorted(below)
        cw = inv(elems[complements[i]])  # c^-1 w
        rows = array(code, row), array(code, [index[mul(elems[complements[u]], cw)] for u in row])
        j = i
        while True:
            down[j], quot[j] = rows
            if sigma[j] == i:
                break
            # the same pairs for sigma(j), (index, quotient) in one wide int each, sorted by index
            pairs = sorted(map(add, map(high.__getitem__, down[j]), map(sigma.__getitem__, quot[j])))
            halves = array(code, array(wide, pairs).tobytes())
            rows = halves[1 - lo::2], halves[lo::2]
            j = sigma[j]
    return NCCore(t, [steps[w][0] for w in elems], down, quot, array(code, sigma))


REPR_VERSION = 1

_disk_cache = None  # ResultCache set by the CLI; library default is in-memory only


def set_disk_cache(cache):
    """Install a ResultCache so that type tables persist across runs;
    returns the cache it replaces."""
    global _disk_cache
    previous, _disk_cache = _disk_cache, cache
    return previous


class TypeTable:
    """The parabolic types of NC(t) in canonical order, which is rank order, so
    types[0] is the empty type and types[-1] is t; mult[b] elements have
    type B = types[b], and pairs[b] lists (a, c, P_B(A, C)) for the u below
    the first element w_B of type B: P_B(A, C) of them have type A with
    u^-1 w_B of type C."""

    def __init__(self, types: tuple[RootSystemType, ...], mult: tuple[int, ...],
                 pairs: tuple[tuple[tuple[int, int, int], ...], ...]):
        self.types = types
        self.mult = mult
        self.pairs = pairs

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.types, self.mult, self.pairs) == (other.types, other.mult, other.pairs)

    @cached_property
    def char_polys(self) -> list[tuple[int, ...]]:
        """chi_B(y) = sum of mu(u, w_B) y^rank(u) over u <= w_B, as integer
        coefficients by power of y, for every B: mu(u, w_B) is mu_C, the
        constant term of chi_C, and mu_B = -(the other coefficients), since
        the mu(u, w_B) sum to zero."""
        out: list[tuple[int, ...]] = []
        for B, row in zip(self.types, self.pairs):
            coeffs = [0] * B.rank + [1]
            for a, c, count in row:
                if a:
                    coeffs[self.types[a].rank] += count * out[c][0]
            coeffs[0] -= sum(coeffs[1:])
            out.append(tuple(coeffs))
        return out

    def to_obj(self) -> dict:
        return {"repr_version": REPR_VERSION, "types": [str(T) for T in self.types],
                "mult": list(self.mult), "pairs": [[list(p) for p in row] for row in self.pairs]}

    @staticmethod
    def from_obj(obj: dict, t: RootSystemType) -> "TypeTable":
        """Read a stored table, checked against closed forms: |NC(t)| and
        every |NC(B)| are Catalan numbers, the types run from e to t, and
        each count joins two earlier types whose ranks add up."""
        if obj["repr_version"] != REPR_VERSION:
            raise ValueError("stale representation version")
        types = tuple(map(RootSystemType.parse, obj["types"]))
        mult, pairs = tuple(obj["mult"]), tuple(tuple(map(tuple, row)) for row in obj["pairs"])
        if types[0].factors or types[-1] != t or not len(types) == len(mult) == len(pairs) == len(set(types)):
            raise ValueError("the stored types do not run from e to t")
        if sum(mult) != fuss_catalan(t, 1):
            raise ValueError("the stored multiplicities do not sum to Cat(W)")
        for b, (B, row) in enumerate(zip(types, pairs)):
            for a, c, _ in row:
                if not (0 <= a < b and (0 <= c < b if a else c == b)) or types[a].rank + types[c].rank != B.rank:
                    raise ValueError(f"the stored row of {B} joins types out of order")
            if 1 + sum(count for _, _, count in row) != fuss_catalan(B, 1):
                raise ValueError(f"the stored row of {B} does not sum to Cat({B}) - 1")
        return TypeTable(types, mult, pairs)


def _type_table_fresh(t: RootSystemType) -> TypeTable:
    """Read the table off the walk of NC, with no core: the u < w_B are
    reached through lower covers, and the types of u and of u^-1 w_B, again
    an element of NC, are looked up in the walk.  The last row, that of c,
    needs no walk: every other element lies below c."""
    backend, elems, steps = walk_nc(t)
    mul, inv, refls = backend.mul, backend.inv, backend.reflections
    reps = {}  # type -> its first element w_B
    for w in elems:
        reps.setdefault(steps[w][2], w)
    tid = {T: b for b, T in enumerate(reps)}
    tid_of = {w: tid[steps[w][2]] for w in elems}
    mult = Counter(steps[w][2] for w in elems)
    pairs = []
    for w_b in reps.values():
        if w_b == elems[-1]:
            below = elems[:-1]
        else:
            below, stack = set(), [w_b]
            while stack:
                w = stack.pop()
                for r in steps[w][1]:
                    v = mul(refls[r], w)
                    if v not in below:
                        below.add(v)
                        stack.append(v)
        counts = Counter((tid_of[u], tid_of[mul(inv(u), w_b)]) for u in below)
        pairs.append(tuple((a, c, k) for (a, c), k in sorted(counts.items())))
    return TypeTable(tuple(reps), tuple(mult[T] for T in reps), tuple(pairs))


@lru_cache(maxsize=None)
def _type_table(t: RootSystemType) -> TypeTable:
    """The table of t read from the disk cache, or else built and written;
    an entry that TypeTable.from_obj rejects reads as a miss."""
    if _disk_cache is not None:
        stored = _disk_cache.get("nctypes", str(t))
        if stored is not None:
            try:
                return TypeTable.from_obj(stored, t)
            except (AttributeError, IndexError, KeyError, TypeError, ValueError):  # stale or incomplete
                pass
    table = _type_table_fresh(t)
    if _disk_cache is not None:
        _disk_cache.put("nctypes", str(t), table.to_obj())
    return table


def char_poly(t: RootSystemType, group_cap: int | None = None) -> MPoly:
    """Characteristic polynomial of NC(t) in the variable y: the rank-weighted
    Mobius sums toward the top element, read off the type table of each
    factor.  Multiplicative over factors."""
    _check_group_cap(t, group_cap)
    out = MPoly.const(1)
    for f in t.factors:
        chi = _type_table(RootSystemType.make(f)).char_polys[-1]
        out = out * MPoly({(0, i): v for i, v in enumerate(chi) if v})
    return out


# ---------------------------------------------------------------------------
# Decomposition numbers
# ---------------------------------------------------------------------------


def _type_sort_key(t: RootSystemType):
    return (t.rank, str(t))


class DecompositionTable:
    """Counts of minimal length-additive factor tuples below the Coxeter
    element, bucketed by the multiset of parabolic types (keys are tuples
    sorted by rank then name; the empty tuple has count 1)."""

    def __init__(self, type: RootSystemType, counts: dict[tuple[RootSystemType, ...], int]):
        self.type = type
        self.counts = counts

    def n(self, *types: RootSystemType) -> int:
        key = tuple(sorted(types, key=_type_sort_key))
        return self.counts.get(key, 0)

    def full_rank_entries(self) -> dict[tuple[RootSystemType, ...], int]:
        n = self.type.rank
        return {k: v for k, v in self.counts.items() if sum(T.rank for T in k) == n and k}

    def closure_violations(self) -> list[str]:
        """Entries breaking the completion identity: each lower-rank count
        must equal the sum of its one-step full-rank-direction completions."""
        n = self.type.rank
        out = []
        types_by_rank: dict[int, set[RootSystemType]] = {}
        for key in self.counts:
            for T in key:
                types_by_rank.setdefault(T.rank, set()).add(T)
        for key, v in self.counts.items():
            deficit = n - sum(T.rank for T in key)
            if deficit <= 0:
                continue
            total = 0
            for T in types_by_rank.get(deficit, ()):  # absent completions count zero
                total += self.n(*key, T)
            if total != v:
                out.append(f"N{key} = {v} but completions sum to {total}")
        return out


def decomposition_numbers(t: RootSystemType, group_cap: int | None = None) -> DecompositionTable:
    """Count minimal products below the Coxeter element by parabolic type
    tuple: the decomposition numbers of Krattenthaler-Muller.  Strict chains
    from the identity are counted per parabolic type from the type table, not
    walked; order symmetry of the counts is verified before collapsing to
    sorted keys."""
    t.single()  # UnsupportedType for a reducible or empty type
    _check_group_cap(t, group_cap)
    table = _type_table(t)
    types = table.types
    # paths[b][tau]: strict chains from the identity to w_B by step types tau,
    # each a chain to some u < w_B of type A followed by the step u -> w_B
    paths: list[dict[tuple[int, ...], int]] = []
    buckets: dict[tuple[int, ...], int] = {}
    for mult, pairs in zip(table.mult, table.pairs):
        row = {} if paths else {(): 1}
        for a, c, count in pairs:
            for tau, cnt in paths[a].items():
                tau += (c,)
                row[tau] = row.get(tau, 0) + count * cnt
        paths.append(row)
        for tau, cnt in row.items():
            buckets[tau] = buckets.get(tau, 0) + mult * cnt
    del buckets[()]

    by_key: dict[tuple[RootSystemType, ...], dict[tuple, int]] = {}
    for tau, cnt in buckets.items():
        key = tuple(sorted((types[i] for i in tau), key=_type_sort_key))
        by_key.setdefault(key, {})[tau] = cnt
    counts: dict[tuple[RootSystemType, ...], int] = {(): 1}
    for key, variants in by_key.items():
        mult = factorial(len(key))
        for _, grp in itertools.groupby(sorted(key, key=_type_sort_key)):
            mult //= factorial(len(list(grp)))
        values = set(variants.values())
        if len(values) != 1 or len(variants) != mult:
            raise InvariantError(f"type-tuple symmetry violated at {key}: {variants}")
        counts[key] = values.pop()
    return DecompositionTable(t, counts)


# ---------------------------------------------------------------------------
# Rank-selected chain counts: closed formulas and brute force
# ---------------------------------------------------------------------------


class ChainCountResult:
    def __init__(self, type: RootSystemType, m: int, jumps: tuple[int, ...], formula: int, brute: int):
        self.type = type
        self.m = m
        self.jumps = jumps
        self.formula = formula
        self.brute = brute

    @property
    def equal(self) -> bool:
        return self.formula == self.brute


def chain_count_formula(t: RootSystemType, m: int, jumps: tuple[int, ...]) -> int:
    """Closed chain counts for the classical families: products of binomials
    over the rank jumps, which may be zero but not negative (type D only at
    m = 1)."""
    f = t.single()
    n = f.rank
    if sum(jumps) != n or min(jumps, default=0) < 0:
        raise InvalidArgument("jumps must be non-negative and sum to the rank")
    if f.family == "A":
        v = binom_int(n + 1, jumps[-1])
        for s in jumps[:-1]:
            v *= binom_int(m * (n + 1), s)
        if v % (n + 1):
            raise InvariantError(f"chain count {v}/{n + 1} of {t} is not an integer")
        return v // (n + 1)
    if f.family == "B":
        v = binom_int(n, jumps[-1])
        for s in jumps[:-1]:
            v *= binom_int(m * n, s)
        return v
    if f.family == "D":
        if m != 1:
            raise UnsupportedType("type D chain counts are only available at m = 1")
        v = 2 * prod(binom_int(n - 1, s) for s in jumps)
        for i in range(len(jumps)):
            v += prod(binom_int(n - 2, s - 2) if j == i else binom_int(n - 1, s) for j, s in enumerate(jumps))
        return v
    raise UnsupportedType(f"no closed chain count for {t}")


def chain_counts_classical(
    t: RootSystemType,
    m: int,
    jumps: tuple[int, ...],
    group_cap: int | None = None,
    poset_cap: int | None = None,
) -> ChainCountResult:
    """Closed-form chain count plus the brute-force count from the
    m-divisible poset, by up-set sums over its c-conjugation orbits
    (NCmPoset.chain_count); they must agree.  BudgetExceeded when the poset
    or the group exceeds its cap."""
    formula = chain_count_formula(t, m, jumps)
    # the one import inside a function: ncposet imports wgroup, and this
    # function stays here because perfbench's tracer looks it up in wgroup
    from .ncposet import build_ncm

    brute = build_ncm(t, m, group_cap=group_cap, poset_cap=poset_cap).chain_count(tuple(jumps))
    return ChainCountResult(t, m, tuple(jumps), formula, brute)
