"""The M-triangle by one list of rows per rank: the reference that the packed
transforms, which hold all rows of an element in one integer, are compared
against: `catwb.ncposet.NCmPoset.m_triangle` and the pair sweep of
`oracle.mobius_sweep`."""

from catwb.exactmath import MPoly
from catwb.wgroup import Poset


def reference_m_triangle(poset: Poset) -> MPoly:
    """Sum of mu(u, w) x^rank(u) y^rank(w) over all pairs u <= w, by the row
    recursion over the up-lists in decreasing rank: h_s(u) = sum of mu(u, w)
    over w >= u of rank s = [rank u = s] - sum of h_s(v) over v > u."""
    top_rank = max(poset.ranks, default=0)
    h = [[0] * poset.size for _ in range(top_rank + 1)]
    tri = [[0] * (top_rank + 1) for _ in range(top_rank + 1)]
    for u in sorted(range(poset.size), key=poset.ranks.__getitem__, reverse=True):
        ru = poset.ranks[u]
        h[ru][u] = 1
        tri[ru][ru] += 1
        above = poset.above[u]
        for s in range(ru + 1, top_rank + 1):
            hs = h[s]
            hs[u] = v = -sum(map(hs.__getitem__, above))
            tri[ru][s] += v
    return MPoly({(ru, s): v for ru, row in enumerate(tri) for s, v in enumerate(row) if v})
