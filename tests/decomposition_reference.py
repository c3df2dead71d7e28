"""Decomposition numbers by the per-element accumulation over the NC core:
the reference that the per-type recursion of `catwb.wgroup`, over the
parabolic-type table, is compared against."""

from collections import Counter

from catwb.wgroup import NCCore

from oracle import partypes


def reference_chain_census(core: NCCore, max_d: int | None) -> Counter:
    """Strict chains from the identity, of at most max_d steps, to every
    element of the core, by the ordered tuple of their step types (the
    identity's empty chain included).  The type of the step u -> w is that of
    u^-1 w; elements are in rank order, so every chain reaches u before w is
    formed, and each element pulls the census of every element below it."""
    depth = core.type.rank if max_d is None else min(max_d, core.type.rank)
    types = partypes(core.type)
    paths: list[Counter] = []
    buckets: Counter = Counter()
    for w, (row, qs) in enumerate(zip(core.down, core.quot)):
        census = Counter({(): 1} if w == 0 else {})
        for u, q in zip(row[:-1], qs[:-1]):
            for tau, cnt in paths[u].items():
                if len(tau) < depth:
                    census[tau + (types[q],)] += cnt
        paths.append(census)
        buckets.update(census)
    return buckets


def reference_decomposition_counts(core: NCCore, max_d: int | None) -> dict:
    """The counts of `DecompositionTable`, keyed by sorted type tuples, each
    checked to be the same for every ordering of its types."""
    counts: dict = {}
    for tau, cnt in reference_chain_census(core, max_d).items():
        key = tuple(sorted(tau, key=lambda T: (T.rank, str(T))))
        if counts.setdefault(key, cnt) != cnt:
            raise AssertionError(f"orderings of {key} differ")
    return counts
