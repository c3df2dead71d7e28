"""Decomposition numbers by the per-element accumulation over the NC core:
the reference that the per-type recursion of `catwb.wgroup`, over the
parabolic-type table, is compared against."""

from collections import Counter

from catwb.wgroup import NCCore


def reference_chain_census(core: NCCore, max_d: int | None) -> Counter:
    """Strict chains from the identity, of at most max_d steps, to every
    element of the core, by the ordered tuple of their step types (the
    identity's empty chain included).  The type of the step u -> w is that of
    u^-1 w; elements are in rank order, so every chain reaches j before j is
    read, and each element pushes its census to every element above it."""
    depth = core.type.rank if max_d is None else min(max_d, core.type.rank)
    paths = [Counter() for _ in range(core.size)]
    paths[0][()] = 1
    buckets: Counter = Counter()
    for i in range(core.size):
        row, paths[i] = paths[i], None
        buckets.update(row)
        steps = [(paths[j], core.partypes[q]) for j, q in zip(core.poset.above[i], core.quot[i][1:])]
        for tau, cnt in row.items():
            if len(tau) < depth:
                for target, ty in steps:
                    target[tau + (ty,)] += cnt
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
