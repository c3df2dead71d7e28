"""Layer tracing from outside the program: wrap the public functions of each
catwb module, record one span per call, and derive self times and size
counters after the run.

Nothing under src/ knows about this module.  `install` replaces every module
attribute that refers to a wrapped function, in every loaded catwb module, so
calls through `from .wgroup import build_nc` are timed as well; `uninstall`
puts every original back.  Counting happens in `summary`, after the work, so
it adds nothing to the spans.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict

# Layer name -> (module, public functions wrapped).  The span of a function is
# named "<layer>.<function>"; catwb.cli.main is the root span "cli".
LAYERS = {
    "wgroup": ("catwb.wgroup", (
        "enumerate_group", "build_nc", "parabolic_type_of", "decomposition_numbers",
        "char_poly", "chain_counts_classical",
    )),
    "ncposet": ("catwb.ncposet", ("build_ncm", "m_triangle_bruteforce", "m_triangle_formula")),
    "fmverify": ("catwb.fmverify", ("verify_fm",)),
    "exactmath": ("catwb.exactmath", ("substitute_fm",)),
    "ftriangle": ("catwb.ftriangle", ("f_closed", "check_recurrence", "verify_dual")),
    "identities": ("catwb.identities", ("run_random_suite", "run_named_cases")),
    "cli": ("catwb.cli", ("main",)),
}
# Methods are wrapped on their class.
METHODS = {"cache": ("catwb.cache", "ResultCache", ("get", "put"))}

# Spans whose distinct results are kept for counting in `summary`.
_COUNTED = frozenset({
    "wgroup.enumerate_group", "wgroup.build_nc", "wgroup.decomposition_numbers",
    "ncposet.build_ncm",
})


def span_name(layer: str, func: str) -> str:
    return "cli" if (layer, func) == ("cli", "main") else f"{layer}.{func}"


def self_times(spans) -> dict[str, float]:
    """Self time per span name: each span's duration minus the durations of
    its direct children.  `spans` holds (name, start, end, parent_index)
    tuples; a recursive call is a child of its caller, so no interval is
    counted twice."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for i, (name, start, end, _) in enumerate(spans):
        out[name] += (end - start) - child[i]
    return dict(out)


class Tracer:
    """In-memory span recorder for one process; single-threaded."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.results: dict[str, dict[int, object]] = defaultdict(dict)
        self.cache_events: list[tuple[str, object, str, str, bool]] = []
        self.equal_reports = 0

    # -- recording ---------------------------------------------------------

    def wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else -1
            idx = len(tracer.spans)
            tracer.spans.append(None)
            stack.append(idx)
            start = tracer.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = tracer.clock()
                stack.pop()
                tracer.spans[idx] = (name, start, end, parent)
            tracer._note(name, args, kwargs, result)
            return result

        return traced

    def _note(self, name, args, kwargs, result):
        if name in _COUNTED:
            self.results[name].setdefault(id(result), result)
        elif name == "fmverify.verify_fm":
            self.equal_reports += bool(result.equal)
        elif name in ("cache.get", "cache.put"):
            cache, kind, key = (*args, kwargs.get("kind"), kwargs.get("key"))[:3]
            self.cache_events.append((name, cache, kind, key, result is not None))

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every listed function in every loaded catwb module that holds it."""
        originals = {}
        for layer, (modname, funcs) in LAYERS.items():
            mod = importlib.import_module(modname)
            for func in funcs:
                originals[id(getattr(mod, func))] = span_name(layer, func)
        wrappers: dict[int, object] = {}
        for modname, mod in sorted(sys.modules.items()):
            if not (modname == "catwb" or modname.startswith("catwb.")) or mod is None:
                continue
            for attr, value in list(vars(mod).items()):
                name = originals.get(id(value))
                if name is None:
                    continue
                if id(value) not in wrappers:
                    wrappers[id(value)] = self.wrap(name, value)
                self._set(mod, attr, wrappers[id(value)])
        for layer, (modname, cls_name, methods) in METHODS.items():
            cls = getattr(importlib.import_module(modname), cls_name)
            for meth in methods:
                self._set(cls, meth, self.wrap(f"{layer}.{meth}", vars(cls)[meth]))

    def _set(self, owner, attr, value) -> None:
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Restore every attribute `install` replaced, last patch first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- summary -----------------------------------------------------------

    def summary(self) -> dict:
        """Self times, call counts and size counters of everything recorded."""
        spans = [s for s in self.spans if s is not None]
        times = self_times(spans)
        calls = Counter(s[0] for s in spans)
        out: dict = {"self_s": times, "calls": dict(calls)}
        out["root_s"] = sum(end - start for _, start, end, parent in spans if parent < 0)
        cores = list(self.results["wgroup.build_nc"].values())
        groups = list(self.results["wgroup.enumerate_group"].values())
        ncms = list(self.results["ncposet.build_ncm"].values())
        tables = list(self.results["wgroup.decomposition_numbers"].values())
        out["groups"] = sorted((str(g.type), len(g.elements)) for g in groups)
        out["cores"] = sorted(
            (str(c.type), c.size, sum(mask.bit_count() for mask in c.poset.up)) for c in cores
        )
        out["ncms"] = sorted(
            (str(p.type), p.m, p.size, sum(mask.bit_count() for mask in p.poset.up)) for p in ncms
        )
        out["decomposition_keys"] = sum(len(t.counts) for t in tables)
        out["verify_fm_equal"] = self.equal_reports
        hits = misses = bytes_read = bytes_written = 0
        for name, cache, kind, key, found in self.cache_events:
            path = cache.path_for(kind, key)
            if name == "cache.get":
                if found:
                    hits += 1
                    bytes_read += path.stat().st_size
                else:
                    misses += 1
            elif path is not None:
                bytes_written += path.stat().st_size
        out["cache"] = {"hits": hits, "misses": misses, "bytes_read": bytes_read,
                        "bytes_written": bytes_written}
        return out
