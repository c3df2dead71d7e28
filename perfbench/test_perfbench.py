"""Tests of the benchmark's own machinery.

    python3 -m pytest -q perfbench        (or: python3 -m unittest discover -s perfbench)
"""

from __future__ import annotations

import copy
import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from checks import (  # noqa: E402
    counter_problems,
    fuss_catalan,
    group_order,
    load_reference,
    verify_problems,
)
from run import layer_metrics  # noqa: E402
from spans import LAYERS, METHODS, Tracer, self_times  # noqa: E402


class FakeClock:
    """Advances by a set step on every reading."""

    def __init__(self):
        self.now = 0.0
        self.step = 1.0

    def __call__(self):
        self.now += self.step
        return self.now


class SelfTimeTest(unittest.TestCase):
    def test_children_are_subtracted_once(self):
        spans = [
            ("cli", 0.0, 10.0, -1),
            ("wgroup.char_poly", 1.0, 8.0, 0),
            ("wgroup.char_poly", 2.0, 6.0, 1),  # recursion on a factor
            ("wgroup.build_nc", 3.0, 5.0, 2),
            ("wgroup.build_nc", 6.5, 7.0, 1),
        ]
        got = self_times(spans)
        self.assertAlmostEqual(got["cli"], 3.0)
        self.assertAlmostEqual(got["wgroup.char_poly"], (7.0 - 4.0 - 0.5) + (4.0 - 2.0))
        self.assertAlmostEqual(got["wgroup.build_nc"], 2.5)
        self.assertAlmostEqual(sum(got.values()), 10.0)

    def test_wrapped_recursion(self):
        clock = FakeClock()
        tracer = Tracer(clock)

        def build_nc(t):
            return t

        def char_poly(t):
            if isinstance(t, tuple):  # a reducible type recurses into its factors
                return [traced_char(f) for f in t]
            return traced_build(t)

        traced_build = tracer.wrap("wgroup.build_nc", build_nc)
        traced_char = tracer.wrap("wgroup.char_poly", char_poly)
        traced_char(("A2", "B3"))
        # every reading advances the clock by 1: the outer char_poly lasts 9,
        # each inner char_poly 3 and each build_nc 1
        times = self_times(tracer.spans)
        self.assertEqual(times["wgroup.build_nc"], 2.0)
        self.assertEqual(times["wgroup.char_poly"], (9 - 2 * 3) + 2 * (3 - 1))
        self.assertEqual(sum(times.values()), 9.0)
        self.assertEqual([s[0] for s in tracer.spans].count("wgroup.char_poly"), 3)

    def test_span_closes_on_exception(self):
        tracer = Tracer(FakeClock())

        def boom():
            raise ValueError("x")

        with self.assertRaises(ValueError):
            tracer.wrap("wgroup.build_nc", boom)()
        self.assertEqual(tracer.spans, [("wgroup.build_nc", 1.0, 2.0, -1)])
        self.assertEqual(tracer._stack, [])


def _catwb_namespaces():
    import catwb.cache
    import catwb.cli  # noqa: F401  imports every layer

    spaces = {name: dict(vars(mod)) for name, mod in sys.modules.items()
              if name == "catwb" or name.startswith("catwb.")}
    spaces["ResultCache"] = dict(vars(catwb.cache.ResultCache))
    return spaces


class InstallTest(unittest.TestCase):
    def test_uninstall_restores_every_attribute(self):
        import catwb.cache
        import catwb.ncposet
        import catwb.wgroup

        before = _catwb_namespaces()
        tracer = Tracer()
        tracer.install()
        try:
            self.assertIsNot(catwb.wgroup.build_nc, before["catwb.wgroup"]["build_nc"])
            # the same wrapper serves every namespace that imported the function
            self.assertIs(catwb.ncposet.build_nc, catwb.wgroup.build_nc)
            for layer, (modname, funcs) in LAYERS.items():
                for func in funcs:
                    self.assertIsNot(getattr(sys.modules[modname], func),
                                     before[modname][func], f"{modname}.{func}")
            for layer, (modname, cls, methods) in METHODS.items():
                for meth in methods:
                    self.assertIsNot(vars(catwb.cache.ResultCache)[meth],
                                     before["ResultCache"][meth])
            from catwb.rootdata import ir

            catwb.ncposet.build_ncm(ir("A2"), 2)
            names = {span[0] for span in tracer.spans}
            self.assertIn("ncposet.build_ncm", names)
        finally:
            tracer.uninstall()
        after = _catwb_namespaces()
        for space, attrs in before.items():
            for attr, value in attrs.items():
                self.assertIs(after[space][attr], value, f"{space}.{attr} not restored")

    def test_counters_of_a_small_run(self):
        import catwb.fmverify
        from catwb.rootdata import ir

        tracer = Tracer()
        tracer.install()
        try:
            catwb.fmverify.verify_fm(ir("B3"), "brute", 2)
        finally:
            tracer.uninstall()
        summary = tracer.summary()
        self.assertEqual(summary["ncms"], [("B3", 2, fuss_catalan("B3", 2), fuss_catalan("B3", 4))])
        self.assertEqual(counter_problems(summary), [])
        self.assertEqual(summary["verify_fm_equal"], 1)


class LayerMetricsTest(unittest.TestCase):
    summary = {"self_s": {"cli": 1.0}, "calls": {}, "ncms": [], "decomposition_keys": 0,
               "verify_fm_equal": 0,
               "cache": {"hits": 0, "misses": 0, "bytes_read": 0, "bytes_written": 0},
               # A3's core obtained twice, B2's read from disk without enumeration
               "groups": [("A3", 24)], "cores": [("A3", 14, 50), ("A3", 14, 50), ("B2", 6, 20)]}

    def test_discarded_counts_each_enumerated_group_once(self):
        got = layer_metrics(self.summary)
        self.assertEqual(got["wgroup.enumerate_group.discarded"], (24 - 14, "count"))
        self.assertEqual(got["wgroup.build_nc.elements"], (14 + 14 + 6, "count"))
        nothing = layer_metrics({**self.summary, "groups": []})
        self.assertEqual(nothing["wgroup.enumerate_group.discarded"], (0, "count"))

    def test_every_declared_per_layer_metric_is_reported(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        got = layer_metrics(self.summary)
        self.assertEqual(set(got), {m["name"] for m in spec["per_layer"]})
        for m in spec["per_layer"]:
            self.assertEqual(got[m["name"]][1], m["unit"], m["name"])


def _report(rows):
    return {"checks": [{"check": c, "type": t, "mode": mode, "m": m, "equal": eq,
                        "lhs_hash": "h", "note": ""} for c, t, mode, m, eq in rows]}


class ReferenceTest(unittest.TestCase):
    def setUp(self):
        self.reference = load_reference()

    def test_reference_passes(self):
        self.assertEqual(verify_problems(1, _report(self.reference), self.reference), [])

    def test_tampered_verdict_is_rejected(self):
        rows = [list(r) for r in self.reference]
        rows[0][4] = not rows[0][4]
        self.assertTrue(verify_problems(1, _report(rows), self.reference))

    def test_tampered_red_check_is_rejected(self):
        rows = [list(r) for r in self.reference]
        for row in rows:
            if row[:2] == ["dual-f", "D4"] and row[3] == 2:
                row[4] = True
        self.assertTrue(verify_problems(1, _report(rows), self.reference))

    def test_dropped_check_and_wrong_exit_are_rejected(self):
        report = _report(self.reference)
        shorter = copy.deepcopy(report)
        shorter["checks"].pop(5)
        self.assertTrue(verify_problems(1, shorter, self.reference))
        self.assertTrue(verify_problems(0, report, self.reference))
        self.assertTrue(verify_problems(1, None, self.reference))


class ClosedFormTest(unittest.TestCase):
    def test_known_values(self):
        self.assertEqual(group_order("E6"), 51_840)
        self.assertEqual(group_order("H4"), 14_400)
        self.assertEqual(group_order("I2(7)"), 14)
        self.assertEqual(fuss_catalan("E6", 1), 833)
        self.assertEqual(fuss_catalan("H4", 1), 280)
        self.assertEqual(fuss_catalan("E7", 2), 144_210)
        self.assertEqual(fuss_catalan("D4", 6), 13_300)
        self.assertEqual(fuss_catalan("D5", 2), 2_079)

    def test_wrong_counts_are_rejected(self):
        good = {"groups": [("A3", 24)], "cores": [("A3", 14, fuss_catalan("A3", 2))],
                "ncms": [("A3", 2, 55, fuss_catalan("A3", 4))]}
        self.assertEqual(counter_problems(good), [])
        for key, bad in (("groups", [("A3", 23)]), ("cores", [("A3", 14, 1)]),
                         ("ncms", [("A3", 2, 54, fuss_catalan("A3", 4))])):
            self.assertTrue(counter_problems({**good, key: bad}), key)


if __name__ == "__main__":
    unittest.main()
