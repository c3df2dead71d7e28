"""Report digests: SHA-256 of each polynomial's canonical dump, with the
interpreter's own SHA-256 or, where that is not built in, hashlib's."""

import hashlib
import sys

import pytest

from catwb.exactmath import MPoly
from catwb.fmverify import fm_lhs
from catwb.ftriangle import f_closed
from catwb.ncposet import m_triangle_bruteforce, m_triangle_formula
from catwb.report import _poly_hash, _sha256
from catwb.rootdata import ir

from test_fmverify import F_AND_LHS_SHA256, M_FORMULA_SHA256
from test_ncposet import BRUTE_SHA256


# a polynomial whose canonical dump carries a denominator other than 1
SIXTHS = MPoly.from_parts({(0, 1): ([3, -2], 6), (2, 0): ([5], 6)})


def pinned_polys():
    """(name, a maker of the polynomial, its pinned digest) for the pinned
    tables of the F=M and brute-force tests, and SIXTHS, pinned to nothing."""
    for s, (f_hash, lhs_hash) in F_AND_LHS_SHA256.items():
        yield f"f_closed {s}", lambda s=s: f_closed(ir(s)), f_hash
        yield f"fm_lhs {s}", lambda s=s: fm_lhs(ir(s)), lhs_hash
    for s, digest in M_FORMULA_SHA256.items():
        yield f"m_triangle_formula {s}", lambda s=s: m_triangle_formula(ir(s)), digest
    for case, digest in BRUTE_SHA256.items():
        name, m = case.split("/")
        yield f"brute {case}", lambda name=name, m=m: m_triangle_bruteforce(ir(name), int(m)), digest
    yield "sixths", lambda: SIXTHS, None


CASES = list(pinned_polys())


def test_sixths_has_a_denominator():
    assert SIXTHS.den == 6


@pytest.fixture
def without_builtin_sha256(monkeypatch):
    # None in sys.modules makes the import raise ImportError
    monkeypatch.setitem(sys.modules, "_sha2", None)
    monkeypatch.setitem(sys.modules, "_sha256", None)
    _sha256.cache_clear()
    yield
    _sha256.cache_clear()  # the next call picks the built-in module again


@pytest.mark.parametrize("name,make,pinned", CASES, ids=[c[0] for c in CASES])
class TestPolyHash:
    def test_the_digest_is_hashlibs(self, name, make, pinned):
        poly = make()
        digest = hashlib.sha256(poly.dumps().encode()).hexdigest()
        assert _poly_hash(poly) == digest
        assert pinned in (None, digest)

    def test_the_hashlib_fallback_gives_the_same_digest(self, name, make, pinned, without_builtin_sha256):
        poly = make()
        assert _sha256() is hashlib.sha256
        assert _poly_hash(poly) == hashlib.sha256(poly.dumps().encode()).hexdigest()


def test_the_digest_is_the_interpreters_own():
    module = "_sha2" if sys.version_info >= (3, 12) else "_sha256"
    assert _sha256() is sys.modules[module].sha256
