"""catwb: exact Coxeter-Catalan workbench.

A library and CLI for computing F-triangles of generalised cluster complexes,
building m-divisible non-crossing partition posets over finite reflection
groups, computing their M-triangles, and machine-verifying the identities
relating the two, all in exact arithmetic.
"""

__version__ = "0.1.0"

from .exactmath import MPoly, MUniPoly, substitute_fm
from .rootdata import Irreducible, RootSystemType, ir

__all__ = [
    "MPoly",
    "MUniPoly",
    "substitute_fm",
    "Irreducible",
    "RootSystemType",
    "ir",
    "__version__",
]
