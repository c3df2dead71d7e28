"""Exact arithmetic core: rationals, the quadratic field Q(sqrt 5) and its
ring of integers Z[tau], univariate polynomials in the Fuss parameter m, and
sparse bivariate polynomials in (x, y) whose coefficients are such
m-polynomials.

Everything here is immutable and exact; no floats anywhere.  Rational numbers
are `fractions.Fraction` throughout.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Iterable, Iterator, Mapping

from .errors import DegreeError, InvalidArgument, InvariantError

Rational = Fraction  # the coefficient field used everywhere


def _as_fraction(v) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    raise TypeError(f"expected int or Fraction, got {type(v).__name__}")


# ---------------------------------------------------------------------------
# Quadratic field Q(sqrt 5)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuadExt:
    """An element a + b*sqrt(5) of Q(sqrt 5), with exact Fraction components.

    Supports field arithmetic and the order inherited from the real embedding
    with sqrt(5) > 0.
    """

    a: Fraction
    b: Fraction

    @staticmethod
    def of(a, b=0) -> "QuadExt":
        return QuadExt(_as_fraction(a), _as_fraction(b))

    def __add__(self, other):
        other = _promote_quad(other)
        return QuadExt(self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __neg__(self):
        return QuadExt(-self.a, -self.b)

    def __sub__(self, other):
        return self + (-_promote_quad(other))

    def __rsub__(self, other):
        return _promote_quad(other) + (-self)

    def __mul__(self, other):
        other = _promote_quad(other)
        return QuadExt(
            self.a * other.a + 5 * self.b * other.b,
            self.a * other.b + self.b * other.a,
        )

    __rmul__ = __mul__

    def inverse(self) -> "QuadExt":
        norm = self.a * self.a - 5 * self.b * self.b
        if norm == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt 5)")
        return QuadExt(self.a / norm, -self.b / norm)

    def __truediv__(self, other):
        return self * _promote_quad(other).inverse()

    def __rtruediv__(self, other):
        return _promote_quad(other) * self.inverse()

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def sign(self) -> int:
        """Sign of the real number a + b*sqrt(5)."""
        if self.b == 0:
            return -1 if self.a < 0 else (1 if self.a > 0 else 0)
        if self.a == 0:
            return 1 if self.b > 0 else -1
        if self.a > 0 and self.b > 0:
            return 1
        if self.a < 0 and self.b < 0:
            return -1
        # opposite signs: compare a^2 with 5 b^2
        if self.a * self.a > 5 * self.b * self.b:
            return 1 if self.a > 0 else -1
        return 1 if self.b > 0 else -1

    def __lt__(self, other):
        return (self - _promote_quad(other)).sign() < 0

    def __le__(self, other):
        return (self - _promote_quad(other)).sign() <= 0

    def __gt__(self, other):
        return (self - _promote_quad(other)).sign() > 0

    def __ge__(self, other):
        return (self - _promote_quad(other)).sign() >= 0

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        if isinstance(other, QuadExt):
            return self.a == other.a and self.b == other.b
        return NotImplemented

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b))

    def __repr__(self):
        if self.b == 0:
            return f"{self.a}"
        return f"({self.a}+{self.b}*sqrt5)"


SQRT5 = QuadExt(Fraction(0), Fraction(1))
GOLDEN = QuadExt(Fraction(1, 2), Fraction(1, 2))  # (1 + sqrt 5)/2


def _promote_quad(v) -> QuadExt:
    if isinstance(v, QuadExt):
        return v
    if isinstance(v, (int, Fraction)):
        return QuadExt(_as_fraction(v), Fraction(0))
    raise TypeError(f"cannot coerce {type(v).__name__} to QuadExt")


class GoldInt:
    """u + v*tau with integer components, tau the golden ratio (tau^2 = tau+1):
    the ring Z[tau] of integers of Q(sqrt 5), in pure integer arithmetic.
    Integer multiples k*x are supported; x // y is the quotient, exact
    whenever y divides x (as for int), so callers check q * y == x."""

    __slots__ = ("u", "v")

    def __init__(self, u: int, v: int = 0):
        self.u = u
        self.v = v

    def __add__(self, o):
        return GoldInt(self.u + o.u, self.v + o.v)

    def __sub__(self, o):
        return GoldInt(self.u - o.u, self.v - o.v)

    def __neg__(self):
        return GoldInt(-self.u, -self.v)

    def __mul__(self, o):
        return GoldInt(self.u * o.u + self.v * o.v, self.u * o.v + self.v * o.u + self.v * o.v)

    def __rmul__(self, k: int):
        return GoldInt(k * self.u, k * self.v)

    def __floordiv__(self, o):
        # x / y = x * conj(y) / N(y), with conj(u + v tau) = (u + v) - v tau
        norm = o.u * o.u + o.u * o.v - o.v * o.v
        num = self * GoldInt(o.u + o.v, -o.v)
        return GoldInt(num.u // norm, num.v // norm)

    def __bool__(self):
        return self.u != 0 or self.v != 0

    def __eq__(self, o):
        return isinstance(o, GoldInt) and self.u == o.u and self.v == o.v

    def __hash__(self):
        return hash((self.u, self.v))

    def __repr__(self):
        return f"GoldInt({self.u},{self.v})"

    def sign(self) -> int:
        # u + v*tau = ((2u+v) + v*sqrt5)/2
        a, b = 2 * self.u + self.v, self.v
        if b == 0:
            return -1 if a < 0 else (1 if a > 0 else 0)
        if a == 0:
            return 1 if b > 0 else -1
        if (a > 0) == (b > 0):
            return 1 if a > 0 else -1
        return (1 if a > 0 else -1) if a * a > 5 * b * b else (1 if b > 0 else -1)


# ---------------------------------------------------------------------------
# Univariate polynomials in the Fuss parameter m
# ---------------------------------------------------------------------------


class MUniPoly:
    """A polynomial in the Fuss parameter m with Fraction coefficients.

    Stored as a tuple of coefficients by ascending power, trailing zeros
    trimmed; the zero polynomial is the empty tuple.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [_as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    # construction helpers -------------------------------------------------

    @staticmethod
    def const(c) -> "MUniPoly":
        return MUniPoly((_as_fraction(c),))

    @staticmethod
    def var() -> "MUniPoly":
        """The polynomial m itself."""
        return MUniPoly((Fraction(0), Fraction(1)))

    @staticmethod
    def coerce(v) -> "MUniPoly":
        if isinstance(v, MUniPoly):
            return v
        return MUniPoly.const(v)

    # inspection ------------------------------------------------------------

    def __bool__(self):
        return bool(self.coeffs)

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial given degree -1."""
        return len(self.coeffs) - 1

    def constant_value(self) -> Fraction:
        """The value of a degree-<=0 polynomial as a Fraction."""
        if len(self.coeffs) > 1:
            raise ValueError(f"{self} is not constant")
        return self.coeffs[0] if self.coeffs else Fraction(0)

    def eval(self, m_value) -> Fraction:
        v = _as_fraction(m_value)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * v + c
        return acc

    def is_nonneg(self) -> bool:
        """Whether every stored coefficient is >= 0."""
        return all(c >= 0 for c in self.coeffs)

    # arithmetic ------------------------------------------------------------

    def __add__(self, other):
        other = MUniPoly.coerce(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return MUniPoly(
            (self.coeffs[i] if i < len(self.coeffs) else 0)
            + (other.coeffs[i] if i < len(other.coeffs) else 0)
            for i in range(n)
        )

    __radd__ = __add__

    def __neg__(self):
        return MUniPoly(-c for c in self.coeffs)

    def __sub__(self, other):
        return self + (-MUniPoly.coerce(other))

    def __rsub__(self, other):
        return MUniPoly.coerce(other) + (-self)

    def __mul__(self, other):
        other = MUniPoly.coerce(other)
        if not self.coeffs or not other.coeffs:
            return MUniPoly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return MUniPoly(out)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        s = _as_fraction(scalar)
        return MUniPoly(c / s for c in self.coeffs)

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        out = MUniPoly.const(1)
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MUniPoly.const(other)
        if isinstance(other, MUniPoly):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return self.format()

    def format(self, var: str = "m", latex: bool = False) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            if i == 0:
                mono = ""
            elif i == 1:
                mono = var
            else:
                mono = f"{var}^{{{i}}}" if latex else f"{var}^{i}"
            if mono and abs(c) == 1:
                coef = "-" if c < 0 else ""
            else:
                if latex and c.denominator != 1:
                    body = f"\\frac{{{abs(c.numerator)}}}{{{c.denominator}}}"
                    coef = ("-" if c < 0 else "") + body
                else:
                    coef = str(c)
                if mono:
                    coef += " " if latex else "*"
            parts.append(coef + mono)
        out = " + ".join(parts)
        return out.replace("+ -", "- ")


M = MUniPoly.var()
ONE = MUniPoly.const(1)


def gen_binomial(N, K: int):
    """Generalized binomial coefficient N(N-1)...(N-K+1)/K!, zero for K < 0.

    N may be an integer, a Fraction, or an MUniPoly in m; the result has the
    matching kind (Fraction for numeric N, MUniPoly otherwise).
    """
    if isinstance(N, MUniPoly):
        if K < 0:
            return MUniPoly()
        out = MUniPoly.const(1)
        for i in range(K):
            out = out * (N - i)
        return out / factorial(K)
    N = _as_fraction(N)
    if K < 0:
        return Fraction(0)
    num = Fraction(1)
    for i in range(K):
        num *= N - i
    return num / factorial(K)


def binom_int(n: int, k: int) -> int:
    """Integer binomial under the same convention, for plain integer inputs."""
    v = gen_binomial(n, k)
    if v.denominator != 1:
        raise InvariantError(f"binom({n}, {k}) = {v} is not an integer")
    return v.numerator


# ---------------------------------------------------------------------------
# Sparse bivariate polynomials in (x, y) over Q[m]
# ---------------------------------------------------------------------------


class MPoly:
    """A sparse polynomial in x and y whose coefficients are MUniPoly in m.

    Terms are a map (deg_x, deg_y) -> MUniPoly with no stored zeros; equality
    is structural.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[tuple[int, int], MUniPoly] | None = None):
        t: dict[tuple[int, int], MUniPoly] = {}
        if terms:
            for key, c in terms.items():
                c = MUniPoly.coerce(c)
                if c:
                    t[key] = c
        object.__setattr__(self, "terms", t)

    # construction helpers -------------------------------------------------

    @staticmethod
    def zero() -> "MPoly":
        return MPoly()

    @staticmethod
    def const(c) -> "MPoly":
        return MPoly({(0, 0): MUniPoly.coerce(c)})

    @staticmethod
    def term(dx: int, dy: int, coeff=1) -> "MPoly":
        return MPoly({(dx, dy): MUniPoly.coerce(coeff)})

    @staticmethod
    def x() -> "MPoly":
        return MPoly.term(1, 0)

    @staticmethod
    def y() -> "MPoly":
        return MPoly.term(0, 1)

    @staticmethod
    def coerce(v) -> "MPoly":
        if isinstance(v, MPoly):
            return v
        return MPoly.const(v)

    # inspection ------------------------------------------------------------

    def __bool__(self):
        return bool(self.terms)

    def coeff(self, dx: int, dy: int) -> MUniPoly:
        return self.terms.get((dx, dy), MUniPoly())

    def support(self) -> list[tuple[int, int]]:
        return sorted(self.terms)

    @property
    def total_degree(self) -> int:
        """Max of deg_x + deg_y over stored terms (-1 for the zero poly)."""
        return max((k + l for k, l in self.terms), default=-1)

    def degree_x(self) -> int:
        return max((k for k, _ in self.terms), default=-1)

    def degree_y(self) -> int:
        return max((l for _, l in self.terms), default=-1)

    def iter_terms(self) -> Iterator[tuple[int, int, MUniPoly]]:
        for (k, l) in sorted(self.terms):
            yield k, l, self.terms[(k, l)]

    # arithmetic ------------------------------------------------------------

    def __add__(self, other):
        other = MPoly.coerce(other)
        out = dict(self.terms)
        for key, c in other.terms.items():
            s = out.get(key)
            s = c if s is None else s + c
            if s:
                out[key] = s
            else:
                out.pop(key, None)
        return MPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return MPoly({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-MPoly.coerce(other))

    def __rsub__(self, other):
        return MPoly.coerce(other) + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, MUniPoly)):
            c0 = MUniPoly.coerce(other)
            return MPoly({k: c * c0 for k, c in self.terms.items()})
        out: dict[tuple[int, int], MUniPoly] = {}
        for (k1, l1), c1 in self.terms.items():
            for (k2, l2), c2 in other.terms.items():
                key = (k1 + k2, l1 + l2)
                p = c1 * c2
                s = out.get(key)
                out[key] = p if s is None else s + p
        return MPoly(out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        out = MPoly.const(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, MUniPoly)):
            other = MPoly.coerce(other)
        if isinstance(other, MPoly):
            return self.terms == other.terms
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # specializations -------------------------------------------------------

    def diff_y(self) -> "MPoly":
        """Partial derivative with respect to y."""
        out = {}
        for (k, l), c in self.terms.items():
            if l >= 1:
                out[(k, l - 1)] = c * l
        return MPoly(out)

    def eval_m(self, m_value: int) -> "MPoly":
        """Evaluate every coefficient at a concrete m >= 0."""
        if m_value < 0:
            raise InvalidArgument("m must be non-negative")
        out = {}
        for key, c in self.terms.items():
            v = c.eval(m_value)
            if v:
                out[key] = MUniPoly.const(v)
        return MPoly(out)

    def eval_xy(self, x_value, y_value):
        """Evaluate at exact numeric (x, y); coefficients must be constant."""
        x_value = _as_fraction(x_value)
        y_value = _as_fraction(y_value)
        acc = Fraction(0)
        for (k, l), c in self.terms.items():
            acc += c.constant_value() * x_value**k * y_value**l
        return acc

    def subs_x_y(self, new_x: "MPoly", new_y: "MPoly") -> "MPoly":
        """Substitute polynomials for x and y."""
        out = MPoly.zero()
        for (k, l), c in self.terms.items():
            out = out + (new_x**k) * (new_y**l) * c
        return out

    def set_diagonal(self) -> "MPoly":
        """The specialization y := x, collected on powers of x."""
        out: dict[tuple[int, int], MUniPoly] = {}
        for (k, l), c in self.terms.items():
            key = (k + l, 0)
            s = out.get(key)
            out[key] = c if s is None else s + c
        return MPoly(out)

    # serialization ----------------------------------------------------------

    def to_json_obj(self) -> list[dict]:
        """Canonical JSON form: term list sorted by (dx, dy)."""
        out = []
        for (k, l) in sorted(self.terms):
            c = self.terms[(k, l)]
            out.append(
                {
                    "dx": k,
                    "dy": l,
                    "coeff": [f"{q.numerator}/{q.denominator}" for q in c.coeffs],
                }
            )
        return out

    @staticmethod
    def from_json_obj(obj: Iterable[Mapping]) -> "MPoly":
        terms = {}
        for entry in obj:
            coeff = MUniPoly(Fraction(s) for s in entry["coeff"])
            terms[(int(entry["dx"]), int(entry["dy"]))] = coeff
        return MPoly(terms)

    def dumps(self) -> str:
        return json.dumps(self.to_json_obj(), sort_keys=True, separators=(",", ":"))

    @staticmethod
    def loads(s: str) -> "MPoly":
        return MPoly.from_json_obj(json.loads(s))

    # formatting -------------------------------------------------------------

    def __repr__(self):
        return self.format()

    def format(self, latex: bool = False) -> str:
        """Human-readable rendering, terms by total degree then lexicographic."""
        if not self.terms:
            return "0"
        keys = sorted(self.terms, key=lambda kl: (kl[0] + kl[1], kl[0], kl[1]), reverse=True)
        parts = []
        for k, l in keys:
            c = self.terms[(k, l)]
            mono = ""
            if k:
                mono += "x" if k == 1 else (f"x^{{{k}}}" if latex else f"x^{k}")
            if l:
                mono += ("" if not mono else ("" if latex else "*")) + (
                    "y" if l == 1 else (f"y^{{{l}}}" if latex else f"y^{l}")
                )
            cs = c.format(latex=latex)
            if mono:
                if cs == "1":
                    parts.append(mono)
                    continue
                if cs == "-1":
                    parts.append("-" + mono)
                    continue
                if len(c.coeffs) - c.coeffs.count(Fraction(0)) > 1:
                    cs = f"\\left({cs}\\right)" if latex else f"({cs})"
                sep = " " if latex else "*"
                parts.append(cs + sep + mono)
            else:
                parts.append(cs)
        return " + ".join(parts).replace("+ -", "- ")


def poly_eval_m(p: MPoly, m_value: int) -> MPoly:
    """Evaluate every coefficient polynomial at a concrete m >= 0."""
    return p.eval_m(m_value)


def substitute_fm(F: MPoly, n: int) -> MPoly:
    """The rank-n cluster-to-partition transform of a polynomial F(x, y):

        (1 - x y)^n * F( x(1+y)/(1-xy), xy/(1-xy) )

    computed exactly by clearing the (1-xy) denominators monomial by monomial.
    Requires total degree of F at most n so the result is a polynomial.
    """
    if F.total_degree > n:
        raise DegreeError(
            f"total degree {F.total_degree} exceeds rank {n}; denominator cannot clear"
        )
    x = MPoly.x()
    y = MPoly.y()
    x_num = x * (1 + y)  # numerator of the x-substitute
    y_num = x * y  # numerator of the y-substitute
    one_minus_xy = 1 - x * y
    out = MPoly.zero()
    for (k, l), c in F.terms.items():
        out = out + (x_num**k) * (y_num**l) * (one_minus_xy ** (n - k - l)) * c
    return out
