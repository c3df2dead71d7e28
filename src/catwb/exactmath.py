"""Exact arithmetic core: the ring Z[tau] of integers of Q(sqrt 5) (`GoldInt`,
the one representation of the golden-ratio field), univariate polynomials in
the Fuss parameter m, sparse bivariate polynomials in (x, y) whose
coefficients are such m-polynomials, and the two polynomial transforms the
identities need.

Everything here is immutable and exact; no floats anywhere.  Scalars are
ints and `fractions.Fraction`s; an m-polynomial keeps integer numerators over
one common denominator, and its coefficients come back as Fractions only when
read.  Every bivariate product, sum, scaling and transform is one integer
kernel: numerators over one denominator, accumulated per output monomial.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, gcd, lcm
from typing import Callable, Iterable, Iterator, Mapping

from .errors import DegreeError, InvalidArgument


def _as_fraction(v) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    raise TypeError(f"expected int or Fraction, got {type(v).__name__}")


def _parts(v) -> tuple[tuple[int, ...], int]:
    """The numerators and denominator of an MUniPoly, int or Fraction, with
    no Fraction built; anything else (bool too) is coerced first."""
    if isinstance(v, MUniPoly):
        return v.nums, v.den
    if type(v) is int:
        return (v,), 1
    if isinstance(v, Fraction):
        return (v.numerator,), v.denominator
    v = MUniPoly.coerce(v)
    return v.nums, v.den


# ---------------------------------------------------------------------------
# The ring Z[tau] of integers of Q(sqrt 5)
# ---------------------------------------------------------------------------


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
    """A polynomial in the Fuss parameter m with rational coefficients.

    Stored as integer numerators `nums` by ascending power, trailing zeros
    trimmed, over one positive common denominator `den`, in lowest terms:
    gcd(den, *nums) == 1, and the zero polynomial is ((), 1).  `coeffs` gives
    the same coefficients as a tuple of Fractions.
    """

    __slots__ = ("nums", "den")

    def __init__(self, coeffs: Iterable = ()):
        cs = [_as_fraction(c) for c in coeffs]
        den = lcm(*(c.denominator for c in cs))
        _normalise(self, [c.numerator * (den // c.denominator) for c in cs], den)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):  # copy and pickle without __setattr__
        return _mup, (list(self.nums), self.den)

    # construction helpers -------------------------------------------------

    @staticmethod
    def const(c) -> "MUniPoly":
        c = _as_fraction(c)
        return _mup([c.numerator], c.denominator)

    @staticmethod
    def var() -> "MUniPoly":
        """The polynomial m itself."""
        return _mup([0, 1], 1)

    @staticmethod
    def coerce(v) -> "MUniPoly":
        if isinstance(v, MUniPoly):
            return v
        return MUniPoly.const(v)

    # inspection ------------------------------------------------------------

    def __bool__(self):
        return bool(self.nums)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients by ascending power, as Fractions."""
        return tuple(Fraction(a, self.den) for a in self.nums)

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial given degree -1."""
        return len(self.nums) - 1

    def constant_value(self) -> Fraction:
        """The value of a degree-<=0 polynomial as a Fraction."""
        if len(self.nums) > 1:
            raise ValueError(f"{self} is not constant")
        return Fraction(self.nums[0], self.den) if self.nums else Fraction(0)

    def eval(self, m_value) -> Fraction:
        """The value at an exact m = p/q, by a homogeneous integer Horner."""
        v = _as_fraction(m_value)
        p, q = v.numerator, v.denominator
        acc, qk = 0, 1
        for c in reversed(self.nums):
            acc = acc * p + c * qk
            qk *= q
        return Fraction(acc * q, self.den * qk)

    def is_nonneg(self) -> bool:
        """Whether every stored coefficient is >= 0."""
        return all(a >= 0 for a in self.nums)

    # arithmetic ------------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, MPoly):  # so that MPoly.__radd__ runs
            return NotImplemented
        b, bden = _parts(other)
        a, den = self.nums, self.den
        if den != bden:
            g = gcd(den, bden)
            a = [c * (bden // g) for c in a]
            b = [c * (den // g) for c in b]
            den *= bden // g
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return _mup(out, den)

    __radd__ = __add__

    def __neg__(self):
        return _mup([-a for a in self.nums], self.den)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if isinstance(other, MPoly):  # so that MPoly.__rmul__ runs
            return NotImplemented
        b, bden = _parts(other)
        a = self.nums
        if len(b) == 1:  # a scalar scales the numerators
            return _mup([c * b[0] for c in a], self.den * bden)
        if not a or not b:
            return MUniPoly()
        out = [0] * (len(a) + len(b) - 1)
        for i, c in enumerate(a):
            if c:
                for j, d in enumerate(b):
                    out[i + j] += c * d
        return _mup(out, self.den * bden)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        return self * (1 / _as_fraction(scalar))

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
            return self.nums == other.nums and self.den == other.den
        return NotImplemented

    def __hash__(self):
        return hash((self.nums, self.den))

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


def _normalise(p: MUniPoly, nums: list[int], den: int) -> None:
    """Store nums/den (den > 0) in p: trailing zeros trimmed, lowest terms."""
    while nums and not nums[-1]:
        nums.pop()
    g = gcd(den, *nums)
    if g != 1:
        nums = [a // g for a in nums]
        den //= g
    object.__setattr__(p, "nums", tuple(nums))
    object.__setattr__(p, "den", den)


def _mup(nums: list[int], den: int) -> MUniPoly:
    p = object.__new__(MUniPoly)
    _normalise(p, nums, den)
    return p


M = MUniPoly.var()
ONE = MUniPoly.const(1)


def gen_binomial(N, K: int):
    """Generalized binomial coefficient N(N-1)...(N-K+1)/K!, zero for K < 0.

    N may be an integer, a Fraction, or an MUniPoly in m; the result has the
    matching kind (Fraction for numeric N, MUniPoly otherwise).  Polynomial
    results are memoised; integral N goes through `binom_int`.
    """
    if isinstance(N, MUniPoly):
        return _binom_poly(N, K) if K >= 0 else MUniPoly()
    N = _as_fraction(N)
    if N.denominator == 1:
        return Fraction(binom_int(N.numerator, K))
    if K < 0:
        return Fraction(0)
    num = Fraction(1)
    for i in range(K):
        num *= N - i
    return num / factorial(K)


@lru_cache(maxsize=None)
def _binom_poly(N: MUniPoly, K: int) -> MUniPoly:
    out = ONE
    for i in range(K):
        out = out * (N - i)
    return out / factorial(K)


def binom_int(n: int, k: int) -> int:
    """Integer binomial under the same convention: `math.comb`, with
    C(n, k) = (-1)^k C(k-n-1, k) for n < 0, and 0 for k < 0."""
    if k < 0:
        return 0
    return comb(n, k) if n >= 0 else (-1) ** k * comb(k - n - 1, k)


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

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return MPoly, (self.terms,)

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
            s = c if s is None else s + c  # numerators over the lcm of the denominators
            if s:
                out[key] = s
            else:
                del out[key]
        return _mpoly(out)

    __radd__ = __add__

    def __neg__(self):
        return _mpoly({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-MPoly.coerce(other))

    def __rsub__(self, other):
        return MPoly.coerce(other) + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, MUniPoly)):
            return _mpoly({k: p for k, c in self.terms.items() if (p := c * other)})
        da, wa, rows_a = _rows(self)
        db, wb, rows_b = _rows(other)
        acc: dict[tuple[int, int], list[int]] = {}
        for (k1, l1), a in rows_a:
            for (k2, l2), b in rows_b:
                row = acc.setdefault((k1 + k2, l1 + l2), [0] * (wa + wb - 1))
                for i, c in enumerate(a):
                    if c:
                        for j, d in enumerate(b, i):
                            row[j] += c * d
        return _from_rows(acc, da * db)

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
        return _mpoly({(k, l - 1): c * l for (k, l), c in self.terms.items() if l})

    def eval_m(self, m_value: int) -> "MPoly":
        """Evaluate every coefficient at a concrete m >= 0."""
        if m_value < 0:
            raise InvalidArgument("m must be non-negative")
        return MPoly({key: MUniPoly.const(c.eval(m_value)) for key, c in self.terms.items()})

    def eval_xy(self, x_value, y_value):
        """Evaluate at exact numeric (x, y); coefficients must be constant."""
        x_value = _as_fraction(x_value)
        y_value = _as_fraction(y_value)
        acc = Fraction(0)
        for (k, l), c in self.terms.items():
            acc += c.constant_value() * x_value**k * y_value**l
        return acc

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
        return [
            {"dx": k, "dy": l, "coeff": [f"{a // g}/{c.den // g}" for a in c.nums for g in (gcd(a, c.den),)]}
            for (k, l), c in sorted(self.terms.items())
        ]

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
                if len(c.nums) - c.nums.count(0) > 1:
                    cs = f"\\left({cs}\\right)" if latex else f"({cs})"
                sep = " " if latex else "*"
                parts.append(cs + sep + mono)
            else:
                parts.append(cs)
        return " + ".join(parts).replace("+ -", "- ")


def _mpoly(terms: dict[tuple[int, int], MUniPoly]) -> MPoly:
    """An MPoly over coefficients that are already nonzero MUniPolys."""
    p = object.__new__(MPoly)
    object.__setattr__(p, "terms", terms)
    return p


def _rows(F: MPoly) -> tuple[int, int, list[tuple[tuple[int, int], tuple[int, ...]]]]:
    """F's coefficients as integer rows over their common denominator:
    (denominator, longest row, [(monomial, numerators)])."""
    den = lcm(*(c.den for c in F.terms.values()))
    rows = [(key, tuple(a * (den // c.den) for a in c.nums)) for key, c in F.terms.items()]
    return den, max((len(nums) for _, nums in rows), default=0), rows


def _from_rows(acc: dict[tuple[int, int], list[int]], den: int) -> MPoly:
    """The MPoly with numerator rows `acc` over `den`, zero rows dropped."""
    return _mpoly({key: c for key, row in acc.items() if (c := _mup(row, den))})


def poly_eval_m(p: MPoly, m_value: int) -> MPoly:
    """Evaluate every coefficient polynomial at a concrete m >= 0."""
    return p.eval_m(m_value)


@lru_cache(maxsize=None)
def _fm_kernel(n: int, k: int, l: int) -> tuple[tuple[tuple[int, int], int], ...]:
    """x^(k+l) (1+y)^k y^l (1-xy)^(n-k-l), the transform of x^k y^l, as
    ((deg_x, deg_y), integer coefficient) pairs."""
    r = n - k - l
    return tuple(
        ((k + l + b, a + l + b), comb(k, a) * comb(r, b) * (-1) ** b)
        for a in range(k + 1)
        for b in range(r + 1)
    )


@lru_cache(maxsize=None)
def _dual_kernel(n: int, k: int, l: int) -> tuple[tuple[tuple[int, int], int], ...]:
    """(-1)^n (-1-x)^k (-1-y)^l, the dual transform of x^k y^l, as
    ((deg_x, deg_y), integer coefficient) pairs."""
    sign = (-1) ** (n + k + l)
    return tuple(
        ((a, b), sign * comb(k, a) * comb(l, b)) for a in range(k + 1) for b in range(l + 1)
    )


def _apply_kernel(F: MPoly, kernel: Callable[[int, int, int], tuple], n: int) -> MPoly:
    """The linear map sending each x^k y^l to kernel(n, k, l), applied to F:
    integer numerators over the common denominator of F's coefficients are
    accumulated per output monomial, and each MUniPoly is built once."""
    den, width, rows = _rows(F)
    acc: dict[tuple[int, int], list[int]] = {}
    for (k, l), nums in rows:
        for key, kv in kernel(n, k, l):
            row = acc.setdefault(key, [0] * width)
            for i, a in enumerate(nums):
                row[i] += kv * a
    return _from_rows(acc, den)


def substitute_fm(F: MPoly, n: int) -> MPoly:
    """The rank-n cluster-to-partition transform of a polynomial F(x, y):

        (1 - x y)^n * F( x(1+y)/(1-xy), xy/(1-xy) )

    computed exactly by clearing the (1-xy) denominators monomial by monomial:
    each x^k y^l contributes its integer kernel.
    Requires total degree of F at most n so the result is a polynomial.
    """
    if F.total_degree > n:
        raise DegreeError(
            f"total degree {F.total_degree} exceeds rank {n}; denominator cannot clear"
        )
    return _apply_kernel(F, _fm_kernel, n)


def substitute_dual(F: MPoly, n: int) -> MPoly:
    """The rank-n dual transform (-1)^n F(-1-x, -1-y), one integer kernel
    per monomial of F."""
    return _apply_kernel(F, _dual_kernel, n)
