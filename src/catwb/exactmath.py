"""Exact arithmetic core: the ring Z[tau] of integers of Q(sqrt 5) (`GoldInt`,
the one representation of the golden-ratio field), sparse bivariate
polynomials in (x, y) whose coefficients are polynomials in the Fuss
parameter m (`MPoly`, the one exact polynomial ring), the read-only view of
one such coefficient (`MUniPoly`), integer polynomials in m, and the two
polynomial transforms the identities need.

Everything here is immutable and exact; no floats anywhere.  Scalars are
ints and `fractions.Fraction`s.  A bivariate polynomial keeps one denominator
for all its coefficients and integer numerator rows per monomial, so every
product, sum, scaling and transform is integer arithmetic on rows.  An
m-polynomial is built only when a coefficient is read, as integer numerators
over one denominator that come back as Fractions; it has no arithmetic of its
own.  Closed forms in m are integer rows: `falling` and `binom_int`, over a
factorial.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache
from itertools import chain, zip_longest
from math import comb, gcd, lcm
from operator import mul
from typing import Callable, Iterable, Iterator, Mapping

from .errors import DegreeError, InvalidArgument


def _as_fraction(v) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    raise TypeError(f"expected int or Fraction, got {type(v).__name__}")


def _parts(v) -> tuple[tuple[int, ...], int]:
    """The numerators and denominator of an int (bool too), Fraction or
    MUniPoly, with no Fraction built."""
    if isinstance(v, MUniPoly):
        return v.nums, v.den
    if isinstance(v, int):
        return (int(v),), 1
    if isinstance(v, Fraction):
        return (v.numerator,), v.denominator
    raise TypeError(f"expected int, Fraction or MUniPoly, got {type(v).__name__}")


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
    """A polynomial in the Fuss parameter m with rational coefficients: the
    read-only view of one coefficient of an MPoly (`coeff`, `terms`,
    `iter_terms`).  The arithmetic is MPoly's.

    Stored as integer numerators `nums` by ascending power, trailing zeros
    trimmed, over one positive common denominator `den`, in lowest terms:
    gcd(den, *nums) == 1, and the zero polynomial is ((), 1).  `coeffs` gives
    the same coefficients as a tuple of Fractions.
    """

    __slots__ = ("nums", "den")

    def __init__(self):
        raise TypeError("MUniPoly is a read-only view of an MPoly coefficient; build polynomials as MPoly")

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):  # copy and pickle without __setattr__
        return _mup, (self.nums, self.den)

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

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = _mup(*_parts(other))
        if isinstance(other, MUniPoly):
            return self.nums == other.nums and self.den == other.den
        return NotImplemented

    def __hash__(self):
        return hash(self.constant_value()) if len(self.nums) < 2 else hash((self.nums, self.den))

    def __repr__(self):
        return self.format()

    def format(self, latex: bool = False) -> str:
        coeffs = self.coeffs
        if not coeffs:
            return "0"
        parts = []
        for i in range(len(coeffs) - 1, -1, -1):
            c = coeffs[i]
            if c == 0:
                continue
            if i == 0:
                mono = ""
            elif i == 1:
                mono = "m"
            else:
                mono = f"m^{{{i}}}" if latex else f"m^{i}"
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


def _mup(nums, den: int) -> MUniPoly:
    """The MUniPoly nums/den (den > 0): trailing zeros trimmed, in lowest terms."""
    top = len(nums)
    while top and not nums[top - 1]:
        top -= 1
    g = gcd(den, *nums[:top])
    p = object.__new__(MUniPoly)
    object.__setattr__(p, "nums", tuple(a // g for a in nums[:top]))
    object.__setattr__(p, "den", den // g)
    return p


def binom_int(n: int, k: int) -> int:
    """Integer binomial under the same convention: `math.comb`, with
    C(n, k) = (-1)^k C(k-n-1, k) for n < 0, and 0 for k < 0."""
    if k < 0:
        return 0
    return comb(n, k) if n >= 0 else (-1) ** k * comb(k - n - 1, k)


# ---------------------------------------------------------------------------
# Integer polynomials in m
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def falling(a: int, b: int, k: int) -> tuple[int, ...]:
    """(a m + b)(a m + b - 1)...(a m + b - k + 1), that is k! binom(a m + b, k),
    as integer coefficients by ascending power of m; () (zero) for k < 0.
    Memoised, as the closed forms ask for a few rows many times."""
    if k < 0:
        return ()
    out = [1]
    for i in range(k):
        c = b - i
        out = [c * out[0]] + [c * u + a * v for u, v in zip(out[1:], out)] + [a * out[-1]]
    return tuple(out)


def int_poly_mul(p, q) -> list[int]:
    """The product of two integer coefficient lists, by ascending power."""
    if not p or not q:
        return []
    out = [0] * (len(p) + len(q) - 1)
    for i, c in enumerate(p):
        if c:
            for j, d in enumerate(q, i):
                out[j] += c * d
    return out


# ---------------------------------------------------------------------------
# Sparse bivariate polynomials in (x, y) over Q[m]
# ---------------------------------------------------------------------------


class MPoly:
    """A sparse polynomial in x and y whose coefficients are polynomials in m.

    Stored as one positive denominator `den` and integer numerator rows
    `rows`, a map (deg_x, deg_y) -> numerators by ascending power of m, in
    canonical form: only nonzero rows, trailing zeros trimmed, and
    gcd(den, every numerator) == 1, the zero polynomial being ({}, 1).  So
    equality is structural.  Every operation works on the rows and ends in
    one gcd; a coefficient becomes an MUniPoly only when read (`coeff`,
    `terms`, `iter_terms`, `format`, the JSON form).
    """

    __slots__ = ("rows", "den")

    def __new__(cls, terms: Mapping[tuple[int, int], object] | None = None):
        """From a map (deg_x, deg_y) -> int, Fraction or MUniPoly."""
        return MPoly.from_parts({key: _parts(c) for key, c in terms.items()} if terms else {})

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return _mpoly, (self.rows, self.den)

    # construction helpers -------------------------------------------------

    @staticmethod
    def from_parts(parts: Mapping[tuple[int, int], tuple[Iterable[int], int]]) -> "MPoly":
        """The MPoly whose coefficient of x^k y^l is nums/den for each entry
        (k, l): (nums, den) of `parts`, nums integers by ascending power of m
        and den a nonzero int, neither reduced nor trimmed."""
        den = lcm(*(d for _, d in parts.values()))
        return _mpoly({key: [a * (den // d) for a in nums] for key, (nums, d) in parts.items()}, den)

    @staticmethod
    def zero() -> "MPoly":
        return _mpoly({}, 1)

    @staticmethod
    def const(c) -> "MPoly":
        return MPoly.term(0, 0, c)

    @staticmethod
    def term(dx: int, dy: int, coeff=1) -> "MPoly":
        nums, den = _parts(coeff)
        return _mpoly({(dx, dy): nums}, den)

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
        return bool(self.rows)

    def coeff(self, dx: int, dy: int) -> MUniPoly:
        row = self.rows.get((dx, dy))
        return _mup(row or (), self.den)

    @property
    def terms(self) -> dict[tuple[int, int], MUniPoly]:
        """The nonzero coefficients, one MUniPoly per monomial."""
        return {key: _mup(row, self.den) for key, row in self.rows.items()}

    @property
    def total_degree(self) -> int:
        """Max of deg_x + deg_y over stored terms (-1 for the zero poly)."""
        return max((k + l for k, l in self.rows), default=-1)

    def iter_terms(self) -> Iterator[tuple[int, int, MUniPoly]]:
        for (k, l) in sorted(self.rows):
            yield k, l, _mup(self.rows[(k, l)], self.den)

    # arithmetic ------------------------------------------------------------

    def __add__(self, other):
        return mpoly_sum((self, MPoly.coerce(other)))

    __radd__ = __add__

    def __neg__(self):
        return _mpoly({key: [-a for a in row] for key, row in self.rows.items()}, self.den)

    def __sub__(self, other):
        return mpoly_sum((self, -MPoly.coerce(other)))

    def __rsub__(self, other):
        return mpoly_sum((MPoly.coerce(other), -self))

    def __mul__(self, other):
        if not isinstance(other, MPoly):  # a scalar: int, Fraction or MUniPoly
            b, bden = _parts(other)
            return _mpoly({key: int_poly_mul(row, b) for key, row in self.rows.items()}, self.den * bden)
        rows_b = other.rows.items()
        acc: dict[tuple[int, int], list[int]] = {}
        for (k1, l1), a in self.rows.items():
            for (k2, l2), b in rows_b:
                key = (k1 + k2, l1 + l2)
                width = len(a) + len(b) - 1  # trimmed rows: the product's top term is nonzero
                row = acc.get(key)
                if row is None:
                    acc[key] = row = [0] * width
                elif len(row) < width:
                    row.extend([0] * (width - len(row)))
                for i, c in enumerate(a):
                    if c:
                        for j, d in enumerate(b, i):
                            row[j] += c * d
        return _mpoly(acc, self.den * other.den)

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
            return self.den == other.den and self.rows == other.rows
        return NotImplemented

    def __hash__(self):
        if not self.rows.keys() - {(0, 0)}:  # free of x and y: hash as its view, a number as the number
            return hash(self.coeff(0, 0))
        return hash((self.den, frozenset(self.rows.items())))

    # specializations -------------------------------------------------------

    def diff_y(self) -> "MPoly":
        """Partial derivative with respect to y."""
        return _mpoly({(k, l - 1): [a * l for a in row] for (k, l), row in self.rows.items() if l}, self.den)

    def eval_m(self, m_value) -> "MPoly":
        """Evaluate every coefficient at a concrete m = p/q >= 0: one
        homogeneous integer Horner per row, over den * q^(width - 1)."""
        if m_value < 0:
            raise InvalidArgument("m must be non-negative")
        if not self.rows:
            return self
        v = _as_fraction(m_value)
        p, q = v.numerator, v.denominator
        top = max(map(len, self.rows.values())) - 1
        weights = [p**i * q ** (top - i) for i in range(top + 1)]
        return _mpoly({key: [sum(map(mul, row, weights))] for key, row in self.rows.items()}, self.den * q**top)

    def eval_xy(self, x_value, y_value):
        """Evaluate at exact numeric (x, y); coefficients must be constant."""
        x_value = _as_fraction(x_value)
        y_value = _as_fraction(y_value)
        acc = Fraction(0)
        for (k, l), row in self.rows.items():
            if len(row) > 1:
                raise ValueError(f"{self.coeff(k, l)} is not constant")
            acc += row[0] * x_value**k * y_value**l
        return acc / self.den

    def set_diagonal(self) -> "MPoly":
        """The specialization y := x, collected on powers of x."""
        out: dict[tuple[int, int], list[int]] = {}
        for (k, l), row in self.rows.items():
            out[k + l, 0] = [u + v for u, v in zip_longest(out.get((k + l, 0), ()), row, fillvalue=0)]
        return _mpoly(out, self.den)

    # serialization ----------------------------------------------------------

    def to_json_obj(self) -> list[dict]:
        """Canonical JSON form: term list sorted by (dx, dy), each coefficient
        in lowest terms; read back from `dumps`, the one encoder."""
        return json.loads(self.dumps())

    @staticmethod
    def from_json_obj(obj: Iterable[Mapping]) -> "MPoly":
        parts = {}
        for entry in obj:
            cs = [Fraction(c) for c in entry["coeff"]]
            den = lcm(*(c.denominator for c in cs))
            parts[int(entry["dx"]), int(entry["dy"])] = [c.numerator * (den // c.denominator) for c in cs], den
        return MPoly.from_parts(parts)

    def dumps(self) -> str:
        """`to_json_obj` as canonical JSON, keys sorted and no spaces, in one
        pass: its strings hold only digits, '-' and '/', which need no escape."""
        den = self.den
        return "[" + ",".join(
            '{"coeff":["' + '","'.join(f"{a // g}/{den // g}" for a in row for g in (gcd(a, den),))
            + f'"],"dx":{k},"dy":{l}}}'
            for (k, l), row in sorted(self.rows.items())
        ) + "]"

    @staticmethod
    def loads(s: str) -> "MPoly":
        return MPoly.from_json_obj(json.loads(s))

    # formatting -------------------------------------------------------------

    def __repr__(self):
        return self.format()

    def format(self, latex: bool = False) -> str:
        """Human-readable rendering, terms by total degree then lexicographic."""
        if not self.rows:
            return "0"
        keys = sorted(self.rows, key=lambda kl: (kl[0] + kl[1], kl[0], kl[1]), reverse=True)
        parts = []
        for k, l in keys:
            row = self.rows[(k, l)]
            mono = ""
            if k:
                mono += "x" if k == 1 else (f"x^{{{k}}}" if latex else f"x^{k}")
            if l:
                mono += ("" if not mono else ("" if latex else "*")) + (
                    "y" if l == 1 else (f"y^{{{l}}}" if latex else f"y^{l}")
                )
            cs = _mup(row, self.den).format(latex=latex)
            if mono:
                if cs == "1":
                    parts.append(mono)
                    continue
                if cs == "-1":
                    parts.append("-" + mono)
                    continue
                if len(row) - row.count(0) > 1:
                    cs = f"\\left({cs}\\right)" if latex else f"({cs})"
                sep = " " if latex else "*"
                parts.append(cs + sep + mono)
            else:
                parts.append(cs)
        return " + ".join(parts).replace("+ -", "- ")


def _mpoly(rows: Mapping[tuple[int, int], list[int] | tuple[int, ...]], den: int) -> MPoly:
    """The MPoly of rows over den > 0, in canonical form: zero rows dropped,
    trailing zeros trimmed, and one gcd over den and every numerator."""
    out = {}
    for key, row in rows.items():
        top = len(row)
        while top and not row[top - 1]:
            top -= 1
        if top:
            out[key] = tuple(row[:top]) if top < len(row) else tuple(row)
    if den != 1:
        g = gcd(den, *chain.from_iterable(out.values()))
        if g != 1:
            out = {key: tuple(a // g for a in row) for key, row in out.items()}
            den //= g
    p = object.__new__(MPoly)
    object.__setattr__(p, "rows", out)
    object.__setattr__(p, "den", den)
    return p


def mpoly_sum(polys: Iterable[MPoly]) -> MPoly:
    """The sum of the polys over the lcm of their denominators, the one sum
    of the ring (+ and - call it): the rows accumulated once, and one
    normalisation at the end."""
    polys = list(polys)
    den = lcm(*(p.den for p in polys))
    acc: dict[tuple[int, int], list[int]] = {}
    for p in polys:
        scale = den // p.den
        for key, row in p.rows.items():
            out = acc.setdefault(key, [])
            if len(out) < len(row):
                out.extend([0] * (len(row) - len(out)))
            for i, c in enumerate(row):
                out[i] += scale * c
    return _mpoly(acc, den)


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
    F's numerator rows are accumulated per output monomial over F's
    denominator."""
    width = max(map(len, F.rows.values()), default=0)
    acc: dict[tuple[int, int], list[int]] = {}
    for (k, l), nums in F.rows.items():
        for key, kv in kernel(n, k, l):
            row = acc.get(key)
            if row is None:
                acc[key] = row = [0] * width
            for i, a in enumerate(nums):
                row[i] += kv * a
    return _mpoly(acc, F.den)


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
