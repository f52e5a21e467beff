"""Dense univariate polynomials and rational functions over exact rationals.

Coefficients are `fractions.Fraction`; index equals the power of the
variable.  The zero polynomial keeps an empty coefficient tuple and reports
degree ``-inf`` so degree comparisons never lean on ``-1`` arithmetic.

Products, exact division, gcds and square-free decomposition clear each
operand's denominators once and run on Python ints: exact quotients by a
primitive divisor are integral (Gauss's lemma), gcds come from GCDHEU with a
primitive pseudo-remainder sequence behind it, and Yun's algorithm runs on
the primitive integer polynomial.

Rational functions are kept in canonical form: numerator and denominator
coprime, denominator monic, the zero function stored as 0/1.  That makes
structural equality coincide with mathematical equality.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import zip_longest
from operator import mul
from typing import Iterable, Sequence, Union

from .errors import DomainError

NEG_INF = float("-inf")

Scalar = Union[int, Fraction]


def as_fraction(x: object) -> Fraction:
    """Coerce ints, Fractions and 'p/q' strings to Fraction; reject floats."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


class Polynomial:
    """Immutable dense polynomial with Fraction coefficients."""

    __slots__ = ("coeffs",)

    coeffs: tuple[Fraction, ...]

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        cs = [as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls(())

    @classmethod
    def one(cls) -> "Polynomial":
        return cls((1,))

    @classmethod
    def constant(cls, c: Scalar) -> "Polynomial":
        return cls((c,))

    @classmethod
    def x(cls) -> "Polynomial":
        """The identity polynomial (the variable itself)."""
        return cls((0, 1))

    # -- basic queries ------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int | float:
        """Degree, or -inf for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    @property
    def lead(self) -> Fraction:
        if not self.coeffs:
            raise DomainError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, Polynomial):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == Polynomial.constant(other)
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __getitem__(self, power: int) -> Fraction:
        """Coefficient of the given power (0 beyond the stored degree)."""
        if 0 <= power < len(self.coeffs):
            return self.coeffs[power]
        return Fraction(0)

    # -- ring arithmetic ----------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Polynomial(out)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other if isinstance(other, Polynomial) else Polynomial.constant(-as_fraction(other)))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Polynomial([c * other for c in self.coeffs])
        if not isinstance(other, Polynomial):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return Polynomial()
        a, da = _cleared(self.coeffs)
        b, db = _cleared(other.coeffs)
        return _from_ints(_int_mul(a, b), da * db)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise DomainError("negative polynomial power")
        result = Polynomial.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def exact_div(self, other: "Polynomial") -> "Polynomial":
        """Divide, insisting the remainder vanish.

        Runs on integers: with the divisor made primitive, Gauss's lemma
        makes an exact quotient integral, so every step is an exact integer
        division and any remainder proves the division inexact.
        """
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(as_fraction(other))
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        if self.is_zero:
            return self
        a, da = _cleared(self.coeffs)
        b, db = _cleared(other.coeffs)
        content = _content(b)
        q = _int_quotient(a, [c // content for c in b])
        if q is None:
            raise ArithmeticError("inexact polynomial division")
        # self / other = (a / da) / (content * b' / db) = (a / b') * db / (da * content)
        return _from_ints([c * db for c in q] if db != 1 else q, da * content)

    # -- calculus / substitution --------------------------------------

    def derivative(self) -> "Polynomial":
        return Polynomial([i * c for i, c in enumerate(self.coeffs)][1:])

    def monic(self) -> "Polynomial":
        if self.is_zero:
            return self
        lc = self.coeffs[-1]
        return self if lc == 1 else Polynomial([c / lc for c in self.coeffs])

    def shift(self, c: Scalar) -> "Polynomial":
        """Substitute x -> x - c, i.e. return p(x - c)."""
        c = as_fraction(c)
        if c == 0:
            return self
        arg = Polynomial((-c, 1))
        result = Polynomial()
        for coeff in reversed(self.coeffs):
            result = result * arg + coeff
        return result

    def __call__(self, x):
        """Horner evaluation; x may be Fraction, int, float or complex."""
        result = x * 0
        for coeff in reversed(self.coeffs):
            if isinstance(x, (int, Fraction)):
                result = result * x + coeff
            else:
                result = result * x + float(coeff)
        return result

    # -- serialization ------------------------------------------------

    def to_strings(self) -> list[str]:
        """Ascending-power list of 'p/q' coefficient strings."""
        return [str(c) for c in self.coeffs]

    @classmethod
    def from_strings(cls, items: Sequence[str]) -> "Polynomial":
        return cls([Fraction(s) for s in items])

    def __repr__(self):
        return f"Polynomial({list(self.coeffs)!r})"

    def __str__(self):
        if self.is_zero:
            return "0"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            if i == 0:
                term = str(abs(c))
            else:
                mag = "" if abs(c) == 1 else f"{abs(c)}*"
                term = f"{mag}x" if i == 1 else f"{mag}x^{i}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)


X = Polynomial.x()


# -- integer core ---------------------------------------------------------
#
# Products, exact quotients, gcds and square-free splits run on lists of
# Python ints (ascending powers): each operand's denominators are cleared to
# one lcm, and each result coefficient becomes a Fraction once, at the end.


def _cleared(coeffs: Sequence[Fraction]) -> tuple[list[int], int]:
    """(d * p as ints, d), d the lcm of the coefficients' denominators."""
    den = math.lcm(*[c.denominator for c in coeffs])
    if den == 1:
        return [c.numerator for c in coeffs], 1
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def _from_ints(ints: list[int], den: int = 1) -> Polynomial:
    """The polynomial with coefficients ints[i] / den (no trailing zero, den nonzero)."""
    p = object.__new__(Polynomial)
    if den == 1:
        coeffs = tuple(map(Fraction, ints))
    else:
        coeffs = tuple(Fraction(c, den) for c in ints)
    object.__setattr__(p, "coeffs", coeffs)
    return p


def _content(ints: list[int]) -> int:
    """gcd of the coefficients of a nonzero list, signed like its leading one."""
    g = math.gcd(*ints)
    return -g if ints[-1] < 0 else g


def _primitive(ints: list[int]) -> list[int]:
    """ints over their content, leading coefficient positive; [] stays []."""
    if not ints:
        return ints
    c = _content(ints)
    return ints if c == 1 else [x // c for x in ints]


def _int_mul(a: list[int], b: list[int]) -> list[int]:
    """Product of two nonzero integer polynomials (schoolbook convolution)."""
    m, n = len(a), len(b)
    rb = b[::-1]
    return [
        sum(map(mul, a[max(0, k - n + 1) : min(k, m - 1) + 1], rb[max(n - 1 - k, 0) : n - k + min(k, m - 1)]))
        for k in range(m + n - 1)
    ]


def _int_quotient(a: list[int], b: list[int]) -> list[int] | None:
    """a / b when b (nonzero, no trailing zero) divides a in Z[x], else None."""
    if not a:
        return []
    m = len(b) - 1
    if len(a) <= m:
        return None
    r = list(a)
    lb, low = b[-1], b[:-1]
    q = [0] * (len(a) - m)
    for s in range(len(a) - 1 - m, -1, -1):
        t, rem = divmod(r[s + m], lb)
        if rem:
            return None
        if t:
            q[s] = t
            r[s : s + m] = [x - t * y for x, y in zip(r[s : s + m], low)]
    return None if any(r[:m]) else q


def _derivative(ints: list[int]) -> list[int]:
    return [i * c for i, c in enumerate(ints)][1:]


def _sub(a: list[int], b: list[int]) -> list[int]:
    out = [x - y for x, y in zip_longest(a, b, fillvalue=0)]
    while out and not out[-1]:
        out.pop()
    return out


def _pseudo_rem(a: list[int], b: list[int]) -> list[int]:
    # Remainder of a by b up to powers of lead(b); stays in Z[x].
    r = list(a)
    db = len(b) - 1
    lb = b[-1]
    while r and len(r) - 1 >= db:
        t = r[-1]
        r = [lb * c for c in r]
        off = len(r) - 1 - db
        for j in range(db + 1):
            r[off + j] -= t * b[j]
        while r and r[-1] == 0:
            r.pop()
    return r


def _horner(ints: list[int], xi: int) -> int:
    v = 0
    for c in reversed(ints):
        v = v * xi + c
    return v


# evaluation points GCDHEU tries before the pseudo-remainder sequence decides
_HEURISTIC_TRIES = 6


def _gcd_heuristic(a: list[int], b: list[int]) -> list[int] | None:
    """GCDHEU (Char, Geddes & Gonnet 1989) on primitive lists of positive degree.

    The integer gcd of a(xi) and b(xi), read back in symmetric xi-adic
    digits, gives a candidate.  With xi > 1 + 2 min(|a|_inf, |b|_inf) a
    primitive candidate that divides both a and b is their gcd (Geddes,
    Czapor & Labahn, Thm 7.7), so trial division proves the result.  Returns
    None when every evaluation point fails.
    """
    xi = 2 * min(max(map(abs, a)), max(map(abs, b))) + 2
    for _ in range(_HEURISTIC_TRIES):
        gamma = math.gcd(_horner(a, xi), _horner(b, xi))
        digits = []
        half = xi // 2
        while gamma:
            d = gamma % xi
            if d > half:
                d -= xi
            digits.append(d)
            gamma = (gamma - d) // xi
        g = _primitive(digits)
        if len(g) == 1:
            return g
        if _int_quotient(a, g) is not None and _int_quotient(b, g) is not None:
            return g
        xi = xi * 73794 // 27011
    return None


def _int_gcd(a: list[int], b: list[int]) -> list[int]:
    """Primitive gcd (positive leading coefficient) of integer lists; [] if both are zero."""
    a, b = _primitive(a), _primitive(b)
    if not a or not b:
        return a or b
    if len(a) == 1 or len(b) == 1:
        return [1]
    g = _gcd_heuristic(a, b)
    if g is not None:
        return g
    if len(a) < len(b):
        a, b = b, a
    while b:
        a, b = b, _primitive(_pseudo_rem(a, b))
    return a


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic gcd, computed on the primitive integer polynomials.

    GCDHEU (`_gcd_heuristic`) settles most pairs, coprime ones included,
    with integer gcds and a trial division that proves its answer; when it
    gives up, a primitive pseudo-remainder sequence decides.
    """
    if a.is_zero:
        return b.monic()
    if b.is_zero:
        return a.monic()
    g = _int_gcd(_cleared(a.coeffs)[0], _cleared(b.coeffs)[0])
    return _from_ints(g, g[-1])


def square_free_decomposition(p: Polynomial) -> list[tuple[Polynomial, int]]:
    """Yun's algorithm: monic, pairwise coprime, square-free factors.

    Returns [(factor, multiplicity), ...] with p = lead(p) * prod factor^mult.
    Constants decompose to the empty list.  Runs on the primitive integer
    polynomial, where every gcd is primitive and so, by Gauss's lemma, every
    division is exact over Z; only the factors become monic at the end.
    """
    if p.is_zero:
        raise DomainError("zero polynomial has no square-free decomposition")
    if p.degree <= 0:
        return []
    f = _primitive(_cleared(p.coeffs)[0])
    df = _derivative(f)
    a = _int_gcd(f, df)
    b = _int_quotient(f, a)
    d = _sub(_int_quotient(df, a), _derivative(b))
    out: list[tuple[Polynomial, int]] = []
    i = 1
    while len(b) > 1:
        g = _int_gcd(b, d)
        if len(g) > 1:
            out.append((_from_ints(g, g[-1]), i))
        b = _int_quotient(b, g)
        d = _sub(_int_quotient(d, g), _derivative(b))
        i += 1
    return out


def is_square_free(p: Polynomial) -> bool:
    return poly_gcd(p, p.derivative()).degree <= 0


# -- rational functions -------------------------------------------------


class RationalFunction:
    """Reduced quotient of polynomials; denominator monic, zero stored as 0/1."""

    __slots__ = ("num", "den")

    num: Polynomial
    den: Polynomial

    def __init__(self, num: Polynomial | Scalar, den: Polynomial | Scalar = 1):
        if not isinstance(num, Polynomial):
            num = Polynomial.constant(as_fraction(num))
        if not isinstance(den, Polynomial):
            den = Polynomial.constant(as_fraction(den))
        if den.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero:
            num, den = Polynomial(), Polynomial.one()
        else:
            g = poly_gcd(num, den)
            if g.degree > 0:
                num = num.exact_div(g)
                den = den.exact_div(g)
            lc = den.lead
            if lc != 1:
                num = num * (1 / lc)
                den = den * (1 / lc)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RationalFunction is immutable")

    @classmethod
    def zero(cls) -> "RationalFunction":
        return cls(Polynomial(), Polynomial.one())

    @classmethod
    def one(cls) -> "RationalFunction":
        return cls(Polynomial.one(), Polynomial.one())

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    @property
    def is_polynomial(self) -> bool:
        return self.den.degree == 0

    def __bool__(self):
        return not self.is_zero

    def __eq__(self, other) -> bool:
        if isinstance(other, RationalFunction):
            return self.num == other.num and self.den == other.den
        if isinstance(other, (int, Fraction, Polynomial)):
            return self == RationalFunction(other if isinstance(other, Polynomial) else Polynomial.constant(other))
        return NotImplemented

    def __hash__(self):
        return hash((self.num, self.den))

    def __add__(self, other):
        other = _coerce_rf(other)
        if other is NotImplemented:
            return other
        return RationalFunction(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction(-self.num, self.den)

    def __sub__(self, other):
        other = _coerce_rf(other)
        if other is NotImplemented:
            return other
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = _coerce_rf(other)
        if other is NotImplemented:
            return other
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce_rf(other)
        if other is NotImplemented:
            return other
        if other.is_zero:
            raise ZeroDivisionError("division by the zero rational function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        other = _coerce_rf(other)
        if other is NotImplemented:
            return other
        return other / self

    def __call__(self, x):
        d = self.den(x)
        if d == 0:
            raise ZeroDivisionError(f"evaluation at a pole: {x}")
        return self.num(x) / d

    def shift(self, c: Scalar) -> "RationalFunction":
        """Substitute x -> x - c in numerator and denominator."""
        return RationalFunction(self.num.shift(c), self.den.shift(c))

    def to_strings(self) -> dict[str, list[str]]:
        return {"num": self.num.to_strings(), "den": self.den.to_strings()}

    def __repr__(self):
        return f"RationalFunction({self.num!r}, {self.den!r})"

    def __str__(self):
        if self.is_polynomial:
            return str(self.num * (1 / self.den[0]))
        return f"({self.num}) / ({self.den})"


def _coerce_rf(x):
    if isinstance(x, RationalFunction):
        return x
    if isinstance(x, Polynomial):
        return RationalFunction(x)
    if isinstance(x, (int, Fraction)):
        return RationalFunction(Polynomial.constant(x))
    return NotImplemented

