"""Dense univariate polynomials over exact rationals.

A polynomial is stored as integer numerators over one positive denominator
in lowest terms: `nums[i] / den` is the coefficient of x^i, `nums` has no
trailing zero, and gcd(den, *nums) = 1.  That form is canonical, so equality
and hashing compare (nums, den), and every operation -- sums, products,
exact division, gcds, Yun's square-free split and evaluation -- runs
on Python ints.  `coeffs`, the ascending tuple of Fraction coefficients, is
a read-only view built on first use.  The zero polynomial has nums = () and
den = 1, and reports degree ``-inf`` so degree comparisons never lean on
``-1`` arithmetic.

Exact quotients by a primitive divisor are integral (Gauss's lemma), gcds
come from GCDHEU with a primitive pseudo-remainder sequence behind it, and
Yun's algorithm runs on the primitive integer polynomial.
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


def clear_denominators(values: Iterable) -> tuple[list[int], int]:
    """(d * values as ints, d) for exact rationals (see `as_fraction`), d the
    lcm of their denominators: the least d that makes every value integral."""
    vals = list(values)
    if all(type(x) is int for x in vals):
        return vals, 1
    fs = [x if type(x) is int else as_fraction(x) for x in vals]
    d = math.lcm(*[x.denominator for x in fs])
    return [x.numerator * (d // x.denominator) for x in fs], d


class Polynomial:
    """Immutable dense polynomial: integer numerators `nums` over one positive
    denominator `den`, in lowest terms (see the module docstring)."""

    __slots__ = ("nums", "den", "_coeffs")

    nums: tuple[int, ...]
    den: int

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        _store(self, *clear_denominators(coeffs))

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
    def coeffs(self) -> tuple[Fraction, ...]:
        """Ascending Fraction coefficients: a read-only view, built on first use."""
        try:
            return self._coeffs
        except AttributeError:
            den = self.den
            cs = tuple(map(Fraction, self.nums)) if den == 1 else tuple(Fraction(c, den) for c in self.nums)
            object.__setattr__(self, "_coeffs", cs)
            return cs

    @property
    def is_zero(self) -> bool:
        return not self.nums

    @property
    def degree(self) -> int | float:
        """Degree, or -inf for the zero polynomial."""
        return len(self.nums) - 1 if self.nums else NEG_INF

    @property
    def lead(self) -> Fraction:
        if not self.nums:
            raise DomainError("zero polynomial has no leading coefficient")
        return Fraction(self.nums[-1], self.den)

    @property
    def is_monic(self) -> bool:
        return bool(self.nums) and self.nums[-1] == self.den

    def __bool__(self) -> bool:
        return bool(self.nums)

    def __eq__(self, other) -> bool:
        if isinstance(other, Polynomial):
            return self.den == other.den and self.nums == other.nums
        if isinstance(other, (int, Fraction)):
            return self == Polynomial.constant(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.nums, self.den))

    def __getitem__(self, power: int) -> Fraction:
        """Coefficient of the given power (0 beyond the stored degree)."""
        if 0 <= power < len(self.nums):
            return Fraction(self.nums[power], self.den)
        return Fraction(0)

    # -- ring arithmetic ----------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        a, b, den = self.nums, other.nums, self.den
        if other.den != den:
            den = math.lcm(den, other.den)
            sa, sb = den // self.den, den // other.den
            a, b = [x * sa for x in a], [x * sb for x in b]
        return _from_ints([x + y for x, y in zip_longest(a, b, fillvalue=0)], den)

    __radd__ = __add__

    def __neg__(self):
        return _from_ints([-c for c in self.nums], self.den)

    def __sub__(self, other):
        return self + (-other if isinstance(other, Polynomial) else Polynomial.constant(-as_fraction(other)))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return _from_ints([c * other.numerator for c in self.nums], self.den * other.denominator)
        if not isinstance(other, Polynomial):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return Polynomial()
        return _from_ints(_int_mul(self.nums, other.nums), self.den * other.den)

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
        b, db = other.nums, other.den
        content = _content(b)
        q = _int_quotient(self.nums, [c // content for c in b])
        if q is None:
            raise ArithmeticError("inexact polynomial division")
        # self / other = (a / da) / (content * b' / db) = (a / b') * db / (da * content)
        return _from_ints([c * db for c in q] if db != 1 else q, self.den * content)

    # -- calculus / substitution --------------------------------------

    def derivative(self) -> "Polynomial":
        return _from_ints(_derivative(self.nums), self.den)

    def monic(self) -> "Polynomial":
        if self.is_zero or self.is_monic:
            return self
        return _from_ints(self.nums, self.nums[-1])

    def __call__(self, x):
        """Horner evaluation; x may be Fraction, int, float or complex.

        At x = s / t the homogeneous Horner sum of nums[k] s^k t^(n - k)
        stays in the integers, and the value is that sum over den t^n.
        """
        if not self.nums:
            return x * 0
        if isinstance(x, (int, Fraction)):
            s, t = x.numerator, x.denominator
            v, tk = 0, 1
            for c in reversed(self.nums):
                v = v * s + c * tk
                tk *= t
            return Fraction(v, self.den * tk // t)
        result = x * 0
        for coeff in reversed(self.coeffs):
            result = result * x + float(coeff)
        return result

    # -- serialization ------------------------------------------------

    def to_strings(self) -> list[str]:
        """Ascending-power list of 'p/q' coefficient strings, each in lowest terms."""
        den = self.den
        if den == 1:
            return [str(c) for c in self.nums]
        out = []
        for c in self.nums:
            g = math.gcd(c, den)
            out.append(str(c // g) if g == den else f"{c // g}/{den // g}")
        return out

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


def _store(p: Polynomial, ints: Sequence[int], den: int) -> None:
    """Set p to ints / den in canonical form: no trailing zero, den > 0, lowest terms."""
    end = len(ints)
    while end and not ints[end - 1]:
        end -= 1
    if not end:
        ints, den = (), 1
    elif end < len(ints):
        ints = ints[:end]
    if den < 0:
        den, ints = -den, [-c for c in ints]
    if den != 1:
        g = math.gcd(den, *ints)
        if g != 1:
            den, ints = den // g, [c // g for c in ints]
    object.__setattr__(p, "nums", tuple(ints))
    object.__setattr__(p, "den", den)


def _from_ints(ints: Sequence[int], den: int = 1) -> Polynomial:
    """The polynomial with coefficients ints[i] / den (den nonzero), in canonical form."""
    p = object.__new__(Polynomial)
    _store(p, ints, den)
    return p


X = Polynomial.x()


# -- integer core ---------------------------------------------------------
#
# Products, exact quotients, gcds and square-free splits run on sequences of
# Python ints (ascending powers): a polynomial's `nums`, or its primitive part.


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
    g = _int_gcd(a.nums, b.nums)
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
    f = _primitive(p.nums)
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

