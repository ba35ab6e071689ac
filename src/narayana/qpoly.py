"""Exact polynomial arithmetic in the variable q over the integers.

Provides the q-analogues used everywhere else in the package: q-integers,
Gaussian binomial coefficients and the closed-form q-Narayana numbers,
together with the plain (q = 1) Narayana and Catalan numbers.

All coefficients are Python ints, so arithmetic is exact at every size.
Long products run as one big-integer product (Kronecker substitution), and
multiplying or dividing by a q-integer [m] takes time linear in the degree.
"""

from __future__ import annotations

from functools import cache
from itertools import accumulate
from math import comb
from operator import sub
from typing import Iterable, Iterator

SCHOOLBOOK_MAX = 8  # products whose shorter factor has at most this many terms


class InexactDivisionError(ArithmeticError):
    """Polynomial division left a nonzero remainder.

    The offending remainder is available as the ``remainder`` attribute.
    """

    def __init__(self, message: str, remainder: "QPoly"):
        super().__init__(message)
        self.remainder = remainder


class QPoly:
    """A polynomial in q with integer coefficients, in canonical form.

    ``coeffs[i]`` is the coefficient of ``q**i``.  The stored tuple never
    ends in a zero; the zero polynomial is the empty tuple.  Instances are
    immutable and hashable, and equality is structural.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self._coeffs = tuple(cs)

    @classmethod
    def zero(cls) -> "QPoly":
        return cls()

    @classmethod
    def one(cls) -> "QPoly":
        return cls((1,))

    @classmethod
    def q_power(cls, exponent: int, coefficient: int = 1) -> "QPoly":
        """The monomial ``coefficient * q**exponent``."""
        if exponent < 0:
            raise ValueError(f"negative exponent: {exponent}")
        if coefficient == 0:
            return cls()
        return cls((0,) * exponent + (coefficient,))

    @property
    def coeffs(self) -> tuple[int, ...]:
        return self._coeffs

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self._coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    def coefficient(self, i: int) -> int:
        """Coefficient of ``q**i`` (zero beyond the stored range)."""
        if 0 <= i < len(self._coeffs):
            return self._coeffs[i]
        return 0

    def __iter__(self) -> Iterator[int]:
        return iter(self._coeffs)

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, QPoly):
            return self._coeffs == other._coeffs
        if isinstance(other, int):
            return self._coeffs == (() if other == 0 else (other,))
        return NotImplemented

    def __hash__(self) -> int:
        # constants hash like the ints they compare equal to
        if len(self._coeffs) <= 1:
            return hash(self.coefficient(0))
        return hash(self._coeffs)

    def __add__(self, other: "QPoly | int") -> "QPoly":
        other = _coerce(other)
        a, b = self._coeffs, other._coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return QPoly(out)

    __radd__ = __add__

    def __neg__(self) -> "QPoly":
        return QPoly(tuple(-c for c in self._coeffs))

    def __sub__(self, other: "QPoly | int") -> "QPoly":
        return self + (-_coerce(other))

    def __rsub__(self, other: "QPoly | int") -> "QPoly":
        return _coerce(other) + (-self)

    def __mul__(self, other: "QPoly | int") -> "QPoly":
        other = _coerce(other)
        a, b = self._coeffs, other._coeffs
        if not a or not b:
            return QPoly()
        if min(len(a), len(b)) > SCHOOLBOOK_MAX:
            return QPoly(_kronecker(a, b))
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return QPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "QPoly":
        if n < 0:
            raise ValueError(f"negative power: {n}")
        result = QPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __call__(self, x: int) -> int:
        """Evaluate at an integer point by Horner's rule."""
        value = 0
        for c in reversed(self._coeffs):
            value = value * x + c
        return value

    def __repr__(self) -> str:
        return f"QPoly({self._coeffs!r})"

    def __str__(self) -> str:
        if not self._coeffs:
            return "0"
        terms = []
        for i, c in enumerate(self._coeffs):
            if c == 0:
                continue
            mag = abs(c)
            if i == 0:
                body = str(mag)
            elif i == 1:
                body = "q" if mag == 1 else f"{mag}q"
            else:
                body = f"q^{i}" if mag == 1 else f"{mag}q^{i}"
            terms.append(("-" if c < 0 else "+", body))
        sign, body = terms[0]
        text = body if sign == "+" else f"-{body}"
        for sign, body in terms[1:]:
            text += f" {sign} {body}"
        return text


def _kronecker(a: tuple[int, ...], b: tuple[int, ...]) -> list[int]:
    """The coefficients of a * b by Kronecker substitution: one integer
    product of a(2**w) and b(2**w), read back as base-2**w digits.  Digits
    are stored offset by half = 2**(w-1), so signed coefficients pack as
    unsigned bytes; half exceeds every |coefficient| the product can have."""
    bound = min(len(a), len(b)) * max(map(abs, a)) * max(map(abs, b))
    width = bound.bit_length() // 8 + 1
    half = 1 << (8 * width - 1)
    offset = bytes(width - 1) + b"\x80"  # one digit holding half

    def evaluate(cs: tuple[int, ...]) -> int:
        digits = b"".join([(c + half).to_bytes(width, "little") for c in cs])
        return int.from_bytes(digits, "little") - int.from_bytes(offset * len(cs), "little")

    size = len(a) + len(b) - 1
    product = evaluate(a) * evaluate(b) + int.from_bytes(offset * size, "little")
    digits = product.to_bytes(width * size, "little")
    return [
        int.from_bytes(digits[i : i + width], "little") - half
        for i in range(0, len(digits), width)
    ]


def _coerce(value: "QPoly | int") -> QPoly:
    if isinstance(value, QPoly):
        return value
    if isinstance(value, int):
        return QPoly((value,))
    raise TypeError(f"cannot treat {type(value).__name__} as a polynomial")


def q_int(n: int) -> QPoly:
    """The q-integer ``1 + q + ... + q**(n-1)``; zero for n = 0."""
    if n < 0:
        raise ValueError(f"q_int of negative {n}")
    return QPoly((1,) * n)


def mul_q_int(cs: list[int], m: int) -> list[int]:
    """The coefficients of p * [m] from those of p, for m >= 1, in linear
    time: p * (1 - q**m) / (1 - q), so each is a window sum of m of p's."""
    padded = cs + [0] * (m - 1) if cs else []
    return list(accumulate(map(sub, padded, [0] * m + padded)))


def div_q_int(cs: list[int], m: int) -> list[int]:
    """The coefficients of p / [m] from those of p, in linear time:
    p * (1 - q) / (1 - q**m), running sums over each residue class mod m.
    Exact when the last m sums vanish; otherwise (or for m < 1) exact_div
    raises its own error, message and remainder for p and q_int(m)."""
    ext, prev = cs + [0], [0] + cs
    quot = [0] * len(ext)
    for r in range(m):
        # the differences are summed as they are made, never stored
        quot[r::m] = accumulate(map(sub, ext[r::m], prev[r::m]))
    cut = max(len(quot) - m, 0)
    if m < 1 or any(quot[cut:]):
        return list(exact_div(QPoly(cs), q_int(m)).coeffs)  # raises
    return quot[:cut]


def q_binomial(n: int, k: int) -> QPoly:
    """The Gaussian binomial coefficient, zero outside 0 <= k <= n.

    With k' = min(k, n - k), the product of [n - k' + i] / [i] for
    i = 1..k'; after step i the list holds qbin(n - k' + i, i), so every
    division is exact.
    """
    if n < 0:
        raise ValueError(f"q_binomial with negative n: {n}")
    if k < 0 or k > n:
        return QPoly.zero()
    k = min(k, n - k)
    cs = [1]
    for i in range(1, k + 1):
        cs = div_q_int(mul_q_int(cs, n - k + i), i)
    return QPoly(cs)


def exact_div(a: QPoly, b: QPoly) -> QPoly:
    """Divide a by b, requiring the division to be exact over the integers.

    Raises ZeroDivisionError when b is zero and InexactDivisionError (with
    the remainder attached) when b does not divide a.
    """
    if b.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    if a.is_zero:
        return QPoly.zero()
    db = b.degree
    lead = b.coeffs[-1]
    rem = list(a.coeffs)
    if a.degree < db:
        raise InexactDivisionError(f"inexact division: {a} by {b}", QPoly(rem))
    quot = [0] * (a.degree - db + 1)
    for d in range(a.degree - db, -1, -1):
        c = rem[d + db]
        if c == 0:
            continue
        step, leftover = divmod(c, lead)
        if leftover:
            raise InexactDivisionError(f"inexact division: {a} by {b}", QPoly(rem))
        quot[d] = step
        for j, cb in enumerate(b.coeffs):
            rem[d + j] -= step * cb
    if any(rem):
        raise InexactDivisionError(f"inexact division: {a} by {b}", QPoly(rem))
    return QPoly(quot)


def narayana(n: int, k: int) -> int:
    """The Narayana number ``C(n,k) * C(n,k+1) / n``; zero for k >= n."""
    if n < 1:
        raise ValueError(f"narayana needs n >= 1, got {n}")
    if k < 0:
        raise ValueError(f"narayana needs k >= 0, got {k}")
    numerator = comb(n, k) * comb(n, k + 1)
    quotient, leftover = divmod(numerator, n)
    if leftover:
        raise ArithmeticError(f"narayana({n}, {k}) not integral")
    return quotient


@cache
def catalan(n: int) -> int:
    """Catalan number by the convolution recurrence (independent of narayana)."""
    if n < 0:
        raise ValueError(f"catalan of negative {n}")
    if n == 0:
        return 1
    return sum(catalan(i) * catalan(n - 1 - i) for i in range(n))


def q_narayana_closed(n: int, k: int) -> QPoly:
    """The q-Narayana polynomial from its closed form.

    Equals ``qbin(n,k) * qbin(n,k+1) * q**(k*k+k) / [n]``; the division is
    always exact for valid inputs, and a failure signals a bug rather than
    a bad argument.  Zero for k >= n.
    """
    if n < 1:
        raise ValueError(f"q_narayana_closed needs n >= 1, got {n}")
    if k < 0:
        raise ValueError(f"q_narayana_closed needs k >= 0, got {k}")
    if k >= n:
        return QPoly.zero()
    numerator = q_binomial(n, k) * q_binomial(n, k + 1)
    return QPoly([0] * (k * k + k) + div_q_int(list(numerator.coeffs), n))
