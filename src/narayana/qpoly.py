"""Exact polynomial arithmetic in the variable q over the integers.

Provides the q-analogues used everywhere else in the package: q-integers,
q-factorials, Gaussian binomial coefficients and the closed-form q-Narayana
numbers, together with the plain (q = 1) Narayana and Catalan numbers.

All coefficients are Python ints, so arithmetic is exact at every size.
"""

from __future__ import annotations

from functools import cache
from math import comb
from typing import Iterable, Iterator


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


def q_factorial(n: int) -> QPoly:
    """Product of the q-integers 1 through n; the empty product is 1."""
    if n < 0:
        raise ValueError(f"q_factorial of negative {n}")
    result = QPoly.one()
    for m in range(2, n + 1):
        result = result * q_int(m)
    return result


def q_binomial(n: int, k: int) -> QPoly:
    """The Gaussian binomial coefficient, zero outside 0 <= k <= n.

    Built bottom-up by the q-Pascal recurrence
    ``qbin(m, j) = qbin(m-1, j-1) + q**j * qbin(m-1, j)``,
    which keeps every intermediate value a polynomial with nonnegative
    integer coefficients; no division is performed.
    """
    if n < 0:
        raise ValueError(f"q_binomial with negative n: {n}")
    if k < 0 or k > n:
        return QPoly.zero()
    row = [QPoly.one()]
    for m in range(1, n + 1):
        prev = row
        row = [QPoly.one()]
        for j in range(1, m):
            row.append(prev[j - 1] + QPoly.q_power(j) * prev[j])
        row.append(QPoly.one())
    return row[k]


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
    numerator = q_binomial(n, k) * q_binomial(n, k + 1) * QPoly.q_power(k * k + k)
    return exact_div(numerator, q_int(n))
