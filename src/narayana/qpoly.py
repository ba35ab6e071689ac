"""Exact polynomials in the variable q over the integers.

Provides the q-analogues used everywhere else in the package: products and
quotients by q-integers, Gaussian binomial coefficients and the closed-form
q-Narayana numbers,
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
from typing import Iterable

SCHOOLBOOK_MAX = 8  # products whose shorter factor has at most this many terms


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

    @property
    def coeffs(self) -> tuple[int, ...]:
        return self._coeffs

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self._coeffs) - 1

    def __eq__(self, other: object) -> bool:
        if isinstance(other, QPoly):
            return self._coeffs == other._coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __mul__(self, other: "QPoly") -> "QPoly":
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


def mul_q_int(cs: list[int], m: int) -> list[int]:
    """The coefficients of p * [m] from those of p, for m >= 1, in linear
    time: p * (1 - q**m) / (1 - q), so each is a window sum of m of p's."""
    if m < 1:
        raise ValueError(f"mul_q_int needs m >= 1, got {m}")
    padded = cs + [0] * (m - 1) if cs else []
    return list(accumulate(map(sub, padded, [0] * m + padded)))


def div_q_int(cs: list[int], m: int) -> list[int]:
    """The coefficients of p / [m] from those of p, for m >= 1, in linear
    time: p * (1 - q) / (1 - q**m), running sums over each residue class
    mod m.  Exact when the last m sums vanish; otherwise ArithmeticError."""
    if m < 1:
        raise ValueError(f"div_q_int needs m >= 1, got {m}")
    ext, prev = cs + [0], [0] + cs
    quot = [0] * len(ext)
    for r in range(m):
        # the differences are summed as they are made, never stored
        quot[r::m] = accumulate(map(sub, ext[r::m], prev[r::m]))
    cut = max(len(quot) - m, 0)
    if any(quot[cut:]):
        raise ArithmeticError(f"inexact division: {QPoly(cs)} by [{m}]")
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
        return QPoly()
    k = min(k, n - k)
    cs = [1]
    for i in range(1, k + 1):
        cs = div_q_int(mul_q_int(cs, n - k + i), i)
    return QPoly(cs)


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
    a bad argument.  Zero for k >= n.  q_binomial builds the cheaper of the
    two binomials, and one exact step gives the other, since
    ``qbin(n,k+1) * [k+1] = qbin(n,k) * [n-k]``.
    """
    if n < 1:
        raise ValueError(f"q_narayana_closed needs n >= 1, got {n}")
    if k < 0:
        raise ValueError(f"q_narayana_closed needs k >= 0, got {k}")
    if k >= n:
        return QPoly()
    # q_binomial(n, j) takes min(j, n - j) steps, so qbin(n, k) is no
    # dearer than qbin(n, k + 1) exactly when 2k < n
    if 2 * k < n:
        low = q_binomial(n, k)
        high = QPoly(div_q_int(mul_q_int(list(low.coeffs), n - k), k + 1))
    else:
        high = q_binomial(n, k + 1)
        low = QPoly(div_q_int(mul_q_int(list(high.coeffs), k + 1), n - k))
    numerator = low * high
    return QPoly([0] * (k * k + k) + div_q_int(list(numerator.coeffs), n))
