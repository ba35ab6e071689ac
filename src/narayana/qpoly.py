"""Exact polynomials in the variable q over the integers.

Provides the q-analogues used everywhere else in the package: ratios of
q-integers, Gaussian binomial coefficients and the two closed routes to the
q-Narayana numbers, the closed form and the hook-content formula, together
with the plain (q = 1) Narayana numbers.

All coefficients are Python ints, so arithmetic is exact at every size.
Every product runs as one big-integer product (Kronecker substitution), and
multiplying by a ratio of q-integers [a] / [b] takes time linear in the
degree.
"""

from itertools import accumulate
from math import comb
from operator import sub


class QPoly:
    """A polynomial in q with integer coefficients, in canonical form.

    ``coeffs[i]`` is the coefficient of ``q**i``.  The stored tuple never
    ends in a zero; the zero polynomial is the empty tuple.  Instances are
    immutable and hashable, and equality is structural.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: list[int] | tuple[int, ...] = ()):
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
        """The product, as one Kronecker product of the coefficients."""
        a, b = self._coeffs, other._coeffs
        if not a or not b:
            return QPoly()
        return QPoly(_kronecker(a, b))

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


def ratio_q_int(cs: list[int], a: int, b: int) -> list[int]:
    """The coefficients of p * [a] / [b] from those of p, for a, b >= 1, in
    linear time: p * (1 - q**a) / (1 - q**b), one difference and then
    running sums over each residue class mod b.  Exact when the last b sums
    vanish; otherwise ArithmeticError."""
    if a < 1 or b < 1:
        raise ValueError(f"ratio_q_int needs a, b >= 1, got a = {a}, b = {b}")
    pad = [0] * a if cs else []
    ext, prev = cs + pad, pad + cs
    quot = [0] * len(ext)
    for r in range(b):
        # the differences are summed as they are made, never stored
        quot[r::b] = accumulate(map(sub, ext[r::b], prev[r::b]))
    cut = max(len(quot) - b, 0)
    if any(quot[cut:]):
        raise ArithmeticError(f"inexact division: {QPoly(cs)} * [{a}] by [{b}]")
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
        cs = ratio_q_int(cs, n - k + i, i)
    return QPoly(cs)


def narayana(n: int, k: int) -> int:
    """The Narayana number ``C(n,k) * C(n,k+1) / n``; zero for k >= n."""
    if not _nonzero("narayana", n, k):
        return 0
    quotient, leftover = divmod(comb(n, k) * comb(n, k + 1), n)
    if leftover:
        raise ArithmeticError(f"narayana({n}, {k}) not integral")
    return quotient


def _nonzero(name: str, n: int, k: int) -> bool:
    """Refuse n < 1 and k < 0 in the name of a Narayana routine; whether
    k < n, below which its number or polynomial is nonzero."""
    if n < 1:
        raise ValueError(f"{name} needs n >= 1, got {n}")
    if k < 0:
        raise ValueError(f"{name} needs k >= 0, got {k}")
    return k < n


def q_narayana_closed(n: int, k: int) -> QPoly:
    """The q-Narayana polynomial from its closed form.

    Equals ``qbin(n,k) * qbin(n,k+1) * q**(k*k+k) / [n]``; the division is
    always exact for valid inputs, and a failure signals a bug rather than
    a bad argument.  Zero for k >= n.  Without its shift the form is
    symmetric under k <-> n - 1 - k, since qbin(n,k) = qbin(n,n-k); so
    q_binomial builds qbin(n,j), j = min(k, n - 1 - k), and one exact step
    gives qbin(n,j+1) = qbin(n,j) * [n-j] / [j+1], the other binomial.
    """
    if not _nonzero("q_narayana_closed", n, k):
        return QPoly()
    j = min(k, n - 1 - k)
    low = q_binomial(n, j)
    high = QPoly(ratio_q_int(list(low.coeffs), n - j, j + 1))
    numerator = low * high
    return QPoly([0] * (k * k + k) + ratio_q_int(list(numerator.coeffs), 1, n))


def q_narayana_hook(n: int, k: int) -> QPoly:
    """q-Narayana by the hook-content formula for 2^j in n - 1 variables,
    j = min(k, n - 1 - k): q^(k^2 + k) times the product of
    [n - 1 + c(u)] / [h(u)] over the cells u of 2^j.

    Without its shift the polynomial of (n, k) is that of (n, n - 1 - k),
    since qbin(n, k) = qbin(n, n - k); so j rows give it, and k = 5n/6
    costs what k = n/6 does.  Row i has contents 1 - i and 2 - i and hooks
    j + 2 - i and j + 1 - i, so its factors are [n - i] and [n + 1 - i],
    and the hooks of all the rows are [1], ..., [j] and [2], ..., [j + 1].
    Row by row the list takes [n + 1 - i] / [i], then [n - i] / [i], and
    holds qbin(n, i) qbin(n - 1, i - 1) after the first step and
    qbin(n, i) qbin(n - 1, i) after the second, so every division is
    exact; a last step by [1] / [j + 1] makes the divisors the hooks.  Each step is linear in the
    degree.  A nonzero remainder raises ArithmeticError and means a bug.
    Zero for k >= n.
    """
    if not _nonzero("q_narayana_hook", n, k):
        return QPoly()
    j = min(k, n - 1 - k)
    cs = [1]
    for i in range(1, j + 1):
        cs = ratio_q_int(ratio_q_int(cs, n + 1 - i, i), n - i, i)
    return QPoly([0] * (k * k + k) + ratio_q_int(cs, 1, j + 1))
