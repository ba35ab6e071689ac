"""Dyck path statistics summed over all paths of one semilength.

Statistics, by the names that the tables below accept, each major index
paired with its statistic by narayana.STATISTICS: des / maj (valleys,
reported at the h), hp / maj_w (peaks with prefix v-excess at least 2, the
descents read against W = (vh)^n), ea (v in even position), lnfs / maj_l
(vvh and hhv factors, reported at the center) and da (vv factors).  See
_joint_counts for the transfer matrix that sums them over all paths.  The
enumerate route to the q-Narayana numbers reads the (des, maj) table.
"""

from collections import defaultdict
from math import comb

from . import STATISTICS

# Position i counts for a statistic when its mark holds on (i, height before
# i, w_{i-1}, w_i, w_{i+1}), with None past either end of the word.  A major
# index adds i where its statistic adds 1.
_MARKS = {
    "des": lambda i, h, a, b, c: b == "h" and c == "v",
    "hp": lambda i, h, a, b, c: b == "v" and c == "h" and h >= 1,
    "ea": lambda i, h, a, b, c: b == "v" and i % 2 == 0,
    "lnfs": lambda i, h, a, b, c: (a, b, c) in (("v", "v", "h"), ("h", "h", "v")),
    "da": lambda i, h, a, b, c: b == "v" and c == "v",
}
_MAJOR = {major: name for name, major in STATISTICS.items() if major}
# the rule of a statistic that is 0 on every path: the first of
# distribution's two, so that its states all carry the value 0
_NEVER = (lambda i, h, a, b, c: False, False)


def _mark(name: str):
    try:
        return _MARKS[_MAJOR.get(name, name)]
    except KeyError:
        raise ValueError(f"unknown statistic: {name}") from None


def _joint_counts(n: int, names: tuple[str, ...]) -> tuple[dict[int, int], int]:
    """Number of paths of semilength n by the values of one or two named
    statistics: a transfer matrix over (height, previous letter, letter).

    The value of the first of two statistics is part of the state; the
    counts by the last are packed into one int, as its digits in base
    2**bits, so a step that adds s to the last statistic is a shift by s
    digits.  Returns the packed counts by the value of the first of two
    statistics (0 for one statistic), and bits."""
    rules = [(_mark(name), name in _MAJOR) for name in names]
    if n < 0:
        raise ValueError(f"negative semilength: {n}")
    length = 2 * n
    # the prefixes of one length complete to distinct paths, so no digit
    # exceeds Catalan(n); digits are whole bytes, which _digits reads
    bits = 8 * -(-(comb(length, n) // (n + 1)).bit_length() // 8)
    (first, first_major), (last, last_major) = [_NEVER, *rules][-2:]
    # once w_i is chosen: (height before i, w_{i-1}, w_i, value of the first
    # statistic) -> packed counts; for n = 0 no letter is chosen
    states = {(0, None, "v", 0): 1}
    for i in range(1, length + 1):
        following: defaultdict[tuple, int] = defaultdict(int)
        for (h, a, b, value), packed in states.items():
            after = h + (1 if b == "v" else -1)
            for c in ("v", "h") if i < length else (None,):
                # w_{i+1} keeps the path at or above 0 and able to return to 0
                if c == "v" and after + 1 > length - i - 1 or c == "h" and not after:
                    continue
                moved = value + (i if first_major else 1) * first(i, h, a, b, c)
                shift = (i if last_major else 1) * last(i, h, a, b, c) * bits
                following[(after, b, c, moved)] += packed << shift
        states = following
    totals: defaultdict[int, int] = defaultdict(int)
    for (*_, value), packed in states.items():
        totals[value] += packed
    return totals, bits


def _digits(packed: int, bits: int) -> list[int]:
    # the base-2**bits digits of packed, lowest first, bits a multiple of 8
    width = bits // 8
    raw = packed.to_bytes(-(-packed.bit_length() // bits) * width, "little")
    return [int.from_bytes(raw[j : j + width], "little") for j in range(0, len(raw), width)]


def distribution(n: int, statistic: str) -> dict[int, int]:
    """Exact counts of a statistic over all paths of semilength n."""
    totals, bits = _joint_counts(n, (statistic,))
    return {k: count for k, count in enumerate(_digits(totals[0], bits)) if count}


def joint_coefficients(n: int, statistic: str, costatistic: str) -> dict[int, list[int]]:
    """For each value k of the statistic, the coefficients of the sum of
    q**costatistic over the paths with statistic k."""
    totals, bits = _joint_counts(n, (statistic, costatistic))
    return {k: _digits(totals[k], bits) for k in sorted(totals)}


def q_narayana_enumerate(n: int, k: int) -> "QPoly":
    """q-Narayana as the sum of q^maj over the paths of semilength n with
    k descents, the list of k in the (des, maj) table of
    joint_coefficients; zero for k >= n before the table is built."""
    from .qpoly import QPoly, _nonzero  # here, so that the tables do not load it

    if not _nonzero("q_narayana_enumerate", n, k):
        return QPoly()
    return QPoly(joint_coefficients(n, "des", "maj").get(k, ()))
