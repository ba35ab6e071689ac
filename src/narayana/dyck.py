"""Dyck paths and their combinatorial statistics.

A path of semilength n is a word of n ``v`` and n ``h`` steps in which every
prefix holds at least as many v as h.  Positions are 1-based.

Statistics, by the names that distribution and joint_q accept: des / maj
(valleys, reported at the h), hp (peaks with prefix v-excess at least 2), ea
(v in even position), lnfs / maj_l (vvh and hhv factors, reported at the
center), da (vv factors), and the reference-word family des_w / maj_w built
from the labeling v_i, h_j.  Both tables sum over all paths by a transfer
matrix over (height, previous letter, letter), whose states also carry the
value of joint_q's statistic.  Each state holds its counts by the value of
distribution's statistic, or of joint_q's costatistic, packed into one int
as base-2**bits digits wide enough for Catalan(n), so a step that adds s to
that value is a shift by s digits.
On one path's word, descent_set and ls_set give the des and lnfs positions.
"""

from __future__ import annotations

import random
from collections import defaultdict
from functools import cache
from typing import TYPE_CHECKING, Iterable, Iterator

if TYPE_CHECKING:
    from .qpoly import QPoly

Label = tuple[str, int]


class DyckPath:
    """An immutable Dyck path of semilength n, held as its lowercase word.

    It validates words that come from outside; the readers below take a
    word, since the library's own words are Dyck words by construction."""

    __slots__ = ("_word",)

    def __init__(self, steps: "Iterable[str] | str"):
        word = "".join(steps).lower()
        excess = 0
        for position, letter in enumerate(word, start=1):
            if letter == "v":
                excess += 1
            elif letter == "h":
                excess -= 1
                if excess < 0:
                    raise ValueError(f"prefix condition violated at position {position}")
            else:
                raise ValueError(f"invalid character {letter!r} in path word")
        if excess != 0:
            raise ValueError("unbalanced word: needs equal numbers of v and h")
        self._word = word

    @property
    def n(self) -> int:
        """Semilength; the word has 2n letters."""
        return len(self._word) // 2

    @property
    def word(self) -> str:
        return self._word

    def __eq__(self, other: object) -> bool:
        if isinstance(other, DyckPath):
            return self._word == other._word
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._word)

    def __repr__(self) -> str:
        return f"DyckPath({self._word!r})"


def enumerate_paths(n: int) -> Iterator[str]:
    """Yield the word of every path of semilength n once, lexicographically
    with v < h.  Each is a Dyck word by construction and is not validated."""
    if n < 0:
        raise ValueError(f"negative semilength: {n}")

    def walk(prefix: str, v_left: int, h_left: int, excess: int) -> Iterator[str]:
        if not v_left and not h_left:
            yield prefix
            return
        if v_left:
            yield from walk(prefix + "v", v_left - 1, h_left, excess + 1)
        if h_left and excess:
            yield from walk(prefix + "h", v_left, h_left - 1, excess - 1)

    return walk("", n, n, 0)


@cache
def _completions(steps: int, excess: int) -> int:
    # lattice walks of the given length from height `excess` down to 0,
    # never dipping below 0
    if excess < 0 or excess > steps or (steps - excess) % 2:
        return 0
    if steps == 0:
        return 1
    total = _completions(steps - 1, excess + 1)
    if excess:
        total += _completions(steps - 1, excess - 1)
    return total


def unrank(n: int, index: int) -> DyckPath:
    """The path at the given 0-based position in lexicographic order."""
    # qpoly is imported by the three functions that call it, so that a
    # request using only paths and their statistics does not load it
    from .qpoly import catalan

    if n < 0:
        raise ValueError(f"negative semilength: {n}")
    if not 0 <= index < catalan(n):
        raise ValueError(f"index out of range: {index} not in [0, {catalan(n)})")
    word = []
    excess = 0
    for remaining in range(2 * n, 0, -1):
        with_v = _completions(remaining - 1, excess + 1)
        if index < with_v:
            word.append("v")
            excess += 1
        else:
            index -= with_v
            word.append("h")
            excess -= 1
    return DyckPath(word)


def random_path(n: int, seed: "int | random.Random | None" = None) -> DyckPath:
    """A uniformly random path, reproducible for a fixed integer seed."""
    from .qpoly import catalan

    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    return unrank(n, rng.randrange(catalan(n)))


def descent_set(word: str) -> frozenset[int]:
    """Positions i with w_i = h and w_{i+1} = v (the valley's h)."""
    return frozenset(
        i for i in range(1, len(word)) if word[i - 1] == "h" and word[i] == "v"
    )


def ls_set(word: str) -> frozenset[int]:
    """Centers i in [2, 2n-1] of factors w_{i-1} w_i w_{i+1} = vvh or hhv."""
    return frozenset(
        i
        for i in range(2, len(word))
        if word[i - 2 : i + 1] in ("vvh", "hhv")
    )


def label(word: str) -> tuple[Label, ...]:
    """Occurrence labels: the i-th v becomes ("v", i), the j-th h ("h", j)."""
    labels = []
    seen_v = seen_h = 0
    for letter in word:
        if letter == "v":
            seen_v += 1
            labels.append(("v", seen_v))
        else:
            seen_h += 1
            labels.append(("h", seen_h))
    return tuple(labels)


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
_MAJOR = {"maj": "des", "maj_l": "lnfs", "maj_w": "des_w"}
# the rule of a statistic that is 0 on every path: the first of
# distribution's two, so that its states all carry the value 0
_NEVER = (lambda i, h, a, b, c: False, False)


def _mark(name: str, wrt: DyckPath | None):
    base = _MAJOR.get(name, name)
    if base in _MARKS:
        return _MARKS[base]
    if base != "des_w":
        raise ValueError(f"unknown statistic: {name}")
    if wrt is None:
        raise ValueError(f"statistic {name} needs a reference path")
    order = {lab: pos for pos, lab in enumerate(label(wrt.word))}

    def position_in_wrt(i: int, h: int, letter: str) -> int:
        # the i - 1 letters before position i, ending at height h, hold
        # (i - 1 + h) / 2 letters v
        seen_v = (i - 1 + h) // 2
        return order[("v", seen_v + 1) if letter == "v" else ("h", i - seen_v)]

    def descent_wrt(i, h, a, b, c):
        after = h + (1 if b == "v" else -1)
        return c is not None and position_in_wrt(i + 1, after, c) < position_in_wrt(i, h, b)

    return descent_wrt


def _joint_counts(
    n: int, names: tuple[str, ...], wrt: DyckPath | None
) -> tuple[dict[int, int], int]:
    """Number of paths of semilength n by the values of one or two named
    statistics: a transfer matrix over (height, previous letter, letter).

    The value of the first of two statistics is part of the state; the
    counts by the last are packed into one int, as its digits in base
    2**bits, so a step that adds s to the last statistic is a shift by s
    digits.  Returns the packed counts by the value of the first of two
    statistics (0 for one statistic), and bits."""
    rules = [(_mark(name, wrt), name in _MAJOR) for name in names]
    if n < 0:
        raise ValueError(f"negative semilength: {n}")
    if wrt is not None and wrt.n != n and {"des_w", "maj_w"} & set(names):
        raise ValueError(f"length mismatch: |w| = {2 * n}, |W| = {2 * wrt.n}")
    length = 2 * n
    # the prefixes of one length complete to distinct paths, so no digit
    # exceeds Catalan(n); digits are whole bytes, which _digits reads
    bits = 8 * -(-_completions(length, 0).bit_length() // 8)
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


def distribution(
    n: int, statistic: str, *, wrt: DyckPath | None = None
) -> dict[int, int]:
    """Exact counts of a statistic over all paths of semilength n."""
    totals, bits = _joint_counts(n, (statistic,), wrt)
    return {k: count for k, count in enumerate(_digits(totals[0], bits)) if count}


def joint_q(
    n: int, statistic: str, costatistic: str, *, wrt: DyckPath | None = None
) -> dict[int, QPoly]:
    """For each value k of the statistic, the generating polynomial
    sum of q**costatistic over the paths with statistic k."""
    from .qpoly import QPoly

    totals, bits = _joint_counts(n, (statistic, costatistic), wrt)
    return {k: QPoly(_digits(totals[k], bits)) for k in sorted(totals)}
