"""Dyck paths as words: enumerated in lexicographic order, which indexes
them, and read one at a time by ls_set.  A path of semilength n is a word
of n ``v`` and n ``h`` steps in which every prefix holds at least as many v
as h.  Positions are 1-based.  narayana.stats sums statistics over all
paths.
"""

from collections.abc import Iterable, Iterator


def dyck_word(steps: "Iterable[str] | str") -> str:
    """A path's word from outside, lowercased and validated: the one guard
    on words, as the library's own are Dyck words by construction."""
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
    return word


def enumerate_paths(n: int) -> Iterator[str]:
    """Yield the word of every path of semilength n once, lexicographically
    with v < h.  Each is a Dyck word by construction and is not validated."""
    if n < 0:
        raise ValueError(f"negative semilength: {n}")
    # one length at a time: each prefix's v child before its h child keeps the order
    words, heights = [""], [0]
    for room in range(2 * n - 1, -1, -1):  # the letters after the next one
        longer, raised = [], []
        for word, height in zip(words, heights):
            if height < room:
                longer.append(word + "v")
                raised.append(height + 1)
            if height:
                longer.append(word + "h")
                raised.append(height - 1)
        words, heights = longer, raised
    return (word for word in words)


def _bit_indices(mask: int) -> Iterator[int]:
    """The indices of the set bits of mask, lowest first: the ranks of a rank set."""
    while mask:
        low = mask & -mask
        mask ^= low
        yield low.bit_length() - 1


def ls_set(word: str) -> int:
    """Centers r in [2, 2n-1] of factors vvh or hhv, as a mask with rank r at bit r."""
    centers = 0
    for factor in ("vvh", "hhv"):
        i = word.find(factor)
        while i >= 0:
            centers |= 1 << i + 2
            i = word.find(factor, i + 1)
    return centers

