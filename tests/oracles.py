"""Slow definitional oracles for the fast routines of the library.

Each routine here computes by definition what the library computes by a
theorem, and the tests compare the two.  None of it serves a request.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations
from typing import Iterable

from narayana.posets import GradedBoundedPoset, _bit_indices


def _check_rank_subset(L: GradedBoundedPoset, S: Iterable[int]) -> frozenset[int]:
    s = frozenset(S)
    for r in s:
        if not isinstance(r, int) or not 1 <= r <= L.top_rank - 1:
            raise ValueError(
                f"rank out of range: {r!r} not in [1, {L.top_rank - 1}]"
            )
    return s


def flag_f(L: GradedBoundedPoset, S: Iterable[int]) -> int:
    """Number of chains in the proper part of L whose rank set is exactly S."""
    s = sorted(_check_rank_subset(L, S))
    if not s:
        return 1
    layer = L._by_rank[s[0]]
    counts = [1] * len(layer)
    for r in s[1:]:
        nxt = L._by_rank[r]
        counts = [
            sum(c for i, c in zip(layer, counts) if (L._ge[i] >> j) & 1)
            for j in nxt
        ]
        layer = nxt
    return sum(counts)


def flag_h(L: GradedBoundedPoset, S: Iterable[int]) -> int:
    """Inclusion-exclusion transform of flag_f over subsets of S."""
    s = sorted(_check_rank_subset(L, S))
    total = 0
    for size in range(len(s) + 1):
        sign = (-1) ** (len(s) - size)
        for T in combinations(s, size):
            total += sign * flag_f(L, T)
    return total


def _alpha_by_mask(L: GradedBoundedPoset) -> list[int]:
    # alpha(S) at the bitmask of S, rank r being bit r - 1, by extending
    # chain-count vectors depth-first one rank at a time
    top = L.top_rank
    data = [0] * (1 << max(top - 1, 0))
    data[0] = 1

    def extend(mask: int, last: int, layer: list[int], counts: list[int]) -> None:
        data[mask] = sum(counts)
        for r in range(last + 1, top):
            nxt = L._by_rank[r]
            nxt_counts = [
                sum(c for i, c in zip(layer, counts) if (L._ge[i] >> j) & 1)
                for j in nxt
            ]
            extend(mask | 1 << (r - 1), r, nxt, nxt_counts)

    for r in range(1, top):
        extend(1 << (r - 1), r, L._by_rank[r], [1] * len(L._by_rank[r]))
    return data


def _by_rank_set(data: list[int]) -> Counter[frozenset[int]]:
    # the nonzero entries of a mask-indexed table, rank r being bit r - 1
    entries = ((mask, value) for mask, value in enumerate(data) if value)
    return Counter({frozenset(b + 1 for b in _bit_indices(m)): v for m, v in entries})


def alpha_table(L: GradedBoundedPoset) -> Counter[frozenset[int]]:
    """flag_f for every subset of the interior ranks at once, by extending
    chain-count vectors depth-first one rank at a time.  Only nonzero
    entries appear, in bitmask order, rank r being bit r - 1."""
    return _by_rank_set(_alpha_by_mask(L))


def dense_flag_h_table(L: GradedBoundedPoset) -> Counter[frozenset[int]]:
    """flag_h for every subset of the interior ranks, via the subset
    Moebius transform of the dense alpha table over all 2^(top - 1) rank
    sets: the independent oracle of posets.flag_h_table.  Only nonzero
    entries appear, in bitmask order, rank r being bit r - 1."""
    data = _alpha_by_mask(L)
    for b in range(len(data).bit_length() - 1):
        bit = 1 << b
        for mask in range(len(data)):
            if mask & bit:
                data[mask] -= data[mask ^ bit]
    return _by_rank_set(data)
