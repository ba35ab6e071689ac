"""The flag h-vector of J(2 x n) and the main-theorem check.

J(2 x n) is the lattice of order ideals of the chain product 2 x n.  The
ideal with a elements in the first row and b in the second is the point
(a, b), 0 <= b <= a <= n, of rank a + b; a cover adds the first-row element
(1, a + 1), a step v, or the second-row element (2, b + 1), a step h, so the
maximal chains are the Dyck paths.  The flag h-vector beta(S) is the
inclusion-exclusion transform of alpha(S), the number of chains through the
interior ranks S.  By Stanley's theorem beta(S) counts the maximal chains,
that is the linear extensions of 2 x n, whose descent set under a natural
labelling is S, and flag_h_table computes it that way.  Reading a linear
extension as the path of its first coordinates carries the descent sets of
Jordan-Holder permutations to path statistics.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Iterable, Mapping, Sequence

from .dyck import DyckPath, enumerate_paths, label

THEOREM_GUARD = 6


def permutation_descents(pi: Sequence[int]) -> frozenset[int]:
    """Positions i with pi(i) > pi(i+1), 1-based."""
    return frozenset(i for i in range(1, len(pi)) if pi[i - 1] > pi[i])


def flag_h_table(n: int) -> Counter[frozenset[int]]:
    """beta(S) for every subset S of the interior ranks [2n - 1] of J(2 x n).

    By Stanley's theorem (EC1 3.13), beta(S) counts the maximal chains
    whose label word has descent set S under the natural labelling of
    2 x n that reads (1, 1), (2, 1), (1, 2), (2, 2), ...: the cover adding
    (1, a + 1) is labelled 2a and the one adding (2, b + 1) is labelled
    2b + 1.  One pass over the points by rank keeps, for each point and
    label of its last cover, a Counter of descent masks, rank r being bit
    r - 1.  Only nonzero entries appear, in bitmask order."""
    if n < 1:
        raise ValueError(f"flag_h_table needs n >= 1, got {n}")
    states = {(0, 0, -1): Counter({0: 1})}
    for r in range(2 * n):
        following: defaultdict[tuple[int, int, int], Counter[int]] = defaultdict(Counter)
        for (a, b, last), counts in states.items():
            for x, y, new in ((a + 1, b, 2 * a), (a, b + 1, 2 * b + 1)):
                if y <= x <= n:
                    descent = 1 << (r - 1) if last > new else 0
                    masks = following[x, y, new]
                    for mask, count in counts.items():
                        masks[mask | descent] += count
        states = following
    top = sum(states.values(), Counter())
    return Counter(
        {frozenset(r for r in range(1, 2 * n) if m >> (r - 1) & 1): top[m] for m in sorted(top)}
    )


def flag_h_mismatches(
    betas: Mapping[frozenset[int], int], **tables: Mapping[frozenset[int], int]
) -> list[dict]:
    """Compare a flag h-table, as flag_h_table gives it, with each named
    table of counts by rank set; a missing key counts as zero.  One witness
    per rank set S, ordered by size and then elements, on which some table
    differs from beta(S); the witness holds beta(S) as flag_h, S as s, and
    each table's count by name."""
    witnesses = []
    for S in sorted(set(betas).union(*tables.values()), key=lambda s: (len(s), sorted(s))):
        beta = betas.get(S, 0)
        counts = {name: table.get(S, 0) for name, table in tables.items()}
        if any(count != beta for count in counts.values()):
            witnesses.append({"flag_h": beta, "s": sorted(S), **counts})
    return witnesses


def verify_theorem_main(n: int, refs: Iterable[DyckPath]) -> list[dict]:
    """Check beta(S) of J(2 x n) against the number of paths whose descent
    set read against W equals S, for every S in [2n-1] and every reference
    path W in refs.

    The flag h-vector is computed once and every path and reference is
    labeled once.  Returns the flag_h_mismatches witnesses of each
    reference in turn, each with keys flag_h, paths, ref_path and s; the
    list is empty when the theorem holds.
    """
    if n > THEOREM_GUARD:
        raise ValueError(f"too large: n = {n} exceeds guard {THEOREM_GUARD}")
    if n < 1:
        raise ValueError(f"verify_theorem_main needs n >= 1, got {n}")
    refs = list(refs)
    for W in refs:
        if W.n != n:
            raise ValueError(f"length mismatch: |W| = {2 * W.n}, expected {2 * n}")
    betas = flag_h_table(n)
    labeled = [label(w) for w in enumerate_paths(n)]
    witnesses = []
    for W in refs:
        order = {lab: pos for pos, lab in enumerate(label(W.word))}
        buckets = Counter(permutation_descents([order[x] for x in lab]) for lab in labeled)
        mismatches = flag_h_mismatches(betas, paths=buckets)
        witnesses += [dict(w, ref_path=W.word) for w in mismatches]
    return witnesses
