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

from collections import Counter
from collections.abc import Iterable, Mapping
from itertools import count
from operator import gt

from .dyck import _bit_indices, dyck_word, enumerate_paths


def flag_h_table(n: int) -> Counter[int]:
    """beta(S) for every subset S of the interior ranks [2n - 1] of J(2 x n),
    keyed by the mask of S with rank r at bit r.

    By Stanley's theorem (EC1 3.13), beta(S) counts the maximal chains
    whose label word has descent set S under the natural labelling of
    2 x n that reads (1, 1), (2, 1), (1, 2), (2, 2), ...: the cover adding
    (1, a + 1) is labelled 2a and the one adding (2, b + 1) is labelled
    2b + 1.  One pass over the points by rank keeps, for each point and
    label of its last cover, the chain counts by descent mask.  Only
    nonzero entries appear, in mask order."""
    if n < 1:
        raise ValueError(f"flag_h_table needs n >= 1, got {n}")
    states = {(0, 0, -1): {0: 1}}
    for r in range(2 * n):
        following: dict[tuple[int, int, int], dict[int, int]] = {}
        for (a, b, last), counts in states.items():
            for x, y, new in ((a + 1, b, 2 * a), (a, b + 1, 2 * b + 1)):
                if y <= x <= n:
                    descent = 1 << r if last > new else 0
                    masks = following.setdefault((x, y, new), {})
                    for mask, count in counts.items():
                        masks[mask | descent] = masks.get(mask | descent, 0) + count
        states = following
    top = sum(map(Counter, states.values()), Counter())
    return Counter({mask: top[mask] for mask in sorted(top)})


def flag_h_mismatches(betas: Mapping[int, int], **tables: Mapping[int, int]) -> list[dict]:
    """Compare a flag h-table, as flag_h_table gives it, with each named
    table of counts by rank set, a mask with rank r at bit r; a missing key
    counts as zero.  One witness per rank set S, ordered by size and then
    elements, on which some table differs from beta(S); it holds beta(S)
    as flag_h, the ranks of S in order as s, and each table's count."""
    # equal Counters agree on every key, a missing one counting as zero
    if all(Counter(table) == Counter(betas) for table in tables.values()):
        return []
    ranks = {S: list(_bit_indices(S)) for S in set(betas).union(*tables.values())}
    witnesses = []
    for S in sorted(ranks, key=lambda S: (len(ranks[S]), ranks[S])):
        beta = betas.get(S, 0)
        counts = {name: table.get(S, 0) for name, table in tables.items()}
        if any(count != beta for count in counts.values()):
            witnesses.append({"flag_h": beta, "s": ranks[S], **counts})
    return witnesses


def verify_theorem_main(n: int, refs: Iterable[str]) -> list[dict]:
    """Check beta(S) of J(2 x n) against the number of paths whose descent
    set read against W equals S, for every S in [2n-1] and every reference
    path W in refs, each a word that is validated here.

    The flag h-vector is computed once and every path and reference is
    coded once.  Returns the flag_h_mismatches witnesses of each
    reference in turn, each with keys flag_h, paths, ref_path and s; the
    list is empty when the theorem holds.
    """
    if n < 1:
        raise ValueError(f"verify_theorem_main needs n >= 1, got {n}")
    refs = list(map(dyck_word, refs))
    if not refs:
        raise ValueError("verify_theorem_main needs at least one reference path")
    for W in refs:
        if len(W) != 2 * n:
            raise ValueError(f"length mismatch: |W| = {len(W)}, expected {2 * n}")
    betas = flag_h_table(n)

    def codes(word: str) -> list[int]:
        # each letter coded by its place in v^n h^n: the i-th v is i - 1,
        # the j-th h is n + j - 1
        next_code = {"v": count().__next__, "h": count(n).__next__}
        return [next_code[letter]() for letter in word]

    # a reference's positions, indexed by code, are the inverse of its
    # codes; a descent set is counted by its bytes, a flag per rank, and
    # each distinct one read back to front in binary
    coded = list(map(codes, enumerate_paths(n)))
    digits = bytes.maketrans(b"\0\1", b"01")
    witnesses = []
    for W in refs:
        where = sorted(range(2 * n), key=codes(W).__getitem__)
        positions = [list(map(where.__getitem__, c)) for c in coded]
        counts = Counter(bytes(map(gt, pi, pi[1:])) for pi in positions)
        masks = Counter({int(key[::-1].translate(digits), 2) << 1: c for key, c in counts.items()})
        if masks != betas:
            witnesses += [dict(w, ref_path=W) for w in flag_h_mismatches(betas, paths=masks)]
    return witnesses
