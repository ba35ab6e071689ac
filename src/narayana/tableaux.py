"""Two-column semistandard tableaux and the Schur routes to q-Narayana numbers.

A tableau of shape 2^k is its rows: a tuple of k pairs (a, b) with a <= b,
both columns strictly increasing.  With entries below n it encodes a Dyck
path block by block, and its row sums become the descent set.  The
q-Narayana polynomial is the Schur polynomial of 2^k at (q, q^2, ...,
q^(n-1)), computed twice: as the plain sum over the tableaux and by the
hook-content formula.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from functools import cache
from typing import TYPE_CHECKING, Iterator, Sequence

from .qpoly import QPoly, div_q_int, mul_q_int, narayana, q_narayana_closed

# dyck is imported by the functions that call it, so that the closed-form
# and Schur routes do not load it
if TYPE_CHECKING:
    from .dyck import DyckPath

Rows = tuple[tuple[int, int], ...]


def two_column_fillings(k: int, m: int) -> Iterator[Rows]:
    """The rows of every tableau of shape 2^k with entries in [1, m], in
    lexicographic order of the row-major reading word."""
    if k < 0 or m < 0:
        raise ValueError(f"negative row count or max part: k = {k}, m = {m}")

    @cache
    def rows_after(last: tuple[int, int]) -> list[tuple[int, int]]:
        # the rows (c, d) that may follow (a, b): a < c <= d and b < d
        a, b = last
        return [(c, d) for c in range(a + 1, m + 1) for d in range(max(c, b + 1), m + 1)]

    def fill(rows: Rows, last: tuple[int, int]) -> Iterator[Rows]:
        if len(rows) == k:
            yield rows
            return
        for row in rows_after(last):
            yield from fill((*rows, row), row)

    return fill((), (0, 0))


def ssyt_to_dyck(rows: Sequence[Sequence[int]], n: int) -> DyckPath:
    """Encode a two-column tableau with entries below n as a Dyck path.

    The word is built in k + 1 blocks of v runs followed by h runs: the
    first block has T_12 v and T_11 h, block i the successive differences
    down the columns, and the last block tops both columns up to n.  The
    descent set of the result is exactly the set of row sums.
    """
    from .dyck import DyckPath

    if n < 1:
        raise ValueError(f"ssyt_to_dyck needs n >= 1, got {n}")
    word, above = [], (0, 0)
    for i, row in enumerate(rows, start=1):
        if len(row) != 2:
            raise ValueError(f"not a two-column shape: {tuple(map(len, rows))}")
        for entry in row:
            if not isinstance(entry, int) or isinstance(entry, bool) or entry < 1:
                raise ValueError(f"entries must be positive integers, got {entry!r}")
            if entry >= n:
                raise ValueError(f"entry out of range: {entry} >= {n}")
        if row[0] > row[1]:
            raise ValueError(f"rows must weakly increase: row {i}")
        for j in (0, 1):
            if above[j] >= row[j]:
                raise ValueError(f"columns must strictly increase: column {j + 1}")
        word += ["v" * (row[1] - above[1]), "h" * (row[0] - above[0])]
        above = row
    word += ["v" * (n - above[1]), "h" * (n - above[0])]
    return DyckPath("".join(word))


def dyck_to_ssyt(w: DyckPath) -> Rows:
    """Inverse of ssyt_to_dyck: row i collects the h and v counts of the
    prefix ending at the i-th descent."""
    from .dyck import descent_set

    word = w.word
    prefixes = [word[:s] for s in sorted(descent_set(word))]
    return tuple((prefix.count("h"), prefix.count("v")) for prefix in prefixes)


def _rows_fit(route: str, n: int, k: int) -> bool:
    # k rows fit in n - 1 variables; otherwise the polynomial is zero
    if n < 1:
        raise ValueError(f"{route} needs n >= 1, got {n}")
    if k < 0:
        raise ValueError(f"{route} needs k >= 0, got {k}")
    return k < n


def _digits(packed: int, bits: int) -> list[int]:
    # the base-2**bits digits of packed, lowest first, bits a multiple of 8;
    # a copy of dyck._digits, since the Schur routes do not load dyck
    width = bits // 8
    raw = packed.to_bytes(-(-packed.bit_length() // bits) * width, "little")
    return [int.from_bytes(raw[j : j + width], "little") for j in range(0, len(raw), width)]


def q_narayana_ssyt(n: int, k: int) -> QPoly:
    """q-Narayana as the sum of q^(entry sum) over the tableaux of shape
    2^k with entries below n; zero for k >= n.

    A transfer matrix over the last row (a, b), filled row by row: each
    state holds the tableaux so far that end in it and still leave room for
    the rows to come, counted by entry sum as the base-2**bits digits of one
    int, so adding a row (c, d) is a shift by c + d digits."""
    if not _rows_fit("q_narayana_ssyt", n, k):
        return QPoly()
    m = n - 1
    # each tableau so far completes to a distinct one of the N(n, k), so no
    # digit exceeds it; digits are whole bytes, which _digits reads
    bits = 8 * -(-narayana(n, k).bit_length() // 8)
    states = {(0, 0): 1}
    for room in range(m - k + 1, m + 1):  # the largest entry this row may hold
        following: defaultdict[tuple[int, int], int] = defaultdict(int)
        for (a, b), packed in states.items():
            for c in range(a + 1, room + 1):
                for d in range(max(c, b + 1), room + 1):
                    following[c, d] += packed << (c + d) * bits
        states = following
    return QPoly(_digits(sum(states.values()), bits))


def q_narayana_hook(n: int, k: int) -> QPoly:
    """q-Narayana by the hook-content formula for 2^j in n - 1 variables,
    j = min(k, n - 1 - k): q^(k^2 + k) times the product of
    [n - 1 + c(u)] / [h(u)] over the cells of 2^j.

    Without its shift the polynomial of (n, k) is qbin(n, k) qbin(n, k + 1)
    / [n], which is that of (n, n - 1 - k) since qbin(n, k) = qbin(n, n - k);
    so j rows give it, and k = 5n/6 costs what k = n/6 does.  Row by row:
    row i multiplies in its contents' factors [n - i] and [n + 1 - i], then
    divides by [i] and by [i + 1].  These divisors are the hooks j - i + 2
    and j - i + 1 of all the rows, as a multiset.  After row i the list is
    the q-Narayana polynomial of (n, i) without its shift, so every
    division is exact and no degree exceeds the largest of those by 2n or
    more; each step is linear in the degree.  A nonzero remainder raises
    ArithmeticError and means a bug.  Zero for k >= n.
    """
    if not _rows_fit("q_narayana_hook", n, k):
        return QPoly()
    cs = [1]
    for i in range(1, min(k, n - 1 - k) + 1):
        cs = div_q_int(div_q_int(mul_q_int(mul_q_int(cs, n - i), n + 1 - i), i), i + 1)
    return QPoly([0] * (k * k + k) + cs)


def q_narayana_enumerate(n: int, k: int) -> QPoly:
    """q-Narayana as the sum of q^maj over the paths of semilength n with
    k descents, read from the (des, maj) table of dyck.joint_q."""
    from .dyck import joint_q

    return joint_q(n, "des", "maj").get(k, QPoly())


# the four routes to the q-Narayana polynomial of (n, k), by name, in the
# order that qnarayana --help lists them
Q_NARAYANA_ROUTES = {
    "closed": q_narayana_closed,
    "schur-ssyt": q_narayana_ssyt,
    "schur-hook": q_narayana_hook,
    "enumerate": q_narayana_enumerate,
}


def verify_ssyt(n: int) -> list[dict]:
    """The ssyt check: two-column tableaux with entries below n, counted by
    row-sum set, reproduce the flag h-vector of J(2 x n), and every one
    round-trips through ssyt_to_dyck and dyck_to_ssyt.  Witnesses of
    failed round-trips come first, then one per mismatched rank set."""
    # imported here, so that the q-Narayana routes do not load posets
    from .posets import flag_h_mismatches, flag_h_table

    counts: Counter[frozenset[int]] = Counter()
    witnesses = []
    for k in range(n):
        for rows in two_column_fillings(k, n - 1):
            counts[frozenset(map(sum, rows))] += 1
            w = ssyt_to_dyck(rows, n)
            if dyck_to_ssyt(w) != rows:
                witnesses.append({"path": w.word, "tableau": [list(r) for r in rows]})
    return witnesses + flag_h_mismatches(flag_h_table(n), ssyt_count=counts)


def verify_q_identity(n: int) -> list[dict]:
    """The q-identity check: for every k < n the closed form, the sum over
    paths by (des, maj) and both Schur routes give one q-Narayana
    polynomial.  One witness per k where they differ, with every route."""
    from .dyck import joint_q

    # the enumerate route reads one (des, maj) table, built once for every k
    by_des = joint_q(n, "des", "maj")
    routes_of = dict(Q_NARAYANA_ROUTES, enumerate=lambda n, k: by_des.get(k, QPoly()))
    witnesses = []
    for k in range(n):
        routes = {name: route(n, k) for name, route in routes_of.items()}
        if len({p.coeffs for p in routes.values()}) > 1:
            witnesses.append(
                {"k": k, "routes": {name: list(p.coeffs) for name, p in routes.items()}}
            )
    return witnesses
