"""Two-column semistandard tableaux and the tableau sum route to q-Narayana
numbers.

A tableau of shape 2^k is its rows: a tuple of k pairs (a, b) with a <= b,
both columns strictly increasing.  With entries below n it encodes a Dyck
path block by block, and its row sums become the descent set.  The
q-Narayana polynomial is the Schur polynomial of 2^k at (q, q^2, ...,
q^(n-1)), here the plain sum over the tableaux; qpoly holds its
hook-content form.
"""

from collections import Counter, defaultdict
from collections.abc import Iterator, Sequence

# qpoly, dyck and stats are imported where called: the ssyt check loads no
# qpoly or stats, the schur-ssyt route no dyck; annotations are strings

Rows = tuple[tuple[int, int], ...]


def two_column_fillings(k: int, m: int) -> Iterator[Rows]:
    """The rows of every tableau of shape 2^k with entries in [1, m], in
    lexicographic order of the row-major reading word."""
    # row by row, in order; each row's entries leave room for the rows below
    tableaux: list[Rows] = [()]
    for room in range(m - k + 1, m + 1):
        longer = []
        for rows in tableaux:
            a, b = rows[-1] if rows else (0, 0)
            for c in range(a + 1, room + 1):
                longer += [(*rows, (c, d)) for d in range(max(c, b + 1), room + 1)]
        tableaux = longer
    return iter(tableaux)


def ssyt_to_dyck(rows: Sequence[Sequence[int]], n: int) -> str:
    """Encode a two-column tableau with entries below n as a Dyck word.

    The word is built in k + 1 blocks of v runs followed by h runs: the
    first block has T_12 v and T_11 h, block i the successive differences
    down the columns, and the last block tops both columns up to n.  The
    descent set of the result is exactly the set of row sums.  The rows are
    not validated: verify_ssyt, the one caller, passes the tableaux of
    two_column_fillings, and validates each image.
    """
    word, above = [], (0, 0)
    for row in rows:
        word += ["v" * (row[1] - above[1]), "h" * (row[0] - above[0])]
        above = row
    word += ["v" * (n - above[1]), "h" * (n - above[0])]
    return "".join(word)


def dyck_to_ssyt(word: str) -> Rows:
    """Inverse of ssyt_to_dyck, for a path's word from outside: lowercased
    and validated by dyck_word, whose ValueError refuses any other word."""
    from .dyck import dyck_word  # here, so that the schur-ssyt route loads no dyck

    return _rows(dyck_word(word))


def _rows(word: str) -> Rows:
    """The tableau of a Dyck word: row i holds the numbers of h and of v up
    to the i-th descent.  The word's blocks, a v run and then an h run, end
    at its descents, so the rows are the running counts over the blocks."""
    rows, h, v = [], 0, 0
    for block in word.replace("hv", "h v").split()[:-1]:
        rise = block.index("h")
        h, v = h + len(block) - rise, v + rise
        rows.append((h, v))
    return tuple(rows)


def q_narayana_ssyt(n: int, k: int) -> "QPoly":
    """q-Narayana as the sum of q^(entry sum) over the tableaux of shape
    2^k with entries below n; zero for k >= n.

    A transfer matrix over the last row (a, b), filled row by row: each
    state holds the tableaux so far that end in it and still leave room for
    the rows to come, counted by entry sum as the base-2**bits digits of one
    int, so adding a row (c, d) is a shift by c + d digits."""
    from .qpoly import QPoly, _nonzero, narayana
    from .stats import _digits

    if not _nonzero("q_narayana_ssyt", n, k):
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


def verify_ssyt(n: int) -> list[dict]:
    """The ssyt check: two-column tableaux with entries below n, counted by
    the sum of 1 << r over their row sums r, which increase down the rows,
    reproduce the flag h-vector of J(2 x n), and each round-trips through
    ssyt_to_dyck and dyck_to_ssyt.  Witnesses of images that are no Dyck
    word or fail the round-trip come first, then one per mismatched set."""
    # imported here, so that the q-Narayana routes load neither
    from .dyck import dyck_word
    from .posets import flag_h_mismatches, flag_h_table

    counts: Counter[int] = Counter()
    witnesses = []
    for k in range(n):
        for rows in two_column_fillings(k, n - 1):
            counts[sum(1 << a + b for a, b in rows)] += 1
            word = ssyt_to_dyck(rows, n)
            try:  # dyck_to_ssyt, without an import per image: one validation each
                inverted = _rows(dyck_word(word)) == rows
            except ValueError:
                inverted = False
            if not inverted:
                witnesses.append({"path": word, "tableau": [list(r) for r in rows]})
    return witnesses + flag_h_mismatches(flag_h_table(n), ssyt_count=counts)


def verify_q_identity(n: int) -> list[dict]:
    """The q-identity check: for every k < n the closed and Schur routes of
    narayana.ROUTES and the sum over paths of q^costatistic, for each
    statistic of narayana.STATISTICS that has one, give one q-Narayana
    polynomial, and each statistic without one counts narayana(n, k)
    paths.  One witness per k where they differ, with every polynomial and
    every count, each named by its route or statistic."""
    if n < 1:
        raise ValueError(f"verify_q_identity needs n >= 1, got {n}")
    from . import ROUTES, STATISTICS, _library
    from .qpoly import narayana
    from .stats import distribution, joint_coefficients

    # the enumerate route is the des table: each table is built once for every k
    routes_of = {name: _library(*row[:2]) for name, row in ROUTES.items() if name != "enumerate"}
    tables = {s: joint_coefficients(n, s, costat) for s, costat in STATISTICS.items() if costat}
    counts_of = {stat: distribution(n, stat) for stat, costat in STATISTICS.items() if not costat}
    witnesses = []
    for k in range(n):
        routes = {name: list(route(n, k).coeffs) for name, route in routes_of.items()}
        routes.update((stat, table.get(k, [])) for stat, table in tables.items())
        counts = {"narayana": narayana(n, k), **{s: c.get(k, 0) for s, c in counts_of.items()}}
        if len({tuple(c) for c in routes.values()}) > 1 or len(set(counts.values())) > 1:
            witnesses.append({"counts": counts, "k": k, "routes": routes})
    return witnesses
