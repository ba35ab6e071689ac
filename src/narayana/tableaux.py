"""Two-column semistandard tableaux and the Schur routes to q-Narayana numbers.

A tableau of shape 2^k is its rows: a tuple of k pairs (a, b) with a <= b,
both columns strictly increasing.  With entries below n it encodes a Dyck
path block by block, and its row sums become the descent set.  The
q-Narayana polynomial is the Schur polynomial of 2^k at (q, q^2, ...,
q^(n-1)), computed twice: as the plain sum over the tableaux and by the
hook-content formula.
"""

from collections import Counter, defaultdict
from collections.abc import Iterator, Sequence

# qpoly, dyck and stats are imported where called: the ssyt check loads no
# qpoly or stats, the hook route no dyck or stats; annotations are strings

Rows = tuple[tuple[int, int], ...]
DyckPath = None  # bound by the first ssyt_to_dyck call, not imported by each


def two_column_fillings(k: int, m: int) -> Iterator[Rows]:
    """The rows of every tableau of shape 2^k with entries in [1, m], in
    lexicographic order of the row-major reading word."""
    if k < 0 or m < 0:
        raise ValueError(f"negative row count or max part: k = {k}, m = {m}")
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


def ssyt_to_dyck(rows: Sequence[Sequence[int]], n: int) -> "DyckPath":
    """Encode a two-column tableau with entries below n as a Dyck path.

    The word is built in k + 1 blocks of v runs followed by h runs: the
    first block has T_12 v and T_11 h, block i the successive differences
    down the columns, and the last block tops both columns up to n.  The
    descent set of the result is exactly the set of row sums.
    """
    global DyckPath
    if DyckPath is None:
        from .dyck import DyckPath
    if n < 1:
        raise ValueError(f"ssyt_to_dyck needs n >= 1, got {n}")
    word, above = [], (0, 0)
    for i, row in enumerate(rows, start=1):
        # a valid row passes one chained comparison; the checks below name the fault
        if not (len(row) == 2 and type(row[0]) is type(row[1]) is int
                and above[0] < row[0] <= row[1] < n and above[1] < row[1]):
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


def dyck_to_ssyt(w: "DyckPath") -> Rows:
    """Inverse of ssyt_to_dyck: row i holds the numbers of h and of v up to
    the i-th descent.  The word's blocks, a v run and then an h run, end
    at its descents, so the rows are the running counts over the blocks."""
    rows, h, v = [], 0, 0
    for block in w.word.replace("hv", "h v").split()[:-1]:
        rise = block.index("h")
        h, v = h + len(block) - rise, v + rise
        rows.append((h, v))
    return tuple(rows)


def _rows_fit(route: str, n: int, k: int) -> bool:
    # k rows fit in n - 1 variables; otherwise the polynomial is zero
    if n < 1:
        raise ValueError(f"{route} needs n >= 1, got {n}")
    if k < 0:
        raise ValueError(f"{route} needs k >= 0, got {k}")
    return k < n


def q_narayana_ssyt(n: int, k: int) -> "QPoly":
    """q-Narayana as the sum of q^(entry sum) over the tableaux of shape
    2^k with entries below n; zero for k >= n.

    A transfer matrix over the last row (a, b), filled row by row: each
    state holds the tableaux so far that end in it and still leave room for
    the rows to come, counted by entry sum as the base-2**bits digits of one
    int, so adding a row (c, d) is a shift by c + d digits."""
    from .qpoly import QPoly, narayana
    from .stats import _digits

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


def q_narayana_hook(n: int, k: int) -> "QPoly":
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
    from .qpoly import QPoly, div_q_int, mul_q_int

    if not _rows_fit("q_narayana_hook", n, k):
        return QPoly()
    cs = [1]
    for i in range(1, min(k, n - 1 - k) + 1):
        cs = div_q_int(div_q_int(mul_q_int(mul_q_int(cs, n - i), n + 1 - i), i), i + 1)
    return QPoly([0] * (k * k + k) + cs)


def q_narayana_enumerate(n: int, k: int) -> "QPoly":
    """q-Narayana as the sum of q^maj over the paths of semilength n with
    k descents, read from the (des, maj) table of stats.joint_q; zero for
    k >= n before the table is built."""
    from .qpoly import QPoly
    from .stats import joint_q

    if not _rows_fit("q_narayana_enumerate", n, k):
        return QPoly()
    return joint_q(n, "des", "maj").get(k, QPoly())


def q_narayana_routes() -> dict:
    """The four q-Narayana routes by name, in the order qnarayana --help lists."""
    from .qpoly import q_narayana_closed

    return {
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
    if n < 1:
        raise ValueError(f"verify_q_identity needs n >= 1, got {n}")
    from .qpoly import QPoly
    from .stats import joint_q

    # the enumerate route reads one (des, maj) table, built once for every k
    by_des = joint_q(n, "des", "maj")
    routes_of = dict(q_narayana_routes(), enumerate=lambda n, k: by_des.get(k, QPoly()))
    witnesses = []
    for k in range(n):
        routes = {name: route(n, k) for name, route in routes_of.items()}
        if len({p.coeffs for p in routes.values()}) > 1:
            witnesses.append(
                {"k": k, "routes": {name: list(p.coeffs) for name, p in routes.items()}}
            )
    return witnesses
