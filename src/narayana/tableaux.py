"""Semistandard Young tableaux and the Schur route to q-Narayana numbers.

Two-column SSYT with parts below n encode Dyck paths block by block; row
sums become descent sets.  Principal specializations of Schur polynomials
are computed twice, once as the plain sum over SSYT and once by the
hook-content formula, and the q-Narayana numbers fall out by evaluating
the two-column shapes in n - 1 variables.
"""

from __future__ import annotations

from collections import Counter
from functools import cache, reduce
from itertools import combinations_with_replacement
from typing import Iterable, Iterator, Sequence

from .dyck import DyckPath, descent_set, joint_q
from .qpoly import QPoly, div_q_int, mul_q_int, q_narayana_closed


class Partition:
    """A weakly decreasing sequence of positive integers."""

    __slots__ = ("_parts",)

    def __init__(self, parts: Iterable[int] = ()):
        ps = tuple(parts)
        for i, part in enumerate(ps):
            if not isinstance(part, int) or isinstance(part, bool) or part < 1:
                raise ValueError(f"parts must be positive integers, got {part!r}")
            if i and ps[i - 1] < part:
                raise ValueError(f"parts must weakly decrease, got {ps}")
        self._parts = ps

    @property
    def parts(self) -> tuple[int, ...]:
        return self._parts

    @property
    def length(self) -> int:
        return len(self._parts)

    def cells(self) -> list[tuple[int, int]]:
        """All (row, column) pairs of the diagram, 1-based, row-major."""
        return [
            (i, j)
            for i, part in enumerate(self._parts, start=1)
            for j in range(1, part + 1)
        ]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Partition):
            return self._parts == other._parts
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._parts)

    def __repr__(self) -> str:
        return f"Partition({self._parts!r})"


def two_column(k: int) -> Partition:
    """The shape with k rows of length 2; empty for k = 0."""
    if k < 0:
        raise ValueError(f"negative row count: {k}")
    return Partition((2,) * k)


def _as_partition(shape: "Partition | Iterable[int]") -> Partition:
    return shape if isinstance(shape, Partition) else Partition(shape)


class SSYT:
    """A semistandard filling: rows weakly increase, columns strictly."""

    __slots__ = ("_rows", "_shape")

    def __init__(self, rows: Iterable[Sequence[int]]):
        rs = tuple(tuple(row) for row in rows)
        self._shape = Partition(len(row) for row in rs)
        for i, row in enumerate(rs):
            for j, entry in enumerate(row):
                if not isinstance(entry, int) or isinstance(entry, bool) or entry < 1:
                    raise ValueError(
                        f"entries must be positive integers, got {entry!r}"
                    )
                if j and row[j - 1] > entry:
                    raise ValueError(f"rows must weakly increase: row {i + 1}")
                if i and j < len(rs[i - 1]) and rs[i - 1][j] >= entry:
                    raise ValueError(
                        f"columns must strictly increase: column {j + 1}"
                    )
        self._rows = rs

    @property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        return self._rows

    @property
    def shape(self) -> Partition:
        return self._shape

    def __eq__(self, other: object) -> bool:
        if isinstance(other, SSYT):
            return self._rows == other._rows
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._rows)

    def __repr__(self) -> str:
        return f"SSYT({[list(row) for row in self._rows]!r})"


def _fillings(shape: "Partition | Iterable[int]", max_part: int) -> Iterator[tuple]:
    """The rows of every SSYT of the shape with entries in [1, max_part], in
    lexicographic order of the row-major reading word."""
    parts = _as_partition(shape).parts
    if max_part < 0:
        raise ValueError(f"negative max_part: {max_part}")

    @cache
    def rows_under(length: int, above: tuple[int, ...]) -> list[tuple[int, ...]]:
        low = above[0] + 1 if above else 1
        rows = combinations_with_replacement(range(low, max_part + 1), length)
        return [row for row in rows if all(x > y for x, y in zip(row, above))]

    def fill(i: int, above: tuple[int, ...]) -> Iterator[tuple]:
        if i == len(parts):
            yield ()
            return
        for row in rows_under(parts[i], above):
            for rest in fill(i + 1, row):
                yield (row, *rest)

    return fill(0, ())


def enumerate_ssyt(shape: "Partition | Iterable[int]", max_part: int) -> list[SSYT]:
    """All SSYT of the shape with entries in [1, max_part], in lexicographic
    order of the row-major reading word."""
    return [SSYT(rows) for rows in _fillings(shape, max_part)]


def row_sums(T: SSYT) -> tuple[int, ...]:
    """The sequence of row sums, top row first."""
    return tuple(sum(row) for row in T.rows)


def ssyt_to_dyck(T: SSYT, n: int) -> DyckPath:
    """Encode a two-column SSYT with entries below n as a Dyck path.

    The word is built in k + 1 blocks of v runs followed by h runs: the
    first block has T_12 v and T_11 h, block i the successive differences
    down the columns, and the last block tops both columns up to n.  The
    descent set of the result is exactly the set of row sums.
    """
    if any(part != 2 for part in T.shape.parts):
        raise ValueError(f"not a two-column shape: {T.shape.parts}")
    if n < 1:
        raise ValueError(f"ssyt_to_dyck needs n >= 1, got {n}")
    for row in T.rows:
        for entry in row:
            if entry >= n:
                raise ValueError(f"entry out of range: {entry} >= {n}")
    word = []
    prev1 = prev2 = 0
    for t1, t2 in (*T.rows, (n, n)):
        word += ["v" * (t2 - prev2), "h" * (t1 - prev1)]
        prev1, prev2 = t1, t2
    return DyckPath("".join(word))


def dyck_to_ssyt(w: DyckPath) -> SSYT:
    """Inverse of ssyt_to_dyck: row i collects the h and v counts of the
    prefix ending at the i-th descent."""
    word = w.word
    rows = []
    for s in sorted(descent_set(word)):
        prefix = word[:s]
        rows.append((prefix.count("h"), prefix.count("v")))
    return SSYT(rows)


def _cell_in(shape: Partition, cell: tuple[int, int]) -> None:
    i, j = cell
    if not (1 <= i <= shape.length and 1 <= j <= shape.parts[i - 1]):
        raise ValueError(f"cell not in diagram: {cell}")


def hook_length(shape: "Partition | Iterable[int]", cell: tuple[int, int]) -> int:
    """Arm plus leg plus one for a 1-based (row, column) cell."""
    shape = _as_partition(shape)
    _cell_in(shape, cell)
    i, j = cell
    arm = shape.parts[i - 1] - j
    leg = sum(1 for part in shape.parts[i:] if part >= j)
    return arm + leg + 1


def content(shape: "Partition | Iterable[int]", cell: tuple[int, int]) -> int:
    """Column minus row."""
    shape = _as_partition(shape)
    _cell_in(shape, cell)
    i, j = cell
    return j - i


def schur_principal_ssyt(shape: "Partition | Iterable[int]", n: int) -> QPoly:
    """The Schur polynomial at (q, q^2, ..., q^n) as a sum over SSYT."""
    total = Counter(sum(map(sum, rows)) for rows in _fillings(shape, n))
    return QPoly(total[d] for d in range(max(total, default=-1) + 1))


def schur_principal_hook(shape: "Partition | Iterable[int]", n: int) -> QPoly:
    """The same specialization by the hook-content formula:
    q**(sum of i * lambda_i) times the product of [n + c(u)] / [h(u)].

    Every [n + c(u)] multiplies in first, then the divisions run one hook
    at a time, smallest first; both steps are linear in the degree.  A
    nonzero remainder raises ArithmeticError and means a bug.
    """
    shape = _as_partition(shape)
    if n < 0:
        raise ValueError(f"negative variable count: {n}")
    if n < shape.length:
        return QPoly.zero()
    prefactor = sum(i * part for i, part in enumerate(shape.parts, start=1))
    cs = reduce(mul_q_int, [n + content(shape, cell) for cell in shape.cells()], [1])
    for h in sorted(hook_length(shape, cell) for cell in shape.cells()):
        cs = div_q_int(cs, h)  # a loop, so each dividend is freed once divided
    return QPoly([0] * prefactor + cs)


def q_narayana_schur(n: int, k: int, method: str = "ssyt") -> QPoly:
    """q-Narayana via the two-column Schur specialization in n - 1 variables;
    zero for k >= n, as in q_narayana_closed."""
    if n < 1:
        raise ValueError(f"q_narayana_schur needs n >= 1, got {n}")
    if k < 0:
        raise ValueError(f"q_narayana_schur needs k >= 0, got {k}")
    principal = {"ssyt": schur_principal_ssyt, "hook": schur_principal_hook}.get(method)
    if principal is None:
        raise ValueError(f"unknown method: {method}")
    # k rows in n - 1 variables give zero; decided before the k-row shape is built
    return QPoly.zero() if k >= n else principal(two_column(k), n - 1)


# the four routes to the q-Narayana polynomial of (n, k), by name, in the
# order that qnarayana --help lists them
Q_NARAYANA_ROUTES = {
    "closed": q_narayana_closed,
    "schur-ssyt": lambda n, k: q_narayana_schur(n, k, method="ssyt"),
    "schur-hook": lambda n, k: q_narayana_schur(n, k, method="hook"),
    "enumerate": lambda n, k: joint_q(n, "des", "maj").get(k, QPoly.zero()),
}


def verify_ssyt(n: int) -> list[dict]:
    """The ssyt check: two-column SSYT with entries below n, counted by
    row-sum set, reproduce the flag h-vector of J(2 x n), and every one
    round-trips through ssyt_to_dyck and dyck_to_ssyt.  Witnesses of
    failed round-trips come first, then one per mismatched rank set."""
    # imported here, so that the q-Narayana routes do not load posets
    from .posets import flag_h_mismatches, flag_h_table

    counts: Counter[frozenset[int]] = Counter()
    witnesses = []
    for k in range(n):
        for T in enumerate_ssyt(two_column(k), n - 1):
            counts[frozenset(row_sums(T))] += 1
            w = ssyt_to_dyck(T, n)
            if dyck_to_ssyt(w) != T:
                witnesses.append({"path": w.word, "tableau": [list(r) for r in T.rows]})
    return witnesses + flag_h_mismatches(flag_h_table(n), ssyt_count=counts)


def verify_q_identity(n: int) -> list[dict]:
    """The q-identity check: for every k < n the closed form, the sum over
    paths by (des, maj) and both Schur routes give one q-Narayana
    polynomial.  One witness per k where they differ, with every route."""
    # the enumerate route reads one (des, maj) table, built once for every k
    by_des = joint_q(n, "des", "maj")
    routes_of = dict(Q_NARAYANA_ROUTES, enumerate=lambda n, k: by_des.get(k, QPoly.zero()))
    witnesses = []
    for k in range(n):
        routes = {name: route(n, k) for name, route in routes_of.items()}
        if len({p.coeffs for p in routes.values()}) > 1:
            witnesses.append(
                {"k": k, "routes": {name: list(p.coeffs) for name, p in routes.items()}}
            )
    return witnesses
