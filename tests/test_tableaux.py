import itertools
from collections import Counter

import pytest

from narayana import dyck, tableaux
from narayana.dyck import DyckPath, descent_set, enumerate_paths, joint_q
from narayana.qpoly import QPoly, q_narayana_closed
from narayana.tableaux import (
    Q_NARAYANA_ROUTES,
    dyck_to_ssyt,
    q_narayana_hook,
    q_narayana_ssyt,
    ssyt_to_dyck,
    two_column_fillings,
    verify_q_identity,
)
from oracles import chain_product_2xn, des, flag_h, ideal_lattice, q_narayana_fillings

FIGURE = ((1, 2), (3, 5), (5, 6))  # the tableau of the paper's figure, n = 7


def brute_ssyt(shape: tuple[int, ...], max_part: int) -> set[tuple]:
    # oracle: filter every filling of the diagram for semistandardness, the
    # columns first (strictly increasing), then the rows of each combination
    # of them (weakly increasing)
    heights = [sum(1 for p in shape if p > j) for j in range(max(shape, default=0))]
    columns = [
        [c for c in itertools.product(range(1, max_part + 1), repeat=h) if list(c) == sorted(set(c))]
        for h in heights
    ]
    found = set()
    for cols in itertools.product(*columns):
        rows = tuple(tuple(col[i] for col in cols[:p]) for i, p in enumerate(shape))
        if all(list(row) == sorted(row) for row in rows):
            found.add(rows)
    return found


def test_ssyt_validation():
    with pytest.raises(ValueError, match="weakly increase"):
        ssyt_to_dyck(((2, 1),), 9)
    with pytest.raises(ValueError, match="strictly increase: column 1"):
        ssyt_to_dyck(((1, 1), (1, 2)), 9)
    with pytest.raises(ValueError, match="strictly increase: column 2"):
        ssyt_to_dyck(((1, 3), (2, 3)), 9)
    with pytest.raises(ValueError, match="positive"):
        ssyt_to_dyck(((0, 1),), 9)
    for flag in (True, False):
        with pytest.raises(ValueError, match="positive integers"):
            ssyt_to_dyck(((flag, 2),), 9)
    with pytest.raises(ValueError, match="two-column"):
        ssyt_to_dyck(((1,), (1, 2)), 9)


def test_enumerate_ssyt_frozen():
    assert list(two_column_fillings(1, 1)) == [((1, 1),)]
    assert list(two_column_fillings(1, 2)) == [((1, 1),), ((1, 2),), ((2, 2),)]
    assert list(two_column_fillings(2, 2)) == [((1, 1), (2, 2))]
    assert list(two_column_fillings(3, 2)) == []
    assert list(two_column_fillings(0, 5)) == [()]
    assert list(two_column_fillings(0, 0)) == [()]
    for k, m in ((-1, 3), (2, -1)):
        with pytest.raises(ValueError, match="negative"):
            two_column_fillings(k, m)


def test_enumerate_ssyt_matches_brute_force():
    for k in range(6):
        for m in range(7):
            got = list(two_column_fillings(k, m))
            assert set(got) == brute_ssyt((2,) * k, m), (k, m)
            assert len(got) == len(set(got))


def test_enumerate_ssyt_is_lexicographic():
    for k in range(6):
        for m in range(7):
            words = [sum(rows, ()) for rows in two_column_fillings(k, m)]
            assert words == sorted(words), (k, m)


def test_row_sums():
    # the row sums of a tableau are the descent set of its path
    for rows, n, sums in (
        (((1, 1),), 2, {2}),
        (FIGURE, 7, {3, 8, 11}),
        (((1, 1), (2, 2)), 3, {2, 4}),
        ((), 4, set()),
    ):
        assert {a + b for a, b in rows} == sums
        assert descent_set(ssyt_to_dyck(rows, n).word) == sums


def test_ssyt_to_dyck_figure():
    w = ssyt_to_dyck(FIGURE, 7)
    assert w.word == "vvhvvvhhvhhvhh"
    assert descent_set(w.word) == {3, 8, 11}


def test_ssyt_to_dyck_small():
    assert ssyt_to_dyck((), 4).word == "vvvvhhhh"
    assert ssyt_to_dyck(((1, 1),), 2).word == "vhvh"


def test_ssyt_to_dyck_errors():
    with pytest.raises(ValueError, match="entry out of range"):
        ssyt_to_dyck(((1, 3),), 3)
    with pytest.raises(ValueError, match="two-column"):
        ssyt_to_dyck(((1, 1, 1),), 5)
    with pytest.raises(ValueError):
        ssyt_to_dyck((), 0)


def test_dyck_to_ssyt_figure():
    assert dyck_to_ssyt(DyckPath("vvhvvvhhvhhvhh")) == FIGURE
    assert dyck_to_ssyt(DyckPath("vvvhhh")) == ()
    assert dyck_to_ssyt(DyckPath("vhvh")) == ((1, 1),)


def test_bijection_round_trips():
    for n in range(1, 8):
        for w in map(DyckPath, enumerate_paths(n)):
            rows = dyck_to_ssyt(w)
            assert ssyt_to_dyck(rows, n) == w
            assert descent_set(w.word) == {a + b for a, b in rows}
        for k in range(n):
            for rows in two_column_fillings(k, n - 1):
                assert dyck_to_ssyt(ssyt_to_dyck(rows, n)) == rows


def test_row_sums_strictly_increase_for_two_columns():
    for n in range(1, 7):
        for k in range(n):
            for rows in two_column_fillings(k, n - 1):
                sums = [a + b for a, b in rows]
                assert all(a < b for a, b in zip(sums, sums[1:]))


def test_counting_form_against_flag_h():
    for n in range(2, 6):
        L = ideal_lattice(chain_product_2xn(n))
        buckets: Counter = Counter()
        for k in range(n):
            for rows in two_column_fillings(k, n - 1):
                buckets[frozenset(a + b for a, b in rows)] += 1
        for size in range(2 * n):
            for S in itertools.combinations(range(1, 2 * n), size):
                assert flag_h(L, S) == buckets.get(frozenset(S), 0)


def test_hook_and_content(monkeypatch):
    # the factors the hook route multiplies in and divides out are the
    # [n - 1 + content] and [hook] of the cells of 2^j, j = min(k, n - 1 - k),
    # read off the diagram, and after row i the list is the unshifted
    # q-Narayana polynomial of (n, i)
    factors = []

    def recorded(name):
        kernel = getattr(tableaux, name)

        def call(cs, m):
            out = kernel(cs, m)
            factors.append((name, m, out))
            return out

        return call

    for name in ("mul_q_int", "div_q_int"):
        monkeypatch.setattr(tableaux, name, recorded(name))
    for k in range(7):
        for n in range(k + 1, 2 * k + 4):
            rows = min(k, n - 1 - k)
            cells = [(i, j) for i in range(1, rows + 1) for j in (1, 2)]
            hooks = [(2 - j) + (rows - i) + 1 for i, j in cells]  # arm + leg + 1
            factors.clear()
            assert q_narayana_hook(n, k) == q_narayana_closed(n, k)
            assert Counter(m for name, m, _ in factors if name == "mul_q_int") == Counter(
                n - 1 + j - i for i, j in cells
            )
            divisions = [(m, out) for name, m, out in factors if name == "div_q_int"]
            assert Counter(m for m, _ in divisions) == Counter(hooks)
            # each row ends with its second division
            for i, (_, out) in enumerate(divisions[1::2], start=1):
                assert [0] * (i * i + i) + out == list(q_narayana_closed(n, i).coeffs), (n, k, i)


def test_hook_route_takes_min_k_n_minus_1_minus_k_rows(monkeypatch):
    # the unshifted polynomial of (n, k) is that of (n, n - 1 - k), so the
    # route multiplies in two factors a row for min(k, n - 1 - k) rows:
    # 18 at (60, 50), not 100
    factors = []
    kernel = tableaux.mul_q_int

    def recorded(cs, m):
        factors.append(m)
        return kernel(cs, m)

    monkeypatch.setattr(tableaux, "mul_q_int", recorded)
    for n, k, rows in ((60, 50, 9), (60, 9, 9), (60, 29, 29), (60, 30, 29), (60, 59, 0), (7, 3, 3)):
        factors.clear()
        assert q_narayana_hook(n, k) == q_narayana_closed(n, k)
        assert len(factors) == 2 * rows, (n, k)


def test_schur_principal_frozen():
    # s_{2^k}(q, ..., q^(n-1)) by both routes
    for route in (q_narayana_ssyt, q_narayana_hook):
        assert route(4, 0) == QPoly((1,))
        assert route(3, 1) == QPoly((0, 0, 1, 1, 1))
        assert route(3, 2) == QPoly((0,) * 6 + (1,))
        assert route(3, 3) == QPoly()


def test_schur_routes_agree():
    for n in range(1, 10):
        for k in range(n + 2):
            closed = q_narayana_closed(n, k)
            assert q_narayana_ssyt(n, k) == closed, (n, k)
            assert q_narayana_hook(n, k) == closed, (n, k)


def test_hook_route_matches_closed_form_for_every_k():
    # every n <= 30, and the closed-form ceiling 60; every n <= 60 takes 22 s
    for n in [*range(1, 31), 60]:
        for k in range(n + 2):
            assert q_narayana_hook(n, k) == q_narayana_closed(n, k), (n, k)


def test_ssyt_transfer_matrix_matches_the_sum_over_fillings():
    for n in range(1, 11):
        for k in range(n + 2):
            assert q_narayana_ssyt(n, k) == q_narayana_fillings(n, k), (n, k)


def test_schur_principal_ssyt_matches_tableau_totals():
    # the sum over the generator against the entry sums of the oracle's tableaux
    for n in range(1, 8):
        for k in range(n):
            totals = Counter(sum(map(sum, rows)) for rows in brute_ssyt((2,) * k, n - 1))
            expected = QPoly(totals[d] for d in range(max(totals) + 1))
            assert q_narayana_ssyt(n, k) == expected, (n, k)


def test_q_narayana_schur_is_zero_for_k_at_least_n_without_building_the_shape(monkeypatch):
    # k rows in n - 1 variables give zero; k = 10**7 rows would take seconds
    # and k = 10**12 forever, so sizing a k-row transfer matrix or
    # multiplying is an error here
    narayana = tableaux.narayana

    def narayana_below_n(n, k):
        if k >= n:
            raise AssertionError(f"sized {k} rows for n = {n}")
        return narayana(n, k)

    monkeypatch.setattr(tableaux, "narayana", narayana_below_n)
    for route in (q_narayana_ssyt, q_narayana_hook):
        assert route(5, 4) == q_narayana_closed(5, 4)

    def no_factor(cs, m):
        raise AssertionError("multiplied in a factor for k >= n")

    monkeypatch.setattr(tableaux, "mul_q_int", no_factor)
    for route in (q_narayana_ssyt, q_narayana_hook):
        for k in (5, 6, 10**7, 10**12):
            assert route(5, k) == QPoly()


def test_q_narayana_schur_frozen():
    for route in (q_narayana_ssyt, q_narayana_hook):
        assert route(5, 0) == QPoly((1,))
        assert route(3, 1) == QPoly((0, 0, 1, 1, 1))
        assert route(3, 2) == QPoly((0,) * 6 + (1,))
        assert route(3, 5) == QPoly()
        with pytest.raises(ValueError, match="needs n >= 1"):
            route(0, 0)
        with pytest.raises(ValueError, match="needs k >= 0"):
            route(3, -1)
    assert Q_NARAYANA_ROUTES["schur-ssyt"] is q_narayana_ssyt
    assert Q_NARAYANA_ROUTES["schur-hook"] is q_narayana_hook


def test_three_way_q_narayana_identity():
    for n in range(1, 7):
        table = joint_q(n, "des", "maj")
        for k in range(n):
            closed = q_narayana_closed(n, k)
            assert q_narayana_ssyt(n, k) == closed
            assert q_narayana_hook(n, k) == closed
            assert table.get(k, QPoly()) == closed
        if n > 1:
            low = min(
                d for d, c in enumerate(q_narayana_ssyt(n, 1).coeffs) if c
            )
            assert low == 2


def test_lowest_degree_is_k_squared_plus_k():
    for n in range(1, 8):
        for k in range(n):
            p = q_narayana_ssyt(n, k)
            low = min(d for d, c in enumerate(p.coeffs) if c)
            assert low == k * k + k


def test_schur_sum_counts_paths_by_descents():
    for n in range(1, 7):
        for k in range(n):
            count = sum(1 for w in enumerate_paths(n) if des(DyckPath(w)) == k)
            assert sum(q_narayana_ssyt(n, k).coeffs) == count


def test_q_identity_builds_one_des_maj_table_per_call(monkeypatch):
    calls = []
    joint_counts = dyck._joint_counts

    def counted(n, names, wrt):
        calls.append((n, names))
        return joint_counts(n, names, wrt)

    monkeypatch.setattr(dyck, "_joint_counts", counted)
    assert verify_q_identity(8) == []
    assert calls == [(8, ("des", "maj"))]
    # nothing is shared between calls: the next one builds its own table
    assert verify_q_identity(8) == []
    assert calls == [(8, ("des", "maj"))] * 2


def test_q_identity_witness_lists_every_route(monkeypatch):
    closed = Q_NARAYANA_ROUTES["closed"]
    true = list(closed(4, 2).coeffs)
    damaged = [1, *true[1:]]  # the constant term of N_q(4, 2) is 0
    monkeypatch.setitem(
        Q_NARAYANA_ROUTES, "closed", lambda n, k: QPoly(damaged) if k == 2 else closed(n, k)
    )
    (witness,) = verify_q_identity(4)
    assert witness == {
        "k": 2,
        "routes": {"closed": damaged, "schur-ssyt": true, "schur-hook": true, "enumerate": true},
    }
    assert list(witness["routes"]) == list(Q_NARAYANA_ROUTES)
