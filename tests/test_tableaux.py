import itertools
from collections import Counter

import pytest

from narayana import dyck
from narayana.dyck import DyckPath, descent_set, enumerate_paths, joint_q
from narayana.qpoly import QPoly, q_narayana_closed
from narayana.tableaux import (
    Q_NARAYANA_ROUTES,
    Partition,
    SSYT,
    content,
    dyck_to_ssyt,
    enumerate_ssyt,
    hook_length,
    q_narayana_schur,
    row_sums,
    schur_principal_hook,
    schur_principal_ssyt,
    ssyt_to_dyck,
    two_column,
    verify_q_identity,
)
from oracles import chain_product_2xn, des, flag_h, ideal_lattice


def brute_ssyt(shape: tuple[int, ...], max_part: int) -> set[tuple]:
    # oracle: filter every filling of the diagram for semistandardness
    cells = [(i, j) for i, p in enumerate(shape) for j in range(p)]
    found = set()
    for values in itertools.product(range(1, max_part + 1), repeat=len(cells)):
        grid: dict[tuple[int, int], int] = dict(zip(cells, values))
        ok = True
        for (i, j), v in grid.items():
            if j and grid[i, j - 1] > v:
                ok = False
            if i and (i - 1, j) in grid and grid[i - 1, j] >= v:
                ok = False
        if ok:
            found.add(
                tuple(tuple(grid[i, j] for j in range(p)) for i, p in enumerate(shape))
            )
    return found


def test_partition_validation():
    assert Partition((3, 1)).parts == (3, 1)
    assert Partition().length == 0
    with pytest.raises(ValueError, match="weakly decrease"):
        Partition((1, 2))
    with pytest.raises(ValueError, match="positive"):
        Partition((2, 0))
    for flag in (True, False):
        with pytest.raises(ValueError, match="positive integers"):
            Partition((2, flag))
    assert two_column(3).parts == (2, 2, 2)
    assert two_column(0).parts == ()
    with pytest.raises(ValueError):
        two_column(-1)


def test_ssyt_validation():
    T = SSYT([[1, 2], [3, 5], [5, 6]])
    assert T.shape.parts == (2, 2, 2)
    with pytest.raises(ValueError, match="weakly increase"):
        SSYT([[2, 1]])
    with pytest.raises(ValueError, match="strictly increase"):
        SSYT([[1, 1], [1, 2]])
    with pytest.raises(ValueError, match="positive"):
        SSYT([[0, 1]])
    for flag in (True, False):
        with pytest.raises(ValueError, match="positive integers"):
            SSYT([[flag, 2]])
    with pytest.raises(ValueError, match="weakly decrease"):
        SSYT([[1], [1, 2]])


def test_enumerate_ssyt_frozen():
    assert [T.rows for T in enumerate_ssyt((2,), 1)] == [((1, 1),)]
    assert [T.rows for T in enumerate_ssyt((2,), 2)] == [
        ((1, 1),),
        ((1, 2),),
        ((2, 2),),
    ]
    only = enumerate_ssyt((2, 2), 2)
    assert [T.rows for T in only] == [((1, 1), (2, 2))]
    assert enumerate_ssyt((2, 2, 2), 2) == []
    assert [T.rows for T in enumerate_ssyt((), 5)] == [()]


def test_enumerate_ssyt_matches_brute_force():
    for shape in ((2,), (2, 2), (3, 1), (2, 2, 1), (3,)):
        for max_part in range(1, 5):
            got = {T.rows for T in enumerate_ssyt(shape, max_part)}
            assert got == brute_ssyt(shape, max_part), (shape, max_part)


def test_enumerate_ssyt_is_lexicographic():
    words = [
        tuple(e for row in T.rows for e in row)
        for T in enumerate_ssyt((2, 2), 4)
    ]
    assert words == sorted(words)
    assert len(words) == len(set(words))


def test_row_sums():
    assert row_sums(SSYT([[1, 1]])) == (2,)
    assert row_sums(SSYT([[1, 2], [3, 5], [5, 6]])) == (3, 8, 11)
    assert row_sums(SSYT([[1, 1], [2, 2]])) == (2, 4)
    assert row_sums(SSYT(())) == ()


def test_ssyt_to_dyck_figure():
    T = SSYT([[1, 2], [3, 5], [5, 6]])
    w = ssyt_to_dyck(T, 7)
    assert w.word == "vvhvvvhhvhhvhh"
    assert descent_set(w.word) == {3, 8, 11}


def test_ssyt_to_dyck_small():
    assert ssyt_to_dyck(SSYT(()), 4).word == "vvvvhhhh"
    assert ssyt_to_dyck(SSYT([[1, 1]]), 2).word == "vhvh"


def test_ssyt_to_dyck_errors():
    with pytest.raises(ValueError, match="entry out of range"):
        ssyt_to_dyck(SSYT([[1, 3]]), 3)
    with pytest.raises(ValueError, match="two-column"):
        ssyt_to_dyck(SSYT([[1, 1, 1]]), 5)
    with pytest.raises(ValueError):
        ssyt_to_dyck(SSYT(()), 0)


def test_dyck_to_ssyt_figure():
    assert dyck_to_ssyt(DyckPath("vvhvvvhhvhhvhh")) == SSYT(
        [[1, 2], [3, 5], [5, 6]]
    )
    assert dyck_to_ssyt(DyckPath("vvvhhh")) == SSYT(())
    assert dyck_to_ssyt(DyckPath("vhvh")) == SSYT([[1, 1]])


def test_bijection_round_trips():
    for n in range(1, 8):
        for w in map(DyckPath, enumerate_paths(n)):
            T = dyck_to_ssyt(w)
            assert ssyt_to_dyck(T, n) == w
            assert descent_set(w.word) == set(row_sums(T))
        for k in range(n):
            for T in enumerate_ssyt(two_column(k), n - 1):
                assert dyck_to_ssyt(ssyt_to_dyck(T, n)) == T


def test_row_sums_strictly_increase_for_two_columns():
    for n in range(1, 7):
        for k in range(n):
            for T in enumerate_ssyt(two_column(k), n - 1):
                sums = row_sums(T)
                assert all(a < b for a, b in zip(sums, sums[1:]))


def test_counting_form_against_flag_h():
    for n in range(2, 6):
        L = ideal_lattice(chain_product_2xn(n))
        buckets: Counter = Counter()
        for k in range(n):
            for T in enumerate_ssyt(two_column(k), n - 1):
                buckets[frozenset(row_sums(T))] += 1
        for size in range(2 * n):
            for S in itertools.combinations(range(1, 2 * n), size):
                assert flag_h(L, S) == buckets.get(frozenset(S), 0)


def test_hook_and_content():
    assert hook_length((2,), (1, 1)) == 2
    assert content((2,), (1, 1)) == 0
    for k in range(1, 6):
        for i in range(1, k + 1):
            assert hook_length(two_column(k), (i, 1)) == k - i + 2
    assert hook_length((3, 1), (1, 3)) == 1
    assert hook_length((3, 1), (1, 1)) == 4
    assert content((3, 1), (2, 1)) == -1
    with pytest.raises(ValueError, match="cell not in diagram"):
        hook_length((2,), (2, 1))
    with pytest.raises(ValueError, match="cell not in diagram"):
        content((2,), (1, 3))


def test_schur_principal_frozen():
    assert schur_principal_ssyt((), 3) == QPoly((1,))
    assert schur_principal_hook((), 3) == QPoly((1,))
    assert schur_principal_ssyt((2,), 2) == QPoly((0, 0, 1, 1, 1))
    assert schur_principal_hook((2,), 2) == QPoly((0, 0, 1, 1, 1))
    assert schur_principal_ssyt((2, 2), 2) == QPoly((0,) * 6 + (1,))
    assert schur_principal_hook((2, 2), 2) == QPoly((0,) * 6 + (1,))
    assert schur_principal_ssyt((2, 2, 2), 2) == QPoly()
    assert schur_principal_hook((2, 2, 2), 2) == QPoly()


def test_schur_routes_agree():
    shapes = [two_column(k) for k in range(6)] + [
        Partition((3, 1)),
        Partition((2, 2, 1)),
        Partition((4, 2, 1)),
    ]
    for shape in shapes:
        top = 8 if all(p == 2 for p in shape.parts) else 5
        for n in range(top + 1):
            assert schur_principal_ssyt(shape, n) == schur_principal_hook(
                shape, n
            ), (shape, n)


def test_schur_principal_ssyt_matches_tableau_totals():
    # the sum over fillings against the validated SSYT objects it skips
    shapes = [two_column(k) for k in range(5)] + [
        Partition((3, 1)),
        Partition((2, 2, 1)),
        Partition((1,)),
        Partition((3, 3)),
    ]
    for shape in shapes:
        for n in range(7):
            totals = Counter(sum(map(sum, T.rows)) for T in enumerate_ssyt(shape, n))
            expected = QPoly(totals[d] for d in range(max(totals, default=-1) + 1))
            assert schur_principal_ssyt(shape, n) == expected, (shape, n)
    with pytest.raises(ValueError, match="negative max_part"):
        schur_principal_ssyt((2,), -1)


def test_q_narayana_schur_is_zero_for_k_at_least_n_without_building_the_shape(monkeypatch):
    # k rows in n - 1 variables give zero; a k-row shape for k = 10**7 would
    # take seconds and k = 10**12 all memory, so building one is an error here
    def two_column_below_5(k):
        if k >= 5:
            raise AssertionError(f"built a {k}-row shape for n = 5")
        return two_column(k)

    monkeypatch.setattr("narayana.tableaux.two_column", two_column_below_5)
    for method in ("ssyt", "hook"):
        for k in (5, 6, 10**7, 10**12):
            assert q_narayana_schur(5, k, method=method) == QPoly()
        assert q_narayana_schur(5, 4, method=method) == q_narayana_closed(5, 4)


def test_q_narayana_schur_frozen():
    assert q_narayana_schur(5, 0) == QPoly((1,))
    assert q_narayana_schur(3, 1) == QPoly((0, 0, 1, 1, 1))
    assert q_narayana_schur(3, 2) == QPoly((0,) * 6 + (1,))
    assert q_narayana_schur(3, 2, method="hook") == QPoly((0,) * 6 + (1,))
    assert q_narayana_schur(3, 5) == QPoly()
    with pytest.raises(ValueError):
        q_narayana_schur(0, 0)
    with pytest.raises(ValueError):
        q_narayana_schur(3, -1)
    with pytest.raises(ValueError, match="unknown method"):
        q_narayana_schur(3, 1, method="rsk")


def test_three_way_q_narayana_identity():
    for n in range(1, 7):
        table = joint_q(n, "des", "maj")
        for k in range(n):
            closed = q_narayana_closed(n, k)
            assert q_narayana_schur(n, k) == closed
            assert q_narayana_schur(n, k, method="hook") == closed
            assert table.get(k, QPoly.zero()) == closed
        if n > 1:
            low = min(
                d for d, c in enumerate(q_narayana_schur(n, 1).coeffs) if c
            )
            assert low == 2


def test_lowest_degree_is_k_squared_plus_k():
    for n in range(1, 8):
        for k in range(n):
            p = q_narayana_schur(n, k)
            low = min(d for d, c in enumerate(p.coeffs) if c)
            assert low == k * k + k


def test_schur_sum_counts_paths_by_descents():
    for n in range(1, 7):
        for k in range(n):
            count = sum(1 for w in enumerate_paths(n) if des(DyckPath(w)) == k)
            assert sum(q_narayana_schur(n, k).coeffs) == count


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
