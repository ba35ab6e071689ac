"""Acceptance gate: the ten headline identities and regressions.

Every test prints exactly one live PASS or FAIL line, bypassing capture,
so a log scan shows the state of the whole gate at a glance.
"""

import random
from collections import Counter

from narayana.dyck import enumerate_paths, ls_set
from narayana.posets import flag_h_table, verify_theorem_main
from narayana.preshelling import chain_count, check_preshelling
from narayana.qpoly import QPoly, narayana, q_narayana_closed, q_narayana_hook
from narayana.shelling import FacetOrder, _rank_set_counts, _words, dyck_complex, omega_n
from narayana.stats import distribution
from narayana.tableaux import (
    dyck_to_ssyt,
    q_narayana_ssyt,
    ssyt_to_dyck,
    two_column_fillings,
)
from oracles import (
    descent_set,
    descent_set_wrt,
    flag_h_from_partition,
    is_shelling,
    joint_q,
    label_string,
    partition_intervals,
    random_linear_extension,
    rank_mask,
    restriction,
    s_map,
    sigma_stat,
)


def _criterion(capsys, number: int, name: str, body) -> None:
    try:
        ok = body()
        detail = ""
    except Exception as exc:
        ok = False
        detail = f" ({type(exc).__name__}: {exc})"
    line = f"[acceptance {number:2d}] {'PASS' if ok else 'FAIL'} {name}{detail}"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


def test_criterion_01_narayana_equidistribution(capsys):
    def body():
        for n in range(1, 11):
            expected = {k: narayana(n, k) for k in range(n)}
            for stat in ("des", "hp", "ea", "lnfs"):
                if distribution(n, stat) != expected:
                    return False
        return True

    _criterion(capsys, 1, "des, hp, ea, lnfs are Narayana-distributed for n <= 10", body)


def test_criterion_02_q_narayana_three_way(capsys):
    def body():
        for n in range(1, 9):
            by_des = joint_q(n, "des", "maj")
            for k in range(n):
                closed = q_narayana_closed(n, k)
                if by_des.get(k, QPoly()) != closed:
                    return False
                if q_narayana_ssyt(n, k) != closed:
                    return False
                if q_narayana_hook(n, k) != closed:
                    return False
        return q_narayana_closed(3, 1).coeffs == (0, 0, 1, 1, 1)

    _criterion(
        capsys, 2, "q-Narayana: enumeration, closed form, both Schur routes agree, n <= 8", body
    )


def test_criterion_03_main_theorem_all_reference_paths(capsys):
    def body():
        for n in range(1, 5):
            if verify_theorem_main(n, enumerate_paths(n)):
                return False
        for n in (5, 6):
            rng, words = random.Random(40 + n), list(enumerate_paths(n))
            if verify_theorem_main(n, [rng.choice(words) for _ in range(25)]):
                return False
        return True

    _criterion(
        capsys, 3, "flag h-vector counts descent sets for every reference path", body
    )


def test_criterion_04_ssyt_counts_and_bijection(capsys):
    def body():
        for n in range(1, 6):
            betas = flag_h_table(n)
            counts = Counter(
                rank_mask(a + b for a, b in rows)
                for k in range(n)
                for rows in two_column_fillings(k, n - 1)
            )
            if counts != betas:
                return False
        for n in range(1, 8):
            for k in range(n):
                for rows in two_column_fillings(k, n - 1):
                    if dyck_to_ssyt(ssyt_to_dyck(rows, n)) != rows:
                        return False
        return True

    _criterion(
        capsys, 4, "SSYT row-sum counts match the flag h-vector; bijection round-trips", body
    )


def test_criterion_05_lnfs_maj_l_distribution(capsys):
    def body():
        for n in range(1, 9):
            table = joint_q(n, "lnfs", "maj_l")
            for k in range(n):
                if table.get(k, QPoly()) != q_narayana_closed(n, k):
                    return False
        return True

    _criterion(capsys, 5, "(lnfs, maj_l) has the q-Narayana distribution for n <= 8", body)


def test_criterion_06_preshelling_and_equivalence(capsys):
    def body():
        for n in range(1, 6):
            report = check_preshelling(dyck_complex(n), omega_n(n), chain_count(n))
            if not report["is_preshelling"]:
                return False
            if set(report["conditions"].values()) != {True}:
                return False
        om3 = omega_n(3)
        broken = [
            (3, FacetOrder(5, [])),
            (4, FacetOrder(14, [])),
            (3, FacetOrder(5, [(b, a) for a, b in om3.relations])),
            (3, FacetOrder(5, list(om3.relations)[:2])),
            (3, FacetOrder(5, [(0, 4)])),
        ]
        rng = random.Random(6)
        for _ in range(5):
            rels = set()
            while len(rels) < 6:
                a, b = rng.sample(range(14), 2)
                rels.add((min(a, b), max(a, b)))
            broken.append((4, FacetOrder(14, sorted(rels))))
        for n, order in broken:
            conditions = check_preshelling(dyck_complex(n), order, chain_count(n))["conditions"]
            if len(set(conditions.values())) != 1:
                return False
        return True

    _criterion(
        capsys,
        6,
        "rewriting order passes all four pre-shelling conditions; verdicts agree on broken orders",
        body,
    )


def test_criterion_07_linear_extensions_shell(capsys):
    def body():
        for n in range(1, 6):
            cx, om = dyck_complex(n), omega_n(n)
            expected = {f: restriction(cx, om, f) for f in range(om.m)}
            for seed in range(10):
                report = is_shelling(cx, random_linear_extension(om, seed))
                if not report["is_shelling"]:
                    return False
                if report["restrictions"] != expected:
                    return False
        return True

    _criterion(
        capsys, 7, "random linear extensions shell with the order's own restrictions", body
    )


def test_criterion_08_partition_flag_h(capsys):
    def body():
        for n in range(1, 6):
            cx, om = dyck_complex(n), omega_n(n)
            partition = flag_h_from_partition(partition_intervals(cx, om))
            table = {rank_mask(S): count for S, count in partition.items()}
            ls_counts = Counter(map(ls_set, enumerate_paths(n)))
            if not table == _rank_set_counts(cx, om) == flag_h_table(n) == ls_counts:
                return False
        return True

    _criterion(
        capsys, 8, "interval partition, inclusion-exclusion, and ls_set counts agree", body
    )


def test_criterion_09_sigma_strictly_decreases(capsys):
    def body():
        for n in range(2, 8):
            for w in enumerate_paths(n):
                before = sigma_stat(w)
                for i in range(1, 2 * n - 1):
                    u = s_map(w, i)
                    if u != w and not sigma_stat(u) < before:
                        return False
        return True

    _criterion(
        capsys, 9, "every nontrivial rewrite strictly lowers (da, maj) lexicographically", body
    )


def test_criterion_10_figure_regressions(capsys):
    def body():
        W, w = "vvhvhh", "vhvvhh"
        if label_string(W) != "v1v2h1v3h2h3" or label_string(w) != "v1h1v2v3h2h3":
            return False
        if descent_set_wrt(w, W) != frozenset({2}):
            return False
        rows = ((1, 2), (3, 5), (5, 6))
        path = ssyt_to_dyck(rows, 7)
        if path != "vvhvvvhhvhhvhh":
            return False
        if descent_set(path) != frozenset({3, 8, 11}):
            return False
        if dyck_to_ssyt(path) != rows:
            return False
        om = omega_n(4)
        if om.m != 14:
            return False
        return [w for i, w in enumerate(_words(4)) if not om.below_mask(i)] == ["vhvhvhvh"]

    _criterion(capsys, 10, "worked examples reproduce byte-exactly", body)
