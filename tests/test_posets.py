import itertools
import random
from collections import Counter

import pytest

from narayana.dyck import enumerate_paths
from narayana.posets import _descent_counts, flag_h_mismatches, flag_h_table, verify_theorem_main
from narayana.qpoly import narayana
from oracles import (
    FinitePoset,
    GradedBoundedPoset,
    alpha_table,
    catalan,
    chain_product_2xn,
    dense_flag_h_table,
    descent_set,
    descent_set_wrt,
    extension_to_path,
    flag_f,
    flag_h,
    ideal_lattice,
    is_linear_extension,
    j2xn,
    jordan_holder,
    permutation_descents,
    linear_extensions,
    path_to_extension,
    rank_mask,
)


def chain(k: int) -> FinitePoset:
    return FinitePoset(range(k), [(i, i + 1) for i in range(k - 1)])


def antichain(k: int) -> FinitePoset:
    return FinitePoset(range(k), [])


def brute_alpha(L, S: frozenset[int]) -> int:
    # oracle: test every subset of the proper part of an ideal lattice for
    # being a chain, under inclusion of ideals, with rank set exactly S
    proper = [
        e for e in L.elements if 0 < L.rank(e) < L.top_rank
    ]
    count = 0
    for size in range(len(proper) + 1):
        for combo in itertools.combinations(proper, size):
            if {L.rank(e) for e in combo} != S or len(combo) != len(S):
                continue
            if all(a <= b or b <= a for a, b in itertools.combinations(combo, 2)):
                count += 1
    return count


def test_finite_poset_basics():
    P = chain_product_2xn(2)
    assert P.p == 4
    assert sum(len(P.upper_covers(e)) for e in P.elements) == 4
    assert P.minimal_elements == ((1, 1),)
    assert P.maximal_elements == ((2, 2),)
    assert sorted(P.upper_covers((1, 1))) == [(1, 2), (2, 1)]
    assert sorted(P.lower_covers((2, 2))) == [(1, 2), (2, 1)]


def test_finite_poset_rejects_bad_input():
    with pytest.raises(ValueError, match="duplicate element"):
        FinitePoset([1, 1], [])
    with pytest.raises(ValueError, match="not an element"):
        FinitePoset([1, 2], [(1, 3)])
    with pytest.raises(ValueError, match="cycle"):
        FinitePoset([1, 2], [(1, 2), (2, 1)])
    with pytest.raises(ValueError, match="cycle"):
        FinitePoset([1], [(1, 1)])
    with pytest.raises(ValueError, match="implied by others"):
        FinitePoset([1, 2, 3], [(1, 2), (2, 3), (1, 3)])


def test_graded_bounded_validation():
    with pytest.raises(ValueError, match="unique minimum"):
        GradedBoundedPoset([1, 2], [])
    with pytest.raises(ValueError, match="unique maximum"):
        GradedBoundedPoset([0, 1, 2], [(0, 1), (0, 2)])
    with pytest.raises(ValueError, match="not graded"):
        GradedBoundedPoset(
            "abcde",
            [("a", "b"), ("b", "c"), ("c", "d"), ("a", "e"), ("e", "d")],
        )
    diamond = GradedBoundedPoset([0, 1, 2, 3], [(0, 1), (0, 2), (1, 3), (2, 3)])
    assert diamond.zero_hat == 0
    assert diamond.one_hat == 3
    assert diamond.top_rank == 2
    assert diamond.elements_of_rank(1) == [1, 2]


def test_chain_product_shape():
    with pytest.raises(ValueError):
        chain_product_2xn(0)
    P1 = chain_product_2xn(1)
    assert P1.p == 2 and P1.upper_covers((1, 1)) == [(2, 1)]
    P4 = chain_product_2xn(4)
    assert P4.p == 8
    assert sorted(P4.upper_covers((1, 2))) == [(1, 3), (2, 2)]
    assert P4.upper_covers((2, 3)) == [(2, 4)] and P4.upper_covers((2, 4)) == []


def test_ideal_lattice_counts():
    assert ideal_lattice(antichain(2)).p == 4
    for n in range(1, 6):
        L = ideal_lattice(chain_product_2xn(n))
        assert L.p == (n + 1) * (n + 2) // 2
        assert L.zero_hat == frozenset()
        assert L.one_hat == frozenset(chain_product_2xn(n).elements)
        assert L.top_rank == 2 * n
        for ideal in L.elements:
            assert L.rank(ideal) == len(ideal)


def test_ideal_lattice_ideals_are_down_closed():
    base = chain_product_2xn(3)
    L = ideal_lattice(base)
    for ideal in L.elements:
        for e in ideal:
            for x in base.elements:
                if x[0] <= e[0] and x[1] <= e[1]:  # coordinatewise
                    assert x in ideal


def test_linear_extension_counts():
    assert len(linear_extensions(chain(3))) == 1
    assert len(linear_extensions(antichain(3))) == 6
    for n in range(1, 7):
        assert len(linear_extensions(chain_product_2xn(n))) == catalan(n)


def test_linear_extensions_guard():
    with pytest.raises(ValueError, match="too large"):
        linear_extensions(antichain(17))


def test_is_linear_extension():
    P = chain_product_2xn(2)
    covers = [(a, b) for a in P.elements for b in P.upper_covers(a)]
    assert is_linear_extension([(1, 1), (1, 2), (2, 1), (2, 2)], P.elements, covers)
    assert not is_linear_extension([(1, 2), (1, 1), (2, 1), (2, 2)], P.elements, covers)
    assert not is_linear_extension([(1, 1), (1, 2), (2, 1)], P.elements, covers)
    # an element in no cover still has to be listed
    assert not is_linear_extension([0], antichain(2).elements, [])


def test_jordan_holder_small():
    assert jordan_holder(chain(3), (0, 1, 2)) == [(1, 2, 3)]
    assert sorted(jordan_holder(antichain(2), (0, 1))) == [(1, 2), (2, 1)]
    with pytest.raises(ValueError, match="not a linear extension"):
        jordan_holder(chain(3), (2, 1, 0))


def test_jordan_holder_descent_counts():
    P = chain_product_2xn(3)
    omega = path_to_extension("vvvhhh")
    pis = jordan_holder(P, omega)
    counts = Counter(len(permutation_descents(pi)) for pi in pis)
    assert counts == {0: 1, 1: 3, 2: 1}


def test_permutation_descents():
    assert permutation_descents((1, 2, 3)) == frozenset()
    assert permutation_descents((3, 1, 2)) == {1}
    assert permutation_descents((2, 4, 1, 3)) == {2}


def test_flag_f_frozen():
    L = ideal_lattice(chain_product_2xn(2))
    assert flag_f(L, []) == 1
    assert flag_f(L, {2}) == 2
    L3 = ideal_lattice(chain_product_2xn(3))
    assert flag_f(L3, range(1, 6)) == catalan(3)
    for n in range(1, 5):
        L = ideal_lattice(chain_product_2xn(n))
        assert flag_f(L, range(1, 2 * n)) == catalan(n)


def test_flag_f_matches_brute_force():
    for n in (2, 3):
        L = ideal_lattice(chain_product_2xn(n))
        for size in range(2 * n):
            for S in itertools.combinations(range(1, 2 * n), size):
                assert flag_f(L, S) == brute_alpha(L, frozenset(S)), S


def test_flag_f_rank_out_of_range():
    L = ideal_lattice(chain_product_2xn(2))
    with pytest.raises(ValueError, match="rank out of range"):
        flag_f(L, {0})
    with pytest.raises(ValueError, match="rank out of range"):
        flag_f(L, {4})
    with pytest.raises(ValueError, match="rank out of range"):
        flag_h(L, {-1})


def test_flag_h_values():
    L = ideal_lattice(chain_product_2xn(3))
    assert flag_h(L, []) == 1
    assert flag_h(L, {1}) == 0
    # beta({3}) = alpha({3}) - alpha({}) = 2 - 1; the sole path with
    # descent set {3} is vvhvhh, and the sole chain witness is the ideal
    # pair column-sums (2,1) versus (3,0)
    assert flag_h(L, {3}) == 1
    assert sum(
        flag_h(L, S)
        for size in range(6)
        for S in itertools.combinations(range(1, 6), size)
    ) == catalan(3)


def test_flag_h_matches_descent_counts():
    for n in range(1, 5):
        L = ideal_lattice(chain_product_2xn(n))
        buckets = Counter(map(descent_set, enumerate_paths(n)))
        for size in range(2 * n):
            for S in itertools.combinations(range(1, 2 * n), size):
                assert flag_h(L, S) == buckets.get(frozenset(S), 0)


def test_tables_match_pointwise_ops():
    for n in (2, 3, 4):
        L = ideal_lattice(chain_product_2xn(n))
        alphas = alpha_table(L)
        betas = flag_h_table(n)
        # sparse tables: a key is present exactly when its entry is nonzero
        assert 0 not in alphas.values() and 0 not in betas.values()
        for size in range(2 * n):
            for S in map(frozenset, itertools.combinations(range(1, 2 * n), size)):
                assert alphas[S] == flag_f(L, S)
                assert betas[rank_mask(S)] == flag_h(L, S)


def test_flag_h_table_keeps_only_nonzero_entries():
    # of the 2^(2n-1) rank sets, F(2n-1) carry a nonzero beta, and the
    # entries sum to catalan(n)
    for n, size in ((7, 233), (8, 610), (9, 1597), (10, 4181)):
        betas = flag_h_table(n)
        assert len(betas) == size
        assert 0 not in betas.values()
        assert sum(betas.values()) == catalan(n)


def test_flag_h_table_matches_dense_oracle():
    # the descent-set walk over the points of J(2 x n) against the Moebius
    # transform of the dense alpha table of the generic ideal lattice: the
    # same entries in the same key order
    for n in range(1, 10):
        dense = dense_flag_h_table(j2xn(n))
        expected = {rank_mask(S): value for S, value in dense.items()}
        betas = flag_h_table(n)
        assert betas == expected, n
        assert list(betas) == list(expected), n
    with pytest.raises(ValueError):
        flag_h_table(0)


def test_narayana_from_flag_h():
    for n in range(1, 5):
        betas = flag_h_table(n)
        assert all(b >= 0 for b in betas.values())
        by_size = Counter()
        for S, b in betas.items():
            by_size[S.bit_count()] += b
        for k in range(n):
            assert by_size[k] == narayana(n, k)


def test_extension_path_bijection_figure():
    sigma = ((1, 1), (1, 2), (2, 1), (1, 3), (1, 4), (2, 2), (2, 3), (2, 4))
    assert extension_to_path(sigma) == "vvhvvhhh"
    assert path_to_extension("vvhvvhhh") == sigma


def test_extension_path_bijection_small():
    assert extension_to_path(((1, 1), (2, 1))) == "vh"
    assert extension_to_path(
        ((1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3))
    ) == "vvvhhh"
    for n in range(1, 6):
        for sigma in linear_extensions(chain_product_2xn(n)):
            assert path_to_extension(extension_to_path(sigma)) == sigma
        for w in enumerate_paths(n):
            assert extension_to_path(path_to_extension(w)) == w


def test_extension_to_path_rejects():
    with pytest.raises(ValueError, match="not a linear extension"):
        extension_to_path(((2, 1), (1, 1)))
    with pytest.raises(ValueError, match="not a linear extension"):
        extension_to_path(((1, 1), (1, 2), (2, 1)))


def test_verify_theorem_main_small(monkeypatch):
    assert verify_theorem_main(1, ["vh"]) == []
    assert verify_theorem_main(3, ["vvvhhh", "vhvhvh"]) == []
    # against a table that puts both catalan(2) paths on the empty set, each
    # reference's one path on the empty set and one on {2} both mismatch
    monkeypatch.setattr("narayana.posets.flag_h_table", lambda n: Counter({rank_mask(()): 2}))
    # a reference is validated and lowercased, so it is reported as its word
    assert verify_theorem_main(2, ["VHVH", iter("vvhh")]) == [
        {"flag_h": 2, "paths": 1, "ref_path": "vhvh", "s": []},
        {"flag_h": 0, "paths": 1, "ref_path": "vhvh", "s": [2]},
        {"flag_h": 2, "paths": 1, "ref_path": "vvhh", "s": []},
        {"flag_h": 0, "paths": 1, "ref_path": "vvhh", "s": [2]},
    ]


def test_verify_theorem_main_random_reference_paths():
    words = list(enumerate_paths(4))
    rng = random.Random(0)
    assert verify_theorem_main(4, [rng.choice(words) for _ in range(5)]) == []


def test_verify_theorem_main_every_reference_path():
    for n in range(1, 8):
        assert verify_theorem_main(n, enumerate_paths(n)) == [], n


def test_descent_counts_match_per_pair_oracle():
    # the transfer matrix under a reference's labels against descent_set_wrt,
    # which relabels each path against the reference.  By Stanley's theorem
    # every Dyck reference gives beta, so a matrix that ignored its reference
    # would pass on them; a word of n v's and n h's that is not a Dyck path
    # labels 2 x n unnaturally, and its counts show that the word is read
    for n in range(1, 7):
        paths = list(enumerate_paths(n))
        for vs in itertools.combinations(range(2 * n), n):
            W = "".join("v" if i in vs else "h" for i in range(2 * n))
            oracle = Counter(rank_mask(descent_set_wrt(w, W)) for w in paths)
            assert _descent_counts(n, W) == oracle, W


def theorem_witnesses_per_pair(n, refs, beta):
    # the oracle: descent_set_wrt relabels both paths for every pair; within
    # a reference, witnesses come by size and then elements of s, the order
    # in which combinations lists the rank sets
    witnesses = []
    for W in refs:
        buckets = Counter(descent_set_wrt(w, W) for w in enumerate_paths(n))
        for size in range(2 * n):
            for s in itertools.combinations(range(1, 2 * n), size):
                value, paths = beta.get(rank_mask(s), 0), buckets[frozenset(s)]
                if paths != value:
                    witnesses.append({"flag_h": value, "paths": paths, "ref_path": W, "s": list(s)})
    return witnesses


@pytest.mark.parametrize("n", [4, 5, 6])
def test_verify_theorem_main_matches_per_pair_oracle(n, monkeypatch):
    words = list(enumerate_paths(n))
    rng = random.Random(n)
    refs = [rng.choice(words) for _ in range(6)]
    beta = flag_h_table(n)
    assert verify_theorem_main(n, refs) == theorem_witnesses_per_pair(n, refs, beta) == []
    # with every beta off by one, each (reference, subset) pair is a witness
    # that carries its own path count
    shifted = Counter({s: value + 1 for s, value in beta.items()})
    monkeypatch.setattr("narayana.posets.flag_h_table", lambda n: shifted)
    witnesses = verify_theorem_main(n, refs)
    assert len(witnesses) == len(refs) * len(beta)
    assert witnesses == theorem_witnesses_per_pair(n, refs, shifted)


def test_verify_theorem_main_guards():
    with pytest.raises(ValueError, match=r"^length mismatch: \|W\| = 2, expected 6$"):
        verify_theorem_main(3, ["vh"])
    with pytest.raises(ValueError):
        verify_theorem_main(0, [""])
    with pytest.raises(ValueError, match="at least one reference"):
        verify_theorem_main(3, [])
    # every reference passes the one guard on words from outside
    with pytest.raises(ValueError, match="^prefix condition violated at position 3$"):
        verify_theorem_main(2, ["vvhh", "vhhv"])
    with pytest.raises(ValueError, match="^invalid character 'x' in path word$"):
        verify_theorem_main(2, ["vxhh"])


def test_flag_h_mismatches_orders_by_size_then_elements():
    # beta of J(2 x 3) is 1 on {}, {2}, {3}, {4}, {2, 4} and 0 elsewhere
    betas = flag_h_table(3)
    assert flag_h_mismatches(betas, exact=betas) == []
    shifted = Counter({rank_mask({1}): 1, rank_mask({2, 4}): 1})
    assert flag_h_mismatches(betas, exact=betas, shifted=shifted) == [
        {"flag_h": 1, "s": [], "exact": 1, "shifted": 0},
        {"flag_h": 0, "s": [1], "exact": 0, "shifted": 1},
        {"flag_h": 1, "s": [2], "exact": 1, "shifted": 0},
        {"flag_h": 1, "s": [3], "exact": 1, "shifted": 0},
        {"flag_h": 1, "s": [4], "exact": 1, "shifted": 0},
    ]
    # {1, 4} comes before {2, 3} by elements, after it by mask
    assert (rank_mask({1, 4}), rank_mask({2, 3})) == (0b10010, 0b01100)
    crossed = Counter({rank_mask({2, 3}): 1, rank_mask({1, 4}): 1})
    assert flag_h_mismatches(Counter(), crossed=crossed) == [
        {"flag_h": 0, "s": [1, 4], "crossed": 1},
        {"flag_h": 0, "s": [2, 3], "crossed": 1},
    ]
