import itertools
import random

import pytest

from narayana import shelling
from narayana.dyck import DyckPath, enumerate_paths, ls_set
from narayana.posets import flag_h_table
from narayana.qpoly import catalan
from narayana.shelling import (
    FacetOrder,
    PureComplex,
    _first_misowned_face,
    _restriction_mask,
    check_preshelling,
    dyck_complex,
    flag_h_from_partition,
    omega_n,
    partition_intervals,
    restriction,
)
from oracles import (
    GradedBoundedPoset,
    chain_product_2xn,
    closure_covers,
    dfs_face_masks,
    facet_to_path,
    ideal_lattice,
    is_linear_extension,
    is_shelling,
    j2xn,
    maj_l,
    order_complex,
    pairwise_restriction_mask,
    path_to_facet,
    random_linear_extension,
    rank,
    s_map,
    sigma_stat,
)

OMEGA_4_COVERS = {
    ("vhvhvhvh", "vhvhvvhh"),
    ("vhvhvvhh", "vhvvhvhh"),
    ("vhvvhhvh", "vvhvhhvh"),
    ("vhvvhvhh", "vhvvhhvh"),
    ("vhvvhvhh", "vhvvvhhh"),
    ("vhvvhvhh", "vvhvhvhh"),
    ("vhvvvhhh", "vvhvvhhh"),
    ("vvhhvhvh", "vvhhvvhh"),
    ("vvhvhhvh", "vvhhvhvh"),
    ("vvhvhhvh", "vvvhhhvh"),
    ("vvhvhvhh", "vvhvhhvh"),
    ("vvhvhvhh", "vvhvvhhh"),
    ("vvhvvhhh", "vvvhvhhh"),
    ("vvvhhvhh", "vvvhhhvh"),
    ("vvvhvhhh", "vvvhhvhh"),
    ("vvvhvhhh", "vvvvhhhh"),
}


def triangle_boundary() -> PureComplex:
    return PureComplex([1, 2, 3], [{1, 2}, {2, 3}, {1, 3}])


def minimal_indices(om: FacetOrder) -> list[int]:
    return [i for i in range(om.m) if not om.below_mask(i)]


def ideal_point(ideal: frozenset) -> tuple[int, int]:
    # the ideal of J(2 x n) with a elements in the first row and b in the
    # second is the point (a, b) of dyck_complex
    return sum(e[0] == 1 for e in ideal), sum(e[0] == 2 for e in ideal)


def restriction_masks(cx: PureComplex, restrictions) -> list[int]:
    # each vertex's bit, read back through face_members
    bit = {v: 1 << i for i in range(len(cx.vertex_facets)) for v in cx.face_members(1 << i)}
    return [sum(bit[v] for v in rset) for rset in restrictions]


def test_pure_complex_validation():
    with pytest.raises(ValueError, match="duplicate vertex"):
        PureComplex([1, 1], [{1}])
    with pytest.raises(ValueError, match="not a vertex"):
        PureComplex([1], [{2}])
    with pytest.raises(ValueError, match="not pure"):
        PureComplex([1, 2, 3], [{1, 2}, {3}])
    with pytest.raises(ValueError, match="contained in another"):
        PureComplex([1, 2, 3], [{1, 2}, {1, 2}])
    # the first facet that has a duplicate anywhere is reported
    with pytest.raises(ValueError, match="index 1$"):
        PureComplex([1, 2, 3], [{2, 3}, {1, 2}, {1, 3}, {1, 2}, {1, 3}])
    with pytest.raises(ValueError, match="at least one facet"):
        PureComplex([1], [])


def test_pure_complex_faces():
    cx = PureComplex("ab", [{"a", "b"}])
    faces = [cx.face_members(mask) for mask in sorted(cx.face_masks())]
    assert sorted(map(sorted, faces)) == [[], ["a"], ["a", "b"], ["b"]]
    assert len(triangle_boundary().face_masks()) == 7


def test_face_guard():
    cx = PureComplex(range(21), [set(range(21))])
    with pytest.raises(ValueError, match="complex too large"):
        cx.face_masks()


def test_facet_order_basics():
    cx = triangle_boundary()
    om = FacetOrder(cx, [(0, 1), (1, 2)])
    assert om.less(0, 1) and om.less(1, 2) and om.less(0, 2)
    assert not om.less(2, 0) and not om.less(0, 0)
    assert om.leq(0, 0)
    assert minimal_indices(om) == [0]
    assert om.covers() == [(0, 1), (1, 2)]
    assert is_linear_extension([0, 1, 2], range(om.m), om.relations)
    assert not is_linear_extension([1, 0, 2], range(om.m), om.relations)
    assert not is_linear_extension([0, 1], range(om.m), om.relations)
    # a relation the closure implies changes no comparison and adds no cover
    bigger = FacetOrder(cx, [*om.relations, (0, 2)])
    assert bigger.relations == ((0, 1), (0, 2), (1, 2))
    assert bigger.less(0, 2) and bigger.covers() == om.covers()


def test_facet_order_rejects():
    cx = triangle_boundary()
    with pytest.raises(ValueError, match="cycle"):
        FacetOrder(cx, [(0, 1), (1, 0)])
    with pytest.raises(ValueError, match="cycle"):
        FacetOrder(cx, [(1, 1)])
    with pytest.raises(ValueError, match="index out of range"):
        FacetOrder(cx, [(0, 3)])


def test_random_linear_extension():
    om = omega_n(4)
    first = random_linear_extension(om, 11)
    assert first == random_linear_extension(om, 11)
    # frozen: the draws of Kahn's algorithm picking by rng.randrange
    assert first == [13, 12, 10, 11, 5, 9, 4, 6, 1, 0, 2, 8, 3, 7]
    assert is_linear_extension(first, range(om.m), om.relations)
    rng = random.Random(3)
    assert is_linear_extension(random_linear_extension(om, rng), range(om.m), om.relations)


def test_order_complex_shapes():
    three_chain = GradedBoundedPoset("0a1", [("0", "a"), ("a", "1")])
    cx = order_complex(three_chain)
    assert cx.m == 1 and cx.face_members(cx.mask(0)) == {"a"}
    cx2 = order_complex(ideal_lattice(chain_product_2xn(2)))
    assert cx2.m == 2 and cx2.d == 3
    cx4 = order_complex(ideal_lattice(chain_product_2xn(4)))
    assert cx4.m == 14 and cx4.d == 7


def test_dyck_complex_matches_order_complex_oracle():
    # the grid of points against the order complex of the generic ideal
    # lattice: the same vertex at every index and the same mask for every
    # facet, so vertex indices in witnesses and the facet order both hold
    for n in range(1, 9):
        cx, oracle = dyck_complex(n), order_complex(j2xn(n))
        assert len(cx.vertex_facets) == len(oracle.vertex_facets), n
        for i in range(len(oracle.vertex_facets)):
            (ideal,) = oracle.face_members(1 << i)
            assert cx.face_members(1 << i) == {ideal_point(ideal)}, (n, i)
        assert [cx.mask(f) for f in range(cx.m)] == [oracle.mask(f) for f in range(oracle.m)], n


def test_dyck_complex_alignment():
    for n in range(1, 6):
        cx = dyck_complex(n)
        assert cx.m == catalan(n)
        assert cx.d == 2 * n - 1
        for i, w in enumerate(enumerate_paths(n)):
            facet = path_to_facet(DyckPath(w))
            assert cx.face_members(cx.mask(i)) == set(map(ideal_point, facet))
    with pytest.raises(ValueError):
        dyck_complex(0)


def test_omega_n_enumerates_the_words_once(monkeypatch):
    # dyck_complex(n) and omega_n(n) share one word tuple per n
    calls = []

    def counted(n):
        calls.append(n)
        return enumerate_paths(n)

    monkeypatch.setattr(shelling, "enumerate_paths", counted)
    for value in vars(shelling).values():
        if hasattr(value, "cache_clear"):
            value.cache_clear()
    om = omega_n(5)
    assert calls == [5]
    assert om.labels == tuple(enumerate_paths(5))
    assert dyck_complex(5) is om.complex
    assert calls == [5]


def test_path_facet_round_trip():
    assert facet_to_path(path_to_facet(DyckPath("vh"))) == DyckPath("vh")
    chain = [
        frozenset({(1, 1)}),
        frozenset({(1, 1), (1, 2)}),
        frozenset({(1, 1), (1, 2), (2, 1)}),
    ]
    assert facet_to_path(chain) == DyckPath("vvhh")
    for n in range(1, 7):
        for w in map(DyckPath, enumerate_paths(n)):
            assert facet_to_path(path_to_facet(w)) == w


def test_facet_to_path_rejects():
    with pytest.raises(ValueError, match="not a maximal chain"):
        facet_to_path([frozenset({(1, 1)}), frozenset({(1, 1), (1, 2)})])
    with pytest.raises(ValueError, match="not a maximal chain"):
        facet_to_path([frozenset({(2, 1)})])
    with pytest.raises(ValueError, match="not a maximal chain"):
        facet_to_path(
            [
                frozenset({(1, 1)}),
                frozenset({(1, 2), (2, 1)}),
                frozenset({(1, 1), (1, 2), (2, 1)}),
            ]
        )
    with pytest.raises(ValueError, match="not a maximal chain"):
        facet_to_path(["junk"])
    for junk in ([], [frozenset({1})], [frozenset({()})], [frozenset({(1, 1)}), 5]):
        with pytest.raises(ValueError, match="not a maximal chain"):
            facet_to_path(junk)


def test_s_map_frozen():
    w = DyckPath("vhvhvh")
    for i in range(1, 5):
        assert s_map(w, i) == w
    assert s_map(DyckPath("vvhvhh"), 1) == DyckPath("vhvvhh")
    assert s_map(DyckPath("vvhhvh"), 3) == DyckPath("vvhvhh")
    assert s_map(DyckPath("vvhhvh"), 1) == DyckPath("vhvhvh")


def test_s_map_bounds():
    with pytest.raises(ValueError, match="position out of range"):
        s_map(DyckPath("vvhh"), 3)
    with pytest.raises(ValueError, match="position out of range"):
        s_map(DyckPath("vvhh"), 0)
    with pytest.raises(ValueError, match="position out of range"):
        s_map(DyckPath("vh"), 1)


def test_s_map_preserves_dyck():
    for n in range(2, 6):
        for w in map(DyckPath, enumerate_paths(n)):
            for i in range(1, 2 * n - 1):
                DyckPath(s_map(w, i).word)


def test_sigma_stat():
    assert sigma_stat(DyckPath("vhvhvh")) == (0, 6)
    assert sigma_stat(DyckPath("vvvhhh")) == (2, 0)
    assert sigma_stat(DyckPath("vvhvhh")) == (1, 3)
    assert sigma_stat(DyckPath("vhvvhh")) == (1, 2)


def test_sigma_strictly_decreases():
    for n in range(2, 6):
        for w in map(DyckPath, enumerate_paths(n)):
            for i in range(1, 2 * n - 1):
                u = s_map(w, i)
                if u != w:
                    assert sigma_stat(u) < sigma_stat(w), (w.word, i)


def test_omega_guard():
    with pytest.raises(ValueError, match="too large"):
        omega_n(9)
    with pytest.raises(ValueError):
        omega_n(0)


def test_omega_1():
    om = omega_n(1)
    assert om.m == 1
    assert om.relations == ()
    assert om.labels == ("vh",)


def test_omega_4_matches_figure():
    om = omega_n(4)
    covers = {(om.labels[a], om.labels[b]) for a, b in om.covers()}
    assert covers == OMEGA_4_COVERS


def test_omega_relations_match_rank_oracle():
    # omega_n finds each rewrite's facet through a dict from path to index;
    # the oracle ranks the rewritten path by counting
    for n in range(1, 8):
        om = omega_n(n)
        paths = list(map(DyckPath, enumerate_paths(n)))
        expected = {
            (rank(s_map(w, i)), j)
            for j, w in enumerate(paths)
            for i in range(1, 2 * n - 1)
            if s_map(w, i) != w
        }
        assert om.relations == tuple(sorted(expected)), n
        assert om.labels == tuple(w.word for w in paths), n


def random_facet_order(rng: random.Random) -> FacetOrder:
    """A random pure complex of 3 to 8 vertices, up to 14 facets and facets
    of 1 to 4 vertices, and a random acyclic order on its facets whose
    relations include a few that the closure of the others implies."""
    vertices = rng.randint(3, 8)
    candidates = list(itertools.combinations(range(vertices), rng.randint(1, min(vertices - 1, 4))))
    cx = PureComplex(range(vertices), rng.sample(candidates, min(len(candidates), rng.randint(2, 14))))
    position = rng.sample(range(cx.m), cx.m)
    pairs = [(a, b) for a, b in itertools.permutations(range(cx.m), 2) if position[a] < position[b]]
    om = FacetOrder(cx, rng.sample(pairs, rng.randint(0, min(len(pairs), 2 * cx.m))))
    implied = [(a, b) for a, b in pairs if om.less(a, b) and (a, b) not in om.relations]
    return FacetOrder(cx, [*om.relations, *rng.sample(implied, min(len(implied), 3))])


def assert_sparse_queries_match_oracles(om: FacetOrder, faces: bool) -> None:
    assert om.covers() == closure_covers(om)
    for f in range(om.m):
        assert _restriction_mask(om, f) == pairwise_restriction_mask(om, f), f
    if faces:
        assert om.complex.face_masks() == dfs_face_masks(om.complex)


def test_sparse_queries_match_closure_oracles_on_omega():
    # covers from the generators, restrictions from the vertex incidences
    # and faces by submask enumeration, against walks of the closure; the
    # face guard admits omega_n(6) but not omega_n(7)
    for n in range(1, 9):
        assert_sparse_queries_match_oracles(omega_n(n), faces=n <= 6)


def test_sparse_queries_match_closure_oracles_on_random_orders():
    # a single facet, also the empty one, has no cover and no restriction
    for cx in (PureComplex("ab", [{"a", "b"}]), PureComplex([], [frozenset()])):
        assert_sparse_queries_match_oracles(FacetOrder(cx, []), faces=True)
    rng = random.Random(29)
    redundant = proper = 0
    for _ in range(400):
        om = random_facet_order(rng)
        assert_sparse_queries_match_oracles(om, faces=True)
        redundant += len(om.relations) > len(om.covers())
        proper += any(0 < _restriction_mask(om, f).bit_count() < om.complex.d for f in range(om.m))
    # over half the draws hold a relation that is not a cover, and a facet
    # whose restriction is neither empty nor the whole facet
    assert redundant > 200 and proper > 200


def test_omega_unique_minimum():
    for n in range(1, 6):
        om = omega_n(n)
        mins = minimal_indices(om)
        assert [om.labels[i] for i in mins] == ["vh" * n]


def test_restriction_matches_ls():
    for n in range(1, 6):
        om = omega_n(n)
        for i, w in enumerate(enumerate_paths(n)):
            ranks = frozenset(a + b for a, b in restriction(om, i))
            assert ranks == ls_set(w), w
            assert sum(ranks) == maj_l(DyckPath(w))


def test_restriction_examples():
    om = omega_n(3)
    words = list(om.labels)
    assert restriction(om, words.index("vhvhvh")) == frozenset()
    assert restriction(om, words.index("vvvhhh")) == {(3, 0)}
    assert restriction(om, words.index("vvhhvh")) == {(2, 0), (2, 2)}


def test_check_preshelling_omega():
    for n in range(1, 5):
        report = check_preshelling(omega_n(n))
        assert report["is_preshelling"] is True
        assert set(report["conditions"].values()) == {True}
        assert report["witnesses"] == {}


def test_check_preshelling_single_facet():
    cx = PureComplex("ab", [{"a", "b"}])
    report = check_preshelling(FacetOrder(cx, []))
    assert report["is_preshelling"] is True


def test_check_preshelling_empty_order_fails():
    report = check_preshelling(FacetOrder(dyck_complex(3), []))
    assert report["is_preshelling"] is False
    assert set(report["conditions"].values()) == {False}
    assert report["witnesses"]["ii"]["covered_by"] == [0, 1, 2, 3, 4]


def test_check_preshelling_broken_orders_verdicts_agree():
    # orders that are not pre-shellings still get four matching verdicts
    cx3, cx4 = dyck_complex(3), dyck_complex(4)
    om3 = omega_n(3)
    broken = [
        FacetOrder(cx3, []),
        FacetOrder(cx4, []),
        FacetOrder(cx3, [(b, a) for a, b in om3.relations]),
        FacetOrder(cx3, list(om3.relations)[:3]),
        FacetOrder(cx3, [(0, 4)]),
        FacetOrder(cx4, [(0, 1), (2, 3), (5, 7)]),
    ]
    verdicts = []
    for om in broken:
        report = check_preshelling(om)
        assert len(set(report["conditions"].values())) == 1
        verdicts.append(report["is_preshelling"])
    assert verdicts == [False] * len(broken)


def test_check_preshelling_disagreement_raises(monkeypatch):
    # a real exception, so the equivalence check survives python -O
    monkeypatch.setattr(
        "narayana.shelling._first_misowned_face",
        lambda cx, r: {"face": [], "covered_by": []},
    )
    with pytest.raises(RuntimeError, match="equivalence broken"):
        check_preshelling(omega_n(3))


def test_check_preshelling_guard():
    cx = PureComplex(range(21), [set(range(21))])
    with pytest.raises(ValueError, match="complex too large"):
        check_preshelling(FacetOrder(cx, []))


def test_upward_closure_preserves_restrictions():
    for n in (3, 4):
        om = omega_n(n)
        base = [restriction(om, f) for f in range(om.m)]
        le = random_linear_extension(om, 5)
        position = {f: i for i, f in enumerate(le)}
        rng = random.Random(n)
        extra = []
        while len(extra) < 6:
            a, b = rng.sample(range(om.m), 2)
            if position[a] > position[b]:
                a, b = b, a
            if not om.leq(a, b):
                extra.append((a, b))
        bigger = FacetOrder(om.complex, om.relations + tuple(extra), om.labels)
        assert check_preshelling(bigger)["is_preshelling"] is True
        assert [restriction(bigger, f) for f in range(om.m)] == base


def test_is_shelling_single_facet():
    cx = PureComplex("ab", [{"a", "b"}])
    report = is_shelling(cx, [0])
    assert report["is_shelling"] is True
    assert report["restrictions"] == {0: frozenset()}


def test_is_shelling_validates_order():
    cx = dyck_complex(3)
    with pytest.raises(ValueError, match="not a total order"):
        is_shelling(cx, [0, 1, 2])
    with pytest.raises(ValueError, match="not a total order"):
        is_shelling(cx, [0, 0, 1, 2, 3])


def test_linear_extensions_of_omega_shell():
    for n in range(1, 5):
        om = omega_n(n)
        expected = {f: restriction(om, f) for f in range(om.m)}
        for seed in range(5):
            order = random_linear_extension(om, seed)
            report = is_shelling(om.complex, order)
            assert report["is_shelling"] is True
            assert report["violation"] is None
            assert report["restrictions"] == expected


def test_violating_order_found():
    om = omega_n(3)
    order = list(reversed(random_linear_extension(om, 0)))
    report = is_shelling(om.complex, order)
    assert report["is_shelling"] is False
    assert report["violation"] is not None


def test_every_shelling_is_a_preshelling():
    # exhaust all 120 total orders of the 5 facets at n = 3
    cx = dyck_complex(3)
    accepted = 0
    for perm in itertools.permutations(range(cx.m)):
        if is_shelling(cx, list(perm))["is_shelling"]:
            accepted += 1
            rels = [
                (perm[i], perm[j])
                for i in range(cx.m)
                for j in range(i + 1, cx.m)
            ]
            assert check_preshelling(FacetOrder(cx, rels))["is_preshelling"]
    assert accepted == 44


def test_partition_intervals_omega():
    om = omega_n(3)
    p = partition_intervals(om)
    assert len(p) == 5
    assert _first_misowned_face(om.complex, restriction_masks(om.complex, p)) is None
    total_faces = len(om.complex.face_masks())
    covered = sum(
        1 << (om.complex.d - len(r)) for r in p
    )
    assert covered == total_faces
    for n in (2, 4, 5):
        om = omega_n(n)
        p = partition_intervals(om)
        assert _first_misowned_face(om.complex, restriction_masks(om.complex, p)) is None
        assert sum(
            1 << (om.complex.d - len(r)) for r in p
        ) == len(om.complex.face_masks())


def test_verify_partitioning_catches_damage():
    om = omega_n(3)
    good = partition_intervals(om)
    bad = (frozenset(),) * om.m
    witness = _first_misowned_face(om.complex, restriction_masks(om.complex, bad))
    assert witness is not None
    assert len(witness["covered_by"]) != 1
    assert good != bad


def brute_force_owner_witness(cx: PureComplex, restrictions) -> "dict | None":
    """Scan every interval for every face: the first face in sorted mask
    order not owned exactly once, with its owners."""
    r = restriction_masks(cx, restrictions)
    for face in sorted(cx.face_masks()):
        owners = [
            f for f in range(cx.m) if not r[f] & ~face and not face & ~cx.mask(f)
        ]
        if len(owners) != 1:
            members = [i for i in range(face.bit_length()) if (face >> i) & 1]
            return {"face": members, "covered_by": owners}
    return None


def test_verify_partitioning_matches_brute_force_on_damage():
    rng = random.Random(7)
    for n in (3, 4):
        om = omega_n(n)
        good = partition_intervals(om)
        facets = [om.complex.face_members(om.complex.mask(f)) for f in range(om.m)]
        damaged = [good, (frozenset(),) * om.m, tuple(facets)]
        for _ in range(30):
            rs = list(good)
            for f in rng.sample(range(om.m), rng.randint(1, 3)):
                facet = sorted(facets[f])
                rs[f] = frozenset(rng.sample(facet, rng.randint(0, len(facet))))
            damaged.append(tuple(rs))
        owner_counts = set()
        for rs in damaged:
            witness = brute_force_owner_witness(om.complex, rs)
            assert _first_misowned_face(om.complex, restriction_masks(om.complex, rs)) == witness
            owner_counts.add(None if witness is None else len(witness["covered_by"]))
        # valid, uncovered and multiply covered faces all occur
        assert {None, 0} < owner_counts and max(owner_counts - {None}) >= 2
    cx3, cx4 = dyck_complex(3), dyck_complex(4)
    for order in (
        omega_n(4),
        FacetOrder(cx3, []),
        FacetOrder(cx3, [(b, a) for a, b in omega_n(3).relations]),
        FacetOrder(cx4, [(0, 1), (2, 3), (5, 7)]),
    ):
        witness = brute_force_owner_witness(order.complex, partition_intervals(order))
        assert check_preshelling(order)["witnesses"].get("ii") == witness


def test_single_facet_partitioning_covers_everything():
    cx = PureComplex("abc", [{"a", "b", "c"}])
    p = partition_intervals(FacetOrder(cx, []))
    assert p == (frozenset(),)
    assert _first_misowned_face(cx, restriction_masks(cx, p)) is None
    assert len(cx.face_masks()) == 8


def test_flag_h_from_partition_frozen():
    p1 = partition_intervals(omega_n(1))
    assert flag_h_from_partition(p1) == {frozenset(): 1}
    p3 = partition_intervals(omega_n(3))
    table = flag_h_from_partition(p3)
    assert table == {
        frozenset(): 1,
        frozenset({2}): 1,
        frozenset({3}): 1,
        frozenset({4}): 1,
        frozenset({2, 4}): 1,
    }


def test_flag_h_from_partition_matches_inclusion_exclusion():
    for n in range(1, 6):
        table = flag_h_from_partition(partition_intervals(omega_n(n)))
        assert table == flag_h_table(n), n
        ls_counts: dict[frozenset[int], int] = {}
        for w in enumerate_paths(n):
            s = ls_set(w)
            ls_counts[s] = ls_counts.get(s, 0) + 1
        assert table == ls_counts
