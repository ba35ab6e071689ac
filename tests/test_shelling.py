import itertools
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from narayana import shelling
from narayana.dyck import dyck_word, enumerate_paths, ls_set
from narayana.posets import flag_h_table
from narayana.preshelling import chain_count, check_preshelling
from narayana.shelling import (
    FacetOrder,
    PureComplex,
    _rank_set_counts,
    _restriction_mask,
    dyck_complex,
    omega_n,
)
from conftest import spawn
from oracles import (
    GradedBoundedPoset,
    catalan,
    chain_product_2xn,
    closure_covers,
    dfs_face_masks,
    face_members,
    facet_to_path,
    first_misowned_face,
    flag_h_from_partition,
    ideal_lattice,
    interval_owners,
    is_linear_extension,
    is_shelling,
    j2xn,
    less,
    maj_l,
    order_complex,
    pairwise_preshelling,
    pairwise_restriction_mask,
    partition_intervals,
    path_to_facet,
    point_chain_complex,
    pure_complex,
    random_linear_extension,
    rank,
    rank_mask,
    restriction,
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
    return pure_complex([1, 2, 3], [{1, 2}, {2, 3}, {1, 3}])


def minimal_indices(om: FacetOrder) -> list[int]:
    return [i for i in range(om.m) if not om.below_mask(i)]


def ideal_point(ideal: frozenset) -> tuple[int, int]:
    # the ideal of J(2 x n) with a elements in the first row and b in the
    # second is the point (a, b) of dyck_complex
    return sum(e[0] == 1 for e in ideal), sum(e[0] == 2 for e in ideal)


def restriction_masks(cx: PureComplex, restrictions) -> list[int]:
    # each vertex's bit, read back through face_members
    bit = {v: 1 << i for i in range(len(cx.vertex_facets)) for v in face_members(cx, 1 << i)}
    return [sum(bit[v] for v in rset) for rset in restrictions]


def test_pure_complex_validation():
    with pytest.raises(ValueError, match="duplicate vertex"):
        pure_complex([1, 1], [{1}])
    with pytest.raises(ValueError, match="not a vertex"):
        pure_complex([1], [{2}])
    with pytest.raises(ValueError, match="not pure"):
        pure_complex([1, 2, 3], [{1, 2}, {3}])
    with pytest.raises(ValueError, match="contained in another"):
        pure_complex([1, 2, 3], [{1, 2}, {1, 2}])
    # the first facet that has a duplicate anywhere is reported
    with pytest.raises(ValueError, match="index 1$"):
        pure_complex([1, 2, 3], [{2, 3}, {1, 2}, {1, 3}, {1, 2}, {1, 3}])
    with pytest.raises(ValueError, match="at least one facet"):
        pure_complex([1], [])


def test_pure_complex_refuses_masks_outside_its_vertices():
    # each facet is an int mask over the vertex tuple; a bool, a float or a
    # str is refused, not read as the int it equals
    for bad in (True, 1.0, "1", None, frozenset({1})):
        with pytest.raises(ValueError, match="facet mask not an int"):
            PureComplex([1, 2], [2, bad])
    for outside in (-1, 4, 1 << 40):
        with pytest.raises(ValueError, match="outside the vertex range"):
            PureComplex([1, 2], [outside])
    with pytest.raises(ValueError, match="duplicate vertex"):
        PureComplex([1, 1], [1])
    with pytest.raises(ValueError, match="not pure"):
        PureComplex([1, 2, 3], [0b011, 0b100])
    with pytest.raises(ValueError, match="index 1$"):
        PureComplex([1, 2, 3], [0b110, 0b011, 0b101, 0b011])
    with pytest.raises(ValueError, match="at least one facet"):
        PureComplex([1], [])
    cx = PureComplex("abc", iter([0b011, 0b110]))
    assert (cx.m, cx.d, cx.facet_vertices) == (2, 2, ((0, 1), (1, 2)))


def test_pure_complex_faces():
    cx = pure_complex("ab", [{"a", "b"}])
    faces = [face_members(cx, mask) for mask in sorted(dfs_face_masks(cx))]
    assert sorted(map(sorted, faces)) == [[], ["a"], ["a", "b"], ["b"]]
    assert len(dfs_face_masks(triangle_boundary())) == 7


def test_facet_order_basics():
    cx = triangle_boundary()
    om = FacetOrder(cx.m, [(0, 1), (1, 2)])
    assert less(om, 0, 1) and less(om, 1, 2) and less(om, 0, 2)
    assert not less(om, 2, 0) and not less(om, 0, 0)
    assert minimal_indices(om) == [0]
    assert om.covers() == [(0, 1), (1, 2)]
    assert is_linear_extension([0, 1, 2], range(om.m), om.relations)
    assert not is_linear_extension([1, 0, 2], range(om.m), om.relations)
    assert not is_linear_extension([0, 1], range(om.m), om.relations)
    # a relation the closure implies changes no comparison and adds no cover
    bigger = FacetOrder(cx.m, [*om.relations, (0, 2)])
    assert bigger.relations == ((0, 1), (0, 2), (1, 2))
    assert less(bigger, 0, 2) and bigger.covers() == om.covers()


def test_facet_order_rejects():
    cx = triangle_boundary()
    with pytest.raises(ValueError, match="cycle"):
        FacetOrder(cx.m, [(0, 1), (1, 0)])
    with pytest.raises(ValueError, match="cycle"):
        FacetOrder(cx.m, [(1, 1)])
    with pytest.raises(ValueError, match="index out of range"):
        FacetOrder(cx.m, [(0, 3)])


def test_facet_order_refuses_indices_that_are_not_ints():
    # int() would read (0.9, 1.7) as (0, 1) and ("1", "2") as (1, 2)
    cx = triangle_boundary()
    for pair in ((0.9, 1.7), ("1", "2"), (True, 2), (0, False), (0, 1.0), (None, 1)):
        with pytest.raises(ValueError, match="facet index not an int"):
            FacetOrder(cx.m, [(0, 1), pair])
    assert FacetOrder(cx.m, [[0, 1], (1, 2)]).relations == ((0, 1), (1, 2))


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
    assert cx.m == 1 and face_members(cx, cx.mask(0)) == {"a"}
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
            (ideal,) = face_members(oracle, 1 << i)
            assert face_members(cx, 1 << i) == {ideal_point(ideal)}, (n, i)
        assert [cx.mask(f) for f in range(cx.m)] == [oracle.mask(f) for f in range(oracle.m)], n


def test_dyck_complex_masks_match_the_point_chains():
    # the masks read through the (rank, a) bit table, against the facets
    # built as chains of points from the depth-first words
    for n in range(1, 9):
        cx, oracle = dyck_complex(n), point_chain_complex(n)
        assert cx.vertices == oracle.vertices, n
        assert [cx.mask(f) for f in range(cx.m)] == [oracle.mask(f) for f in range(oracle.m)], n
        assert cx.facet_vertices == oracle.facet_vertices, n


def test_dyck_complex_alignment():
    for n in range(1, 6):
        cx = dyck_complex(n)
        assert cx.m == catalan(n)
        assert cx.d == 2 * n - 1
        for i, w in enumerate(enumerate_paths(n)):
            facet = path_to_facet(w)
            assert face_members(cx, cx.mask(i)) == set(map(ideal_point, facet))
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
    assert shelling._words(5) == tuple(enumerate_paths(5))
    dyck_complex(5)
    assert calls == [5]


def test_path_facet_round_trip():
    assert facet_to_path(path_to_facet("vh")) == "vh"
    chain = [
        frozenset({(1, 1)}),
        frozenset({(1, 1), (1, 2)}),
        frozenset({(1, 1), (1, 2), (2, 1)}),
    ]
    assert facet_to_path(chain) == "vvhh"
    for n in range(1, 7):
        for w in enumerate_paths(n):
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
    w = "vhvhvh"
    for i in range(1, 5):
        assert s_map(w, i) == w
    assert s_map("vvhvhh", 1) == "vhvvhh"
    assert s_map("vvhhvh", 3) == "vvhvhh"
    assert s_map("vvhhvh", 1) == "vhvhvh"


def test_s_map_bounds():
    with pytest.raises(ValueError, match="position out of range"):
        s_map("vvhh", 3)
    with pytest.raises(ValueError, match="position out of range"):
        s_map("vvhh", 0)
    with pytest.raises(ValueError, match="position out of range"):
        s_map("vh", 1)


def test_s_map_preserves_dyck():
    for n in range(2, 6):
        for w in enumerate_paths(n):
            for i in range(1, 2 * n - 1):
                u = s_map(w, i)
                assert dyck_word(u) == u


def test_sigma_stat():
    assert sigma_stat("vhvhvh") == (0, 6)
    assert sigma_stat("vvvhhh") == (2, 0)
    assert sigma_stat("vvhvhh") == (1, 3)
    assert sigma_stat("vhvvhh") == (1, 2)


def test_sigma_strictly_decreases():
    for n in range(2, 6):
        for w in enumerate_paths(n):
            for i in range(1, 2 * n - 1):
                u = s_map(w, i)
                if u != w:
                    assert sigma_stat(u) < sigma_stat(w), (w, i)


def test_omega_guard():
    with pytest.raises(ValueError):
        omega_n(0)


def test_omega_1():
    om = omega_n(1)
    assert om.m == 1
    assert om.relations == ()
    assert shelling._words(1) == ("vh",)


def test_omega_4_matches_figure():
    words = shelling._words(4)
    covers = {(words[a], words[b]) for a, b in omega_n(4).covers()}
    assert covers == OMEGA_4_COVERS


def test_omega_relations_match_rank_oracle():
    # omega_n finds each rewrite's facet through a dict from path to index;
    # the oracle ranks the rewritten path by counting
    for n in range(1, 8):
        om = omega_n(n)
        paths = list(enumerate_paths(n))
        expected = {
            (rank(s_map(w, i)), j)
            for j, w in enumerate(paths)
            for i in range(1, 2 * n - 1)
            if s_map(w, i) != w
        }
        assert om.relations == tuple(sorted(expected)), n
        assert shelling._words(n) == tuple(paths), n


def random_facet_order(rng: random.Random) -> tuple[PureComplex, FacetOrder]:
    """A random pure complex of 3 to 8 vertices, up to 14 facets and facets
    of 1 to 4 vertices, and a random acyclic order on its facets whose
    relations include a few that the closure of the others implies."""
    vertices = rng.randint(3, 8)
    candidates = list(itertools.combinations(range(vertices), rng.randint(1, min(vertices - 1, 4))))
    cx = pure_complex(range(vertices), rng.sample(candidates, min(len(candidates), rng.randint(2, 14))))
    position = rng.sample(range(cx.m), cx.m)
    pairs = [(a, b) for a, b in itertools.permutations(range(cx.m), 2) if position[a] < position[b]]
    om = FacetOrder(cx.m, rng.sample(pairs, rng.randint(0, min(len(pairs), 2 * cx.m))))
    implied = [(a, b) for a, b in pairs if less(om, a, b) and (a, b) not in om.relations]
    return cx, FacetOrder(cx.m, [*om.relations, *rng.sample(implied, min(len(implied), 3))])


def assert_sparse_queries_match_oracles(cx: PureComplex, om: FacetOrder) -> None:
    assert om.covers() == closure_covers(om)
    for f in range(om.m):
        assert _restriction_mask(cx, om, f) == pairwise_restriction_mask(cx, om, f), f


def test_sparse_queries_match_closure_oracles_on_omega():
    # covers from the generators and restrictions from the vertex
    # incidences, against walks of the closure
    for n in range(1, 9):
        assert_sparse_queries_match_oracles(dyck_complex(n), omega_n(n))


def test_sparse_queries_match_closure_oracles_on_random_orders():
    # a single facet, also the empty one, has no cover and no restriction
    for cx in (pure_complex("ab", [{"a", "b"}]), pure_complex([], [frozenset()])):
        assert_sparse_queries_match_oracles(cx, FacetOrder(cx.m, []))
    rng = random.Random(29)
    redundant = proper = 0
    for _ in range(400):
        cx, om = random_facet_order(rng)
        assert_sparse_queries_match_oracles(cx, om)
        redundant += len(om.relations) > len(om.covers())
        proper += any(0 < _restriction_mask(cx, om, f).bit_count() < cx.d for f in range(om.m))
    # over half the draws hold a relation that is not a cover, and a facet
    # whose restriction is neither empty nor the whole facet
    assert redundant > 200 and proper > 200


def test_omega_unique_minimum():
    for n in range(1, 6):
        om = omega_n(n)
        mins = minimal_indices(om)
        assert [shelling._words(n)[i] for i in mins] == ["vh" * n]


def test_restriction_matches_ls():
    for n in range(1, 6):
        cx, om = dyck_complex(n), omega_n(n)
        for i, w in enumerate(enumerate_paths(n)):
            ranks = frozenset(a + b for a, b in restriction(cx, om, i))
            assert rank_mask(ranks) == ls_set(w), w
            assert sum(ranks) == maj_l(w)


def test_restriction_examples():
    cx, om = dyck_complex(3), omega_n(3)
    words = list(shelling._words(3))
    assert restriction(cx, om, words.index("vhvhvh")) == frozenset()
    assert restriction(cx, om, words.index("vvvhhh")) == {(3, 0)}
    assert restriction(cx, om, words.index("vvhhvh")) == {(2, 0), (2, 2)}


def test_check_preshelling_omega():
    for n in range(1, 5):
        report = check_preshelling(dyck_complex(n), omega_n(n), chain_count(n))
        assert report["is_preshelling"] is True
        assert set(report["conditions"].values()) == {True}
        assert report["witnesses"] == {}


def test_check_preshelling_single_facet():
    cx = pure_complex("ab", [{"a", "b"}])
    report = check_preshelling(cx, FacetOrder(cx.m, []), 4)
    assert report["is_preshelling"] is True


def test_check_preshelling_empty_order_fails():
    report = check_preshelling(dyck_complex(3), FacetOrder(5, []), chain_count(3))
    assert report["is_preshelling"] is False
    assert set(report["conditions"].values()) == {False}
    assert report["witnesses"]["ii"] == {"face": [], "covered_by": [0, 1, 2, 3, 4]}


def test_check_preshelling_refuses_an_order_on_other_facets():
    for m in (4, 6):
        with pytest.raises(ValueError, match=f"order on {m} facets, complex of 5"):
            check_preshelling(dyck_complex(3), FacetOrder(m, []), chain_count(3))


def broken_orders() -> list[tuple[int, FacetOrder]]:
    # orders on dyck_complex(n) that are not pre-shellings, each with its n
    om3 = omega_n(3)
    return [
        (3, FacetOrder(5, [])),
        (4, FacetOrder(14, [])),
        (3, FacetOrder(5, [(b, a) for a, b in om3.relations])),
        (3, FacetOrder(5, list(om3.relations)[:3])),
        (3, FacetOrder(5, [(0, 4)])),
        (4, FacetOrder(14, [(0, 1), (2, 3), (5, 7)])),
    ]


def test_check_preshelling_broken_orders_verdicts_agree():
    # orders that are not pre-shellings still get four matching verdicts
    for n, om in broken_orders():
        report = check_preshelling(dyck_complex(n), om, chain_count(n))
        assert set(report["conditions"].values()) == {False}
        assert report["is_preshelling"] is False


def assert_matches_the_pairwise_oracle(cx: PureComplex, order: FacetOrder, faces: int) -> None:
    """The verdicts and the witnesses of (i), (iii) and (iv) are the
    oracle's.  (ii)'s face is one the oracle's walk finds misowned, and its
    owners are all those the walk finds."""
    expected = pairwise_preshelling(cx, order)
    report = check_preshelling(cx, order, faces)
    shared = report["witnesses"].pop("ii", None)
    misowned = expected["witnesses"].pop("ii", None)
    assert report == expected
    assert (shared is None) == (misowned is None)
    if shared is not None:
        r = [pairwise_restriction_mask(cx, order, f) for f in range(cx.m)]
        owners = interval_owners(cx, r)[sum(1 << v for v in shared["face"])]
        assert len(owners) >= 2
        assert shared["covered_by"] == owners


def test_check_preshelling_matches_the_pairwise_oracle():
    for n in range(1, 7):
        assert_matches_the_pairwise_oracle(dyck_complex(n), omega_n(n), chain_count(n))
    for n, order in broken_orders():
        assert_matches_the_pairwise_oracle(dyck_complex(n), order, chain_count(n))


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 5), st.randoms(use_true_random=False))
def test_check_preshelling_matches_the_oracle_on_sub_orders(n, rng):
    om = omega_n(n)
    keep = rng.random()
    relations = [rel for rel in om.relations if rng.random() < keep]
    assert_matches_the_pairwise_oracle(dyck_complex(n), FacetOrder(om.m, relations), chain_count(n))


def test_chain_count_counts_the_faces():
    for n in range(1, 7):
        assert chain_count(n) == len(dfs_face_masks(dyck_complex(n)))
    assert [chain_count(n) for n in range(1, 9)] == [2, 12, 88, 720, 6304, 57792, 547712, 5323008]


def test_chain_count_refuses_a_negative_semilength():
    # chain_count(0) counts the empty chain of J(2 x 0), a single point
    assert chain_count(0) == 1
    for n in (-1, -2, -10):
        with pytest.raises(ValueError, match=f"^negative semilength: {n}$"):
            chain_count(n)


# run under python -O, which strips asserts: the broken orders' reports,
# and whether a forced disagreement, a wrong face count, raises
OPTIMIZED_PROBE = """
from narayana.preshelling import chain_count, check_preshelling
from narayana.shelling import dyck_complex, omega_n
from test_shelling import broken_orders
reports = [check_preshelling(dyck_complex(n), order, chain_count(n)) for n, order in broken_orders()]
try:
    check_preshelling(dyck_complex(3), omega_n(3), chain_count(3) + 1)
    raised = False
except RuntimeError:
    raised = True
print(repr((reports, raised)))
"""


def test_check_preshelling_survives_optimized_mode():
    # run in tests/, the probe's first entry on sys.path
    result = spawn("-c", OPTIMIZED_PROBE, flags=("-O",), cwd=Path(__file__).resolve().parent)
    assert result.returncode == 0, result.stderr
    reports = [check_preshelling(dyck_complex(n), order, chain_count(n)) for n, order in broken_orders()]
    assert all(set(report["conditions"].values()) == {False} for report in reports)
    assert result.stdout == repr((reports, True)) + "\n"


def test_check_preshelling_disagreement_raises():
    # a real exception, so the equivalence check survives python -O: with a
    # wrong face count (ii) alone fails on a pre-shelling
    for faces in (chain_count(3) - 1, chain_count(3) + 1, 0):
        with pytest.raises(RuntimeError, match="equivalence broken"):
            check_preshelling(dyck_complex(3), omega_n(3), faces)


def test_upward_closure_preserves_restrictions():
    for n in (3, 4):
        cx, om = dyck_complex(n), omega_n(n)
        base = [restriction(cx, om, f) for f in range(om.m)]
        le = random_linear_extension(om, 5)
        position = {f: i for i, f in enumerate(le)}
        rng = random.Random(n)
        extra = []
        while len(extra) < 6:
            a, b = rng.sample(range(om.m), 2)
            if position[a] > position[b]:
                a, b = b, a
            if not less(om, a, b):
                extra.append((a, b))
        bigger = FacetOrder(om.m, om.relations + tuple(extra))
        assert check_preshelling(cx, bigger, chain_count(n))["is_preshelling"] is True
        assert [restriction(cx, bigger, f) for f in range(om.m)] == base


def test_is_shelling_single_facet():
    cx = pure_complex("ab", [{"a", "b"}])
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
        cx, om = dyck_complex(n), omega_n(n)
        expected = {f: restriction(cx, om, f) for f in range(om.m)}
        for seed in range(5):
            order = random_linear_extension(om, seed)
            report = is_shelling(cx, order)
            assert report["is_shelling"] is True
            assert report["violation"] is None
            assert report["restrictions"] == expected


def test_violating_order_found():
    om = omega_n(3)
    order = list(reversed(random_linear_extension(om, 0)))
    report = is_shelling(dyck_complex(3), order)
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
            assert check_preshelling(cx, FacetOrder(cx.m, rels), chain_count(3))["is_preshelling"]
    assert accepted == 44


def test_partition_intervals_omega():
    for n in (2, 3, 4, 5):
        cx = dyck_complex(n)
        p = partition_intervals(cx, omega_n(n))
        assert len(p) == cx.m
        assert first_misowned_face(cx, restriction_masks(cx, p)) is None
        assert sum(1 << (cx.d - len(r)) for r in p) == len(dfs_face_masks(cx))


def test_verify_partitioning_catches_damage():
    cx = dyck_complex(3)
    good = partition_intervals(cx, omega_n(3))
    bad = (frozenset(),) * cx.m
    witness = first_misowned_face(cx, restriction_masks(cx, bad))
    assert witness is not None
    assert len(witness["covered_by"]) != 1
    assert good != bad


def brute_force_owner_witness(cx: PureComplex, restrictions) -> "dict | None":
    """Scan every interval for every face: the first face in sorted mask
    order not owned exactly once, with its owners."""
    r = restriction_masks(cx, restrictions)
    for face in sorted(dfs_face_masks(cx)):
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
        cx = dyck_complex(n)
        good = partition_intervals(cx, omega_n(n))
        facets = [face_members(cx, cx.mask(f)) for f in range(cx.m)]
        damaged = [good, (frozenset(),) * cx.m, tuple(facets)]
        for _ in range(30):
            rs = list(good)
            for f in rng.sample(range(cx.m), rng.randint(1, 3)):
                facet = sorted(facets[f])
                rs[f] = frozenset(rng.sample(facet, rng.randint(0, len(facet))))
            damaged.append(tuple(rs))
        owner_counts = set()
        for rs in damaged:
            witness = brute_force_owner_witness(cx, rs)
            assert first_misowned_face(cx, restriction_masks(cx, rs)) == witness
            owner_counts.add(None if witness is None else len(witness["covered_by"]))
        # valid, uncovered and multiply covered faces all occur
        assert {None, 0} < owner_counts and max(owner_counts - {None}) >= 2
    for n, order in [(4, omega_n(4)), *broken_orders()]:
        cx = dyck_complex(n)
        witness = brute_force_owner_witness(cx, partition_intervals(cx, order))
        assert pairwise_preshelling(cx, order)["witnesses"].get("ii") == witness


def test_single_facet_partitioning_covers_everything():
    cx = pure_complex("abc", [{"a", "b", "c"}])
    p = partition_intervals(cx, FacetOrder(cx.m, []))
    assert p == (frozenset(),)
    assert first_misowned_face(cx, restriction_masks(cx, p)) is None
    assert len(dfs_face_masks(cx)) == 8


def test_flag_h_from_partition_frozen():
    p1 = partition_intervals(dyck_complex(1), omega_n(1))
    assert flag_h_from_partition(p1) == {frozenset(): 1}
    p3 = partition_intervals(dyck_complex(3), omega_n(3))
    table = flag_h_from_partition(p3)
    assert table == {
        frozenset(): 1,
        frozenset({2}): 1,
        frozenset({3}): 1,
        frozenset({4}): 1,
        frozenset({2, 4}): 1,
    }


def partition_by_mask(cx, order) -> dict[int, int]:
    # the oracle's restrictions as sets of points, bucketed by their ranks
    table = flag_h_from_partition(partition_intervals(cx, order))
    return {rank_mask(S): count for S, count in table.items()}


def test_parth_rank_buckets_match_the_partition_oracle():
    # the restriction masks bucketed by rank mask, against the restrictions
    # as sets of points bucketed by their ranks
    for n in range(1, 9):
        cx = dyck_complex(n)
        buckets = _rank_set_counts(cx, omega_n(n))
        assert buckets == partition_by_mask(cx, omega_n(n)), n
        assert buckets == flag_h_table(n), n
    # a damaged order buckets its own restrictions, not the flag h-vector
    cx, broken = dyck_complex(4), FacetOrder(14, [])
    assert _rank_set_counts(cx, broken) == partition_by_mask(cx, broken)
    assert _rank_set_counts(cx, broken) == {rank_mask(()): 14}


def test_flag_h_from_partition_matches_inclusion_exclusion():
    for n in range(1, 6):
        table = partition_by_mask(dyck_complex(n), omega_n(n))
        assert table == flag_h_table(n), n
        ls_counts: dict[int, int] = {}
        for w in enumerate_paths(n):
            s = ls_set(w)
            ls_counts[s] = ls_counts.get(s, 0) + 1
        assert table == ls_counts
