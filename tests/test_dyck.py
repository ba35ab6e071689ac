import itertools
import random
from collections import Counter, defaultdict

import pytest
from hypothesis import given, strategies as st

from narayana.dyck import (
    DyckPath,
    descent_set,
    distribution,
    enumerate_paths,
    joint_q,
    ls_set,
    random_path,
    unrank,
)
from narayana.qpoly import QPoly, catalan, narayana
from oracles import (
    da,
    des,
    des_wrt,
    descent_set_wrt,
    ea,
    high_peak_set,
    hp,
    label_string,
    lnfs,
    maj,
    maj_l,
    maj_wrt,
    rank,
)


def brute_force_words(n: int) -> list[str]:
    # oracle: filter all 2^(2n) words by the prefix property
    out = []
    for letters in itertools.product("vh", repeat=2 * n):
        excess = 0
        for c in letters:
            excess += 1 if c == "v" else -1
            if excess < 0:
                break
        else:
            if excess == 0:
                out.append("".join(letters))
    return out


def heights(word: str) -> list[int]:
    # oracle: y - x after each step, starting at 0
    hs = [0]
    for c in word:
        hs.append(hs[-1] + (1 if c == "v" else -1))
    return hs


small_paths = st.builds(
    random_path, st.integers(min_value=0, max_value=7), st.integers(0, 10**6)
)


def test_construction_and_rendering():
    w = DyckPath("vvhvhh")
    assert w.n == 3
    assert w.word == "vvhvhh"
    assert repr(w) == "DyckPath('vvhvhh')"
    assert DyckPath("VVHVHH") == w
    assert DyckPath(["v", "v", "h", "v", "h", "h"]) == w


def test_construction_rejects_bad_words():
    with pytest.raises(ValueError, match="invalid character"):
        DyckPath("vxvh")
    with pytest.raises(ValueError, match="unbalanced"):
        DyckPath("vvh")
    with pytest.raises(ValueError, match="unbalanced"):
        DyckPath("vvhh" + "vv")
    with pytest.raises(ValueError, match="prefix condition violated at position 3"):
        DyckPath("vhhv")


def test_empty_path():
    w = DyckPath("")
    assert w.n == 0
    assert list(enumerate_paths(0)) == [w.word]
    assert des(w) == hp(w) == ea(w) == lnfs(w) == da(w) == 0


def test_enumerate_matches_brute_force():
    for n in range(7):
        expected = brute_force_words(n)
        got = list(enumerate_paths(n))
        assert sorted(got) == sorted(expected)
        assert len(got) == catalan(n)
        # lexicographic with v < h, which is NOT the ascii string order
        keys = [[0 if c == "v" else 1 for c in word] for word in got]
        assert keys == sorted(keys)


def test_enumerate_frozen():
    assert list(enumerate_paths(1)) == ["vh"]
    assert len(list(enumerate_paths(4))) == 14


def test_descent_set_frozen():
    assert descent_set("vh") == frozenset()
    assert descent_set("vvhvhh") == {3}
    assert descent_set("vhvhvh") == {2, 4}
    assert (des(DyckPath("vvvhhh")), maj(DyckPath("vvvhhh"))) == (0, 0)
    assert (des(DyckPath("vvhhvh")), maj(DyckPath("vvhhvh"))) == (1, 4)
    assert (des(DyckPath("vhvhvh")), maj(DyckPath("vhvhvh"))) == (2, 6)


def test_high_peak_frozen():
    assert high_peak_set(DyckPath("vhvhvh")) == frozenset()
    assert high_peak_set(DyckPath("vvvhhh")) == {3}
    assert high_peak_set(DyckPath("vvhvhh")) == {2, 4}
    assert hp(DyckPath("vvhvhh")) == 2


@given(small_paths)
def test_high_peaks_match_geometric_oracle(w):
    word = w.word
    hs = heights(word)
    expected = {
        i
        for i in range(1, len(word))
        if word[i - 1] == "v" and word[i] == "h" and hs[i] >= 2
    }
    assert high_peak_set(w) == expected


def test_ea_frozen():
    assert ea(DyckPath("vh")) == 0
    assert ea(DyckPath("vvhvhh")) == 2
    assert ea(DyckPath("vhvhvh")) == 0


def test_ls_frozen():
    assert ls_set("vhvhvh") == frozenset()
    assert ls_set("vvvhhh") == {3}
    assert ls_set("vvhhvh") == {2, 4}
    assert ls_set("vvvhhhvh") == {3, 6}
    assert (lnfs(DyckPath("vvhhvh")), maj_l(DyckPath("vvhhvh"))) == (2, 6)


@given(small_paths)
def test_ls_members_in_range(w):
    s = ls_set(w.word)
    assert all(2 <= i <= 2 * w.n - 1 for i in s)
    word = w.word
    for i in s:
        assert word[i - 2 : i + 1] in ("vvh", "hhv")


def test_da_frozen():
    assert da(DyckPath("vhvhvh")) == 0
    assert da(DyckPath("vvvhhh")) == 2
    assert da(DyckPath("vvhvhh")) == 1


def test_labeling():
    assert label_string(DyckPath("vvhvhh")) == "v1v2h1v3h2h3"
    assert label_string(DyckPath("vh")) == "v1h1"
    assert label_string(DyckPath("vvhhvh")) == "v1v2h1h2v3h3"


def test_descent_set_wrt_worked_example():
    # w = v1 h1 v2 v3 h2 h3 read against W = v1 v2 h1 v3 h2 h3
    assert descent_set_wrt(DyckPath("vhvvhh"), DyckPath("vvhvhh")) == {2}


def test_descent_set_wrt_identity_and_classical():
    for w in map(DyckPath, enumerate_paths(4)):
        assert descent_set_wrt(w, w) == frozenset()
    for n in range(6):
        staircase = DyckPath("v" * n + "h" * n)
        zigzag = DyckPath("vh" * n)
        for w in map(DyckPath, enumerate_paths(n)):
            assert descent_set_wrt(w, staircase) == descent_set(w.word)
            assert descent_set_wrt(w, zigzag) == high_peak_set(w)


def test_descent_set_wrt_length_mismatch():
    with pytest.raises(ValueError, match="length mismatch"):
        descent_set_wrt(DyckPath("vh"), DyckPath("vvhh"))
    with pytest.raises(ValueError, match="length mismatch"):
        maj_wrt(DyckPath("vvhh"), DyckPath("vh"))


# Per-path oracle for the transfer matrix behind distribution and joint_q:
# every accepted statistic name read off each enumerated path.
PER_PATH = {"des": des, "maj": maj, "hp": hp, "ea": ea, "lnfs": lnfs, "maj_l": maj_l, "da": da}
ACCEPTED = (*PER_PATH, "des_w", "maj_w")


def per_path(name, wrt):
    if name == "des_w":
        return lambda w: des_wrt(w, wrt)
    if name == "maj_w":
        return lambda w: maj_wrt(w, wrt)
    return PER_PATH[name]


def oracle_distribution(n, name, wrt=None):
    paths = map(DyckPath, enumerate_paths(n))
    return dict(sorted(Counter(map(per_path(name, wrt), paths)).items()))


def oracle_joint_q(n, name, coname, wrt=None):
    stat, costat = per_path(name, wrt), per_path(coname, wrt)
    raw = defaultdict(Counter)
    for w in map(DyckPath, enumerate_paths(n)):
        raw[stat(w)][costat(w)] += 1
    return {k: QPoly([raw[k][d] for d in range(max(raw[k]) + 1)]) for k in sorted(raw)}


def test_distribution_matches_enumeration_oracle():
    for n in range(10):
        wrt = random_path(n, n)
        for name in ACCEPTED:
            expected = oracle_distribution(n, name, wrt)
            # same counts in the same key order
            assert list(distribution(n, name, wrt=wrt).items()) == list(expected.items()), (n, name)


def test_joint_q_matches_enumeration_oracle():
    for n in range(10):
        zigzag = DyckPath("vh" * n)
        for name, coname in (("des", "maj"), ("lnfs", "maj_l"), ("hp", "maj_w"), ("ea", "maj")):
            expected = oracle_joint_q(n, name, coname, zigzag)
            got = joint_q(n, name, coname, wrt=zigzag)
            assert list(got.items()) == list(expected.items()), (n, name, coname)


def test_tables_keyed_by_a_major_index_match_enumeration_oracle():
    # a major index reaches about n^2, so its values key the most states
    # and, packed, make the longest ints
    for n in range(10):
        zigzag = DyckPath("vh" * n)
        for name in ("maj", "maj_l", "maj_w"):
            expected = oracle_distribution(n, name, zigzag)
            assert list(distribution(n, name, wrt=zigzag).items()) == list(expected.items())
        for name, coname in (("maj", "des"), ("maj_l", "lnfs"), ("maj_w", "hp")):
            expected = oracle_joint_q(n, name, coname, zigzag)
            got = joint_q(n, name, coname, wrt=zigzag)
            assert list(got.items()) == list(expected.items()), (n, name, coname)


def test_every_table_counts_every_path_once():
    # a packed count that overflowed into the next digit would change the sum
    for n in range(13):
        wrt = random_path(n, n)
        for name in ACCEPTED:
            assert sum(distribution(n, name, wrt=wrt).values()) == catalan(n), (n, name)
        for name, coname in (("des", "maj"), ("lnfs", "maj_l"), ("hp", "maj_w"), ("maj", "des")):
            table = joint_q(n, name, coname, wrt=wrt)
            assert sum(sum(p.coeffs) for p in table.values()) == catalan(n), (n, name, coname)


def test_joint_q_des_w_every_reference_path():
    for n in range(6):
        for w0 in map(DyckPath, enumerate_paths(n)):
            expected = oracle_joint_q(n, "des_w", "maj_w", w0)
            assert list(joint_q(n, "des_w", "maj_w", wrt=w0).items()) == list(expected.items())
            assert distribution(n, "maj_w", wrt=w0) == oracle_distribution(n, "maj_w", w0)


def test_distribution_does_not_enumerate(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("per-path code called")

    # the per-path code left in the library; the per-path statistics live
    # in the oracles, which the library cannot call
    for name in ("enumerate_paths", "descent_set", "ls_set"):
        monkeypatch.setattr(f"narayana.dyck.{name}", forbidden)
    w0 = DyckPath("vvhvhh")
    for name in ACCEPTED:
        assert sum(distribution(3, name, wrt=w0).values()) == 5
    assert sum(sum(p.coeffs) for p in joint_q(3, "des_w", "maj_w", wrt=w0).values()) == 5


def test_distribution_errors():
    assert all(distribution(0, name, wrt=DyckPath("")) == {0: 1} for name in ACCEPTED)
    assert joint_q(0, "des", "maj") == {0: QPoly((1,))}
    with pytest.raises(ValueError, match="length mismatch"):
        distribution(3, "des_w", wrt=DyckPath("vh"))
    with pytest.raises(ValueError, match="length mismatch"):
        joint_q(3, "hp", "maj_w", wrt=DyckPath("vvhh"))
    with pytest.raises(ValueError, match="negative semilength"):
        distribution(-1, "des")
    with pytest.raises(ValueError, match="negative semilength"):
        joint_q(-2, "lnfs", "maj_l")


def test_distribution_frozen():
    assert distribution(3, "des") == {0: 1, 1: 3, 2: 1}
    assert distribution(3, "hp") == {0: 1, 1: 3, 2: 1}
    assert distribution(3, "des_w", wrt=DyckPath("vhvhvh")) == {0: 1, 1: 3, 2: 1}


def test_distribution_unknown_statistic():
    with pytest.raises(ValueError, match="unknown statistic"):
        distribution(3, "peaks")
    with pytest.raises(ValueError, match="unknown statistic"):
        joint_q(3, "des", "charge")
    with pytest.raises(ValueError, match="needs a reference path"):
        distribution(3, "des_w")


def test_distributions_are_narayana_rows():
    for n in range(1, 8):
        row = {k: narayana(n, k) for k in range(n) if narayana(n, k)}
        for stat in ("des", "hp", "ea", "lnfs"):
            assert distribution(n, stat) == row, (n, stat)


def test_da_distribution():
    # da = n - #peaks, so it inherits the Narayana distribution by symmetry
    assert distribution(3, "da") == {0: 1, 1: 3, 2: 1}


def test_joint_q_frozen():
    table = joint_q(3, "des", "maj")
    assert table == {
        0: QPoly((1,)),
        1: QPoly((0, 0, 1, 1, 1)),
        2: QPoly((0,) * 6 + (1,)),
    }


def test_joint_q_des_w():
    w0 = DyckPath("vhvvhvhh")
    table = joint_q(4, "des_w", "maj_w", wrt=w0)
    assert sum(sum(p.coeffs) for p in table.values()) == catalan(4)


def test_unrank_frozen():
    assert unrank(1, 0).word == "vh"
    assert unrank(3, 0).word == "vvvhhh"
    assert unrank(3, 4).word == "vhvhvh"


def test_unrank_errors():
    with pytest.raises(ValueError, match="index out of range"):
        unrank(3, 5)
    with pytest.raises(ValueError, match="index out of range"):
        unrank(3, -1)


def test_unrank_agrees_with_enumerate():
    for n in range(7):
        for i, w in enumerate(map(DyckPath, enumerate_paths(n))):
            assert unrank(n, i) == w
            assert rank(w) == i


def test_paths_from_every_constructor_are_one_value():
    # a path built by enumeration, by unranking or from an uppercase word
    # is one value and one dict key
    for n in range(7):
        for i, w in enumerate(map(DyckPath, enumerate_paths(n))):
            twins = (w, unrank(n, i), DyckPath(w.word.upper()))
            assert all(t == w for t in twins) and {hash(t) for t in twins} == {hash(w)}
            assert {t: i for t in twins} == {w: i}


def test_random_path_deterministic():
    assert random_path(6, 42) == random_path(6, 42)
    rng = random.Random(7)
    first = [random_path(5, rng) for _ in range(10)]
    rng = random.Random(7)
    assert [random_path(5, rng) for _ in range(10)] == first


@given(st.integers(min_value=0, max_value=8), st.integers(0, 10**9))
def test_random_path_is_valid(n, seed):
    w = random_path(n, seed)
    assert w.n == n
    DyckPath(w.word)
