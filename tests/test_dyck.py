import itertools
import types
from collections import Counter, defaultdict

import pytest
from hypothesis import given, strategies as st

from narayana.dyck import dyck_word, enumerate_paths, ls_set
from narayana.qpoly import QPoly, narayana
from narayana.stats import distribution
from oracles import (
    catalan,
    da,
    des,
    descent_set,
    descent_set_wrt,
    ea,
    high_peak_set,
    hp,
    joint_q,
    label_string,
    lnfs,
    ls_centers,
    maj,
    maj_l,
    maj_wrt,
    rank,
    rank_mask,
    walk_paths,
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


# a path drawn from the enumeration
small_paths = st.integers(min_value=0, max_value=7).flatmap(
    lambda n: st.sampled_from(list(enumerate_paths(n)))
)


def test_dyck_word_lowercases_strings_and_letter_iterables():
    for steps in ("vvhvhh", "VVHVHH", "vVhVhH", ["v", "v", "h", "v", "h", "h"], iter("vvhvhh")):
        w = dyck_word(steps)
        assert type(w) is str and w == "vvhvhh", steps


@pytest.mark.parametrize(
    "steps, message",
    [
        ("vxvh", "invalid character 'x' in path word"),
        ("vvh", "unbalanced word: needs equal numbers of v and h"),
        ("vvhh" + "vv", "unbalanced word: needs equal numbers of v and h"),
        ("vhhv", "prefix condition violated at position 3"),
        ("VHHV", "prefix condition violated at position 3"),
        ("h", "prefix condition violated at position 1"),
        ("v h", "invalid character ' ' in path word"),
    ],
    ids=["invalid", "short", "long", "prefix", "prefix-upper", "h-first", "space"],
)
def test_dyck_word_rejects_bad_words(steps, message):
    with pytest.raises(ValueError) as refused:
        dyck_word(steps)
    assert str(refused.value) == message


def test_empty_path():
    w = dyck_word("")
    assert w == ""
    assert list(enumerate_paths(0)) == [w]
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


def test_enumerate_matches_the_depth_first_walk():
    # level by level against the recursive walk, word for word in order; a
    # generator, whose items perfbench/tracing.py counts
    for n in range(11):
        paths = enumerate_paths(n)
        assert type(paths) is types.GeneratorType
        assert list(paths) == list(walk_paths(n)), n
    with pytest.raises(ValueError, match="negative semilength"):
        enumerate_paths(-1)


def test_ls_set_matches_the_factor_windows():
    # every center of a vvh or hhv window, found by str.find, against a
    # slice of every window
    for n in range(9):
        for word in enumerate_paths(n):
            assert ls_set(word) == rank_mask(ls_centers(word)), word
    assert ls_set("vvhhvvhh") == rank_mask({2, 4, 6}) == 0b1010100
    assert ls_centers("vvhhvvhh") == {2, 4, 6}


def test_enumerate_frozen():
    assert list(enumerate_paths(1)) == ["vh"]
    assert len(list(enumerate_paths(4))) == 14


def test_descent_set_frozen():
    assert descent_set("vh") == frozenset()
    assert descent_set("vvhvhh") == {3}
    assert descent_set("vhvhvh") == {2, 4}
    assert (des("vvvhhh"), maj("vvvhhh")) == (0, 0)
    assert (des("vvhhvh"), maj("vvhhvh")) == (1, 4)
    assert (des("vhvhvh"), maj("vhvhvh")) == (2, 6)


def test_high_peak_frozen():
    assert high_peak_set("vhvhvh") == frozenset()
    assert high_peak_set("vvvhhh") == {3}
    assert high_peak_set("vvhvhh") == {2, 4}
    assert hp("vvhvhh") == 2


@given(small_paths)
def test_high_peaks_match_geometric_oracle(word):
    hs = heights(word)
    expected = {
        i
        for i in range(1, len(word))
        if word[i - 1] == "v" and word[i] == "h" and hs[i] >= 2
    }
    assert high_peak_set(word) == expected


def test_ea_frozen():
    assert ea("vh") == 0
    assert ea("vvhvhh") == 2
    assert ea("vhvhvh") == 0


def test_ls_frozen():
    assert ls_set("vhvhvh") == rank_mask(()) == 0
    assert ls_set("vvvhhh") == rank_mask({3})
    assert ls_set("vvhhvh") == rank_mask({2, 4})
    assert ls_set("vvvhhhvh") == rank_mask({3, 6})
    assert (lnfs("vvhhvh"), maj_l("vvhhvh")) == (2, 6)


@given(small_paths)
def test_ls_members_in_range(word):
    # no bit outside the centers 2..2n-1, and every set bit a window's center
    s = ls_set(word)
    assert s & ~rank_mask(range(2, len(word))) == 0
    for i in range(2, len(word)):
        if s & rank_mask({i}):
            assert word[i - 2 : i + 1] in ("vvh", "hhv")


def test_da_frozen():
    assert da("vhvhvh") == 0
    assert da("vvvhhh") == 2
    assert da("vvhvhh") == 1


def test_labeling():
    assert label_string("vvhvhh") == "v1v2h1v3h2h3"
    assert label_string("vh") == "v1h1"
    assert label_string("vvhhvh") == "v1v2h1h2v3h3"


def test_descent_set_wrt_worked_example():
    # w = v1 h1 v2 v3 h2 h3 read against W = v1 v2 h1 v3 h2 h3
    assert descent_set_wrt("vhvvhh", "vvhvhh") == {2}


def test_descent_set_wrt_identity_and_classical():
    for w in enumerate_paths(4):
        assert descent_set_wrt(w, w) == frozenset()
    for n in range(6):
        staircase = "v" * n + "h" * n
        zigzag = "vh" * n
        for w in enumerate_paths(n):
            assert descent_set_wrt(w, staircase) == descent_set(w)
            assert descent_set_wrt(w, zigzag) == high_peak_set(w)


def test_descent_set_wrt_length_mismatch():
    with pytest.raises(ValueError, match="length mismatch"):
        descent_set_wrt("vh", "vvhh")
    with pytest.raises(ValueError, match="length mismatch"):
        maj_wrt("vvhh", "vh")


# Per-path oracle for the transfer matrix behind distribution and joint_coefficients:
# every accepted statistic name read off each enumerated path.  maj_w is
# maj read against the reference path W = (vh)^n, relabeling both paths.
PER_PATH = {
    "des": des,
    "maj": maj,
    "hp": hp,
    "ea": ea,
    "lnfs": lnfs,
    "maj_l": maj_l,
    "da": da,
    "maj_w": lambda w: maj_wrt(w, "vh" * (len(w) // 2)),
}
ACCEPTED = tuple(PER_PATH)


def oracle_distribution(n, name):
    return dict(sorted(Counter(map(PER_PATH[name], enumerate_paths(n))).items()))


def oracle_joint_q(n, name, coname):
    stat, costat = PER_PATH[name], PER_PATH[coname]
    raw = defaultdict(Counter)
    for w in enumerate_paths(n):
        raw[stat(w)][costat(w)] += 1
    return {k: QPoly([raw[k][d] for d in range(max(raw[k]) + 1)]) for k in sorted(raw)}


def test_distribution_matches_enumeration_oracle():
    for n in range(10):
        for name in ACCEPTED:
            expected = oracle_distribution(n, name)
            # same counts in the same key order
            assert list(distribution(n, name).items()) == list(expected.items()), (n, name)


def test_joint_q_matches_enumeration_oracle():
    for n in range(10):
        for name, coname in (("des", "maj"), ("lnfs", "maj_l"), ("hp", "maj_w"), ("ea", "maj")):
            expected = oracle_joint_q(n, name, coname)
            got = joint_q(n, name, coname)
            assert list(got.items()) == list(expected.items()), (n, name, coname)


def test_tables_keyed_by_a_major_index_match_enumeration_oracle():
    # a major index reaches about n^2, so its values key the most states
    # and, packed, make the longest ints
    for n in range(10):
        for name in ("maj", "maj_l", "maj_w"):
            expected = oracle_distribution(n, name)
            assert list(distribution(n, name).items()) == list(expected.items())
        for name, coname in (("maj", "des"), ("maj_l", "lnfs"), ("maj_w", "hp")):
            expected = oracle_joint_q(n, name, coname)
            got = joint_q(n, name, coname)
            assert list(got.items()) == list(expected.items()), (n, name, coname)


def test_every_table_counts_every_path_once():
    # a packed count that overflowed into the next digit would change the sum
    for n in range(13):
        for name in ACCEPTED:
            assert sum(distribution(n, name).values()) == catalan(n), (n, name)
        for name, coname in (("des", "maj"), ("lnfs", "maj_l"), ("hp", "maj_w"), ("maj", "des")):
            table = joint_q(n, name, coname)
            assert sum(sum(p.coeffs) for p in table.values()) == catalan(n), (n, name, coname)


def test_distribution_does_not_enumerate(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("per-path code called")

    # the per-path code left in the library; the per-path statistics live
    # in the oracles, which the library cannot call
    for name in ("enumerate_paths", "ls_set"):
        monkeypatch.setattr(f"narayana.dyck.{name}", forbidden)
    for name in ACCEPTED:
        assert sum(distribution(3, name).values()) == 5
    assert sum(sum(p.coeffs) for p in joint_q(3, "hp", "maj_w").values()) == 5


def test_distribution_errors():
    assert all(distribution(0, name) == {0: 1} for name in ACCEPTED)
    assert joint_q(0, "des", "maj") == {0: QPoly((1,))}
    with pytest.raises(ValueError, match="negative semilength"):
        distribution(-1, "des")
    with pytest.raises(ValueError, match="negative semilength"):
        joint_q(-2, "lnfs", "maj_l")


def test_distribution_frozen():
    assert distribution(3, "des") == {0: 1, 1: 3, 2: 1}
    assert distribution(3, "hp") == {0: 1, 1: 3, 2: 1}
    assert distribution(3, "maj_w") == {0: 1, 2: 1, 3: 1, 4: 1, 6: 1}


def test_distribution_unknown_statistic():
    with pytest.raises(ValueError, match="unknown statistic"):
        distribution(3, "peaks")
    with pytest.raises(ValueError, match="unknown statistic"):
        joint_q(3, "des", "charge")
    with pytest.raises(ValueError, match="unknown statistic"):
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


def test_rank_agrees_with_enumerate():
    # the enumeration's order is lexicographic, so its index is the rank
    for n in range(7):
        for i, w in enumerate(enumerate_paths(n)):
            assert rank(w) == i
