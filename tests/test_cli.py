import ast
import atexit
import contextlib
import csv
import hashlib
import importlib
import importlib.util
import io
import json
import os
import re
import subprocess
import sys
import threading
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import narayana
from narayana import __version__, cli, cli_common, cli_dist, cli_parse, posets, preshelling, shelling
from narayana import qpoly, stats, tableaux
from narayana.cli import build_parser, main
from narayana.qpoly import q_narayana_closed
from conftest import spawn
from oracles import catalan, ls_centers


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_narayana_text(capsys):
    code, out, _ = run(capsys, "narayana", "--n", "3")
    assert code == 0
    assert out == "1, 3, 1\nsum 5\n"


def test_narayana_n1(capsys):
    code, out, _ = run(capsys, "narayana", "--n", "1")
    assert code == 0
    assert out == "1\nsum 1\n"


def test_narayana_json_round_trips(capsys):
    code, out, _ = run(capsys, "narayana", "--n", "4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload == {"command": "narayana", "n": 4, "row": [1, 6, 6, 1], "sum": 14}
    assert json.dumps(payload, indent=2, sort_keys=True) + "\n" == out


def test_narayana_csv(capsys):
    code, out, _ = run(capsys, "narayana", "--n", "3", "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["k,narayana", "0,1", "1,3", "2,1", "sum,5"]


def test_narayana_range_errors(capsys):
    for bad in ("0", "61", "-2"):
        code, _, err = run(capsys, "narayana", "--n", bad)
        assert code == 2
        assert "out of range" in err


def test_narayana_closed_form_scales(capsys):
    # the sum is the row's, against a recurrence that does not use the row
    for n in range(1, narayana.CLOSED_FORM_LIMIT + 1):
        code, out, _ = run(capsys, "narayana", "--n", str(n), "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["row"]) == n
        assert sum(payload["row"]) == payload["sum"] == catalan(n), n


def test_qnarayana_default_route(capsys):
    code, out, _ = run(capsys, "qnarayana", "--n", "3", "--k", "1")
    assert code == 0
    assert out == "q^2 + q^3 + q^4\n"


def test_qnarayana_trivial_values(capsys):
    code, out, _ = run(capsys, "qnarayana", "--n", "5", "--k", "0")
    assert (code, out) == (0, "1\n")
    code, out, _ = run(capsys, "qnarayana", "--n", "3", "--k", "2")
    assert (code, out) == (0, "q^6\n")


def test_qnarayana_all_routes_agree(capsys):
    code, out, _ = run(capsys, "qnarayana", "--n", "3", "--k", "1", "--route", "all")
    assert code == 0
    assert out.endswith("verdict pass\n")
    assert out.count("q^2 + q^3 + q^4") == 4


def test_qnarayana_all_json(capsys):
    code, out, _ = run(
        capsys, "qnarayana", "--n", "4", "--k", "2", "--route", "all", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "pass"
    assert set(payload["routes"]) == {"closed", "enumerate", "schur-hook", "schur-ssyt"}
    expected = list(q_narayana_closed(4, 2).coeffs)
    assert all(coeffs == expected for coeffs in payload["routes"].values())


def test_qnarayana_large_n_skips_enumerative_routes(capsys):
    cases = {
        12: {"closed", "enumerate", "schur-hook", "schur-ssyt"},
        15: {"closed", "schur-hook"},
    }
    for n, names in cases.items():
        argv = ["qnarayana", "--n", str(n), "--k", "2", "--route", "all", "--format", "json"]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        payload = json.loads(out)
        assert set(payload["routes"]) == names
        assert payload["verdict"] == "pass"


def assert_limit(capsys, argv, limit):
    """argv with --n limit is served; with --n limit + 1 it is refused with
    exit 2, no stdout and one error line that names the limit."""
    assert run(capsys, *argv, "--n", str(limit))[0] == 0
    code, out, err = run(capsys, *argv, "--n", str(limit + 1))
    assert (code, out) == (2, "")
    assert err.startswith("narayana: error:") and err.count("\n") == 1
    assert f"n <= {limit}" in err


def test_qnarayana_enumerative_route_guard(capsys):
    enumerative = {
        route: limit
        for route, (_, _, limit) in narayana.ROUTES.items()
        if limit < narayana.CLOSED_FORM_LIMIT
    }
    assert enumerative
    for route, limit in enumerative.items():
        assert_limit(capsys, ["qnarayana", "--k", "1", "--route", route], limit)


def test_qnarayana_closed_form_routes_guard(capsys):
    closed = [
        route
        for route, (_, _, limit) in narayana.ROUTES.items()
        if limit == narayana.CLOSED_FORM_LIMIT
    ]
    assert closed
    for route in (*closed, "all"):
        argv = ["qnarayana", "--k", "1", "--route", route]
        assert_limit(capsys, argv, narayana.CLOSED_FORM_LIMIT)
    code, out, _ = run(capsys, "qnarayana", "--n", "60", "--k", "1", "--route", "closed")
    assert code == 0 and out.startswith("q^2 + ")


def test_qnarayana_huge_k_is_zero_on_every_route(capsys):
    code, out, _ = run(
        capsys, "qnarayana", "--n", "5", "--k", "1000000000000", "--route", "all"
    )
    assert code == 0
    assert out == "closed: 0\nenumerate: 0\nschur-hook: 0\nschur-ssyt: 0\nverdict pass\n"


def test_qnarayana_bad_arguments(capsys):
    assert run(capsys, "qnarayana", "--n", "0", "--k", "1")[0] == 2
    assert run(capsys, "qnarayana", "--n", "3", "--k", "-1")[0] == 2


def test_dist_text(capsys):
    code, out, _ = run(capsys, "dist", "--n", "3", "--stat", "lnfs")
    assert code == 0
    assert out == "0  1\n1  3\n2  1\n"


def test_dist_q_text(capsys):
    code, out, _ = run(capsys, "dist", "--n", "3", "--stat", "lnfs", "--q")
    assert code == 0
    assert out == "0  1\n1  q^2 + q^3 + q^4\n2  q^6\n"


def test_dist_n1(capsys):
    code, out, _ = run(capsys, "dist", "--n", "1", "--stat", "des")
    assert (code, out) == (0, "0  1\n")


def test_dist_json_table_pairs(capsys):
    code, out, _ = run(
        capsys, "dist", "--n", "3", "--stat", "lnfs", "--q", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["stat"] == "lnfs" and payload["costat"] == "maj_l"
    assert payload["table"] == [[0, [1]], [1, [0, 0, 1, 1, 1]], [2, [0, 0, 0, 0, 0, 0, 1]]]


def test_dist_q_matches_closed_form(capsys):
    for stat in ("des", "hp", "lnfs"):
        code, out, _ = run(
            capsys, "dist", "--n", "5", "--stat", stat, "--q", "--format", "json"
        )
        assert code == 0
        for k, coeffs in json.loads(out)["table"]:
            assert coeffs == list(q_narayana_closed(5, k).coeffs), (stat, k)


def test_dist_da_plain_is_narayana(capsys):
    code, out, _ = run(capsys, "dist", "--n", "4", "--stat", "da", "--format", "json")
    assert code == 0
    assert json.loads(out)["table"] == [[0, 1], [1, 6], [2, 6], [3, 1]]


def test_dist_q_rejected_without_costatistic(capsys):
    for stat in ("ea", "da"):
        code, _, err = run(capsys, "dist", "--n", "3", "--stat", stat, "--q")
        assert code == 2
        assert "no paired co-statistic" in err


def test_dist_csv(capsys):
    code, out, _ = run(capsys, "dist", "--n", "3", "--stat", "des", "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["value,count", "0,1", "1,3", "2,1"]
    code, out, _ = run(
        capsys, "dist", "--n", "3", "--stat", "des", "--q", "--format", "csv"
    )
    assert code == 0
    assert out.splitlines()[2] == '1,"[0,0,1,1,1]"'


def csv_rows(rows) -> str:
    """The bytes csv.writer writes for rows, as the csv format once did."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


def test_csv_rows_are_the_rows_of_csv_writer(capsys):
    # csv.writer quotes a compact coefficient array only when it holds a comma
    stats = build_parser()["dist"][2]["--stat"][0]
    paired = [stat for stat, costat in narayana.STATISTICS.items() if costat]
    kinds = [(stat, False) for stat in stats] + [(stat, True) for stat in paired]
    for n in range(1, 9):
        for stat, with_q in kinds:
            argv = ["dist", "--n", str(n), "--stat", stat] + ["--q"] * with_q
            table = json.loads(run(capsys, *argv, "--format", "json")[1])["table"]
            if with_q:
                table = [[k, json.dumps(entry, separators=(",", ":"))] for k, entry in table]
            header = ["value", "coefficients" if with_q else "count"]
            assert run(capsys, *argv, "--format", "csv") == (0, csv_rows([header, *table]), "")
    for n in range(1, 61):
        payload = json.loads(run(capsys, "narayana", "--n", str(n), "--format", "json")[1])
        rows = [["k", "narayana"], *enumerate(payload["row"]), ["sum", payload["sum"]]]
        assert run(capsys, "narayana", "--n", str(n), "--format", "csv") == (0, csv_rows(rows), "")


def test_dist_guard(capsys):
    assert run(capsys, "dist", "--n", "13", "--stat", "des")[0] == 2


def canonical(payload) -> str:
    """A cache file's text as the writer writes it."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def test_dist_cache_write_and_read(capsys, tmp_path):
    argv = ["dist", "--n", "4", "--stat", "des", "--cache-dir", str(tmp_path)]
    code, first, _ = run(capsys, *argv)
    assert code == 0
    cached = tmp_path / "dist-0.1.0-n4-des.json"
    assert cached.exists()
    assert json.loads(cached.read_text())["table"] == [[0, 1], [1, 6], [2, 6], [3, 1]]
    code, second, _ = run(capsys, *argv)
    assert code == 0 and second == first
    # a poisoned cache in the bytes the writer writes is believed, which
    # proves the read path is live
    payload = json.loads(cached.read_text())
    payload["table"] = [[0, 999]]
    cached.write_text(canonical(payload))
    code, third, _ = run(capsys, *argv)
    assert code == 0
    assert third == "0  999\n"


# strs with every kind of character json escapes: quotes, backslashes,
# control characters, DEL and non-ASCII text; and words, mostly ASCII
# letters and digits, which lists of them write in one join
JSON_STRS = st.text(st.sampled_from('ab -~"\\/\n\t\x00\x1f\x7fé€\u2028😀') | st.characters())
JSON_WORDS = st.text(st.sampled_from("vhVH09_ é\"\\"), max_size=3) | st.sampled_from(["vh", "A1"])
JSON_INTS = st.integers() | st.integers(min_value=2**64) | st.integers(max_value=-(2**64))
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | JSON_INTS | JSON_STRS | JSON_WORDS,
    lambda inner: (
        st.lists(inner, max_size=4)
        | st.lists(inner, max_size=4).map(tuple)
        | st.dictionaries(JSON_STRS, inner, max_size=4)
    ),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None)
@given(JSON_VALUES)
@example({"a": [[], {}, ()], "b": {"c": (1, [None])}})
@example([True, False, None, -(2**70), 2**64, 0])
@example([-(2**70), 2**64, 0])
@example(['"', "\\", "\x00\n", "\x7f", "é€😀", ""])
@example(["vh", "vvhh", "A1"])
@example([["vh", "vhvh"], ("vvhh", "vhvh")])
@example(["vh", 'v"h'])
@example(["vh", "v\\h"])
@example(["vh", "v h"])
@example(["vh", ""])
@example(["vh", "vé"])
@example(["vh", "²"])
@example(["vh", 1])
def test_json_writer_matches_json_dumps(value):
    assert cli_common.json_text(value) == json.dumps(value, indent=2, sort_keys=True)


def test_dist_cache_miss_writes_what_json_dump_writes_and_a_hit_reads_it(capsys, tmp_path):
    argv = ["dist", "--n", "4", "--stat", "hp", "--q", "--format", "json"]
    argv += ["--cache-dir", str(tmp_path)]
    code, first, _ = run(capsys, *argv)
    assert code == 0
    written = (tmp_path / "dist-0.1.0-n4-hp-q.json").read_text()
    payload = json.loads(written)
    assert written == json.dumps(payload, indent=2, sort_keys=True) + "\n" == first
    with mock.patch("narayana.cli_dist._dist_table", side_effect=AssertionError("recomputed")):
        assert run(capsys, *argv)[:2] == (0, first)


def test_dist_cache_of_another_request_is_recomputed(capsys, tmp_path):
    code, _, _ = run(capsys, "dist", "--n", "4", "--stat", "des", "--cache-dir", str(tmp_path))
    assert code == 0
    n5 = tmp_path / "dist-0.1.0-n5-des.json"
    n5.write_text((tmp_path / "dist-0.1.0-n4-des.json").read_text())
    argv = ["dist", "--n", "5", "--stat", "des", "--cache-dir", str(tmp_path)]
    code, out, _ = run(capsys, *argv)
    assert (code, out) == (0, "0  1\n1  10\n2  20\n3  10\n4  1\n")
    assert json.loads(n5.read_text())["n"] == 5
    # matching keys around a table that is not a list of [k, entry] pairs
    for table in ("junk", [[0, 1, 2]], [[0, [1]]], [["0", 1]]):
        payload = json.loads(n5.read_text())
        payload["table"] = table
        n5.write_text(canonical(payload))
        code, again, _ = run(capsys, *argv)
        assert (code, again) == (0, out)
        assert json.loads(n5.read_text())["table"] == [[0, 1], [1, 10], [2, 20], [3, 10], [4, 1]]


def test_dist_cache_in_other_bytes_is_recomputed_and_rewritten(capsys, tmp_path):
    argv = ["dist", "--n", "4", "--stat", "hp", "--q", "--cache-dir", str(tmp_path)]
    code, expected, _ = run(capsys, *argv)
    assert code == 0
    cached = tmp_path / "dist-0.1.0-n4-hp-q.json"
    written = cached.read_bytes()
    payload = json.loads(written)
    # the same payload, valid JSON each, but not the bytes the writer writes
    for text in (
        json.dumps(payload),
        json.dumps(payload, indent=2, sort_keys=True),
        canonical(payload).replace("\n", "\r\n"),
        canonical(payload) + "\n",
        canonical(payload).replace(" ", "\t"),
    ):
        cached.write_bytes(text.encode())
        with mock.patch("narayana.cli_dist._dist_table", wraps=cli_dist._dist_table) as compute:
            assert run(capsys, *argv) == (0, expected, "")
        assert compute.call_count == 1, text
        assert cached.read_bytes() == written


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no os.mkfifo")
def test_dist_cache_fifo_is_a_miss_and_replaced(tmp_path):
    cached = tmp_path / "dist-0.1.0-n4-des.json"
    argv = ["dist", "--n", "4", "--stat", "des", "--cache-dir", str(tmp_path)]
    expected = (0, "0  1\n1  6\n2  6\n3  1\n", "")
    # a FIFO with no writer must not block the reader, and one that holds a
    # table in the bytes the writer writes must not be believed
    poisoned = {"command": "dist", "costat": None, "n": 4, "q": False, "stat": "des"}
    for held in (None, canonical(dict(poisoned, table=[[0, 999]]))):
        os.mkfifo(cached)
        reader = os.open(cached, os.O_RDONLY | os.O_NONBLOCK)
        try:
            if held is not None:
                writer = os.open(cached, os.O_WRONLY)
                os.write(writer, held.encode())
                os.close(writer)
            result = spawn("-m", "narayana.cli", *argv, timeout=60)
        finally:
            os.close(reader)
        assert (result.returncode, result.stdout, result.stderr) == expected
        assert cached.is_file() and json.loads(cached.read_text())["table"][0] == [0, 1]
        cached.unlink()


def test_dist_cache_nested_too_deep_to_decode_is_recomputed(capsys, tmp_path):
    argv = ["dist", "--n", "4", "--stat", "des"]
    code, expected, _ = run(capsys, *argv)
    assert code == 0
    cached = tmp_path / "dist-0.1.0-n4-des.json"
    cached.write_text("[" * 200000 + "]" * 200000)
    code, out, err = run(capsys, *argv, "--cache-dir", str(tmp_path))
    assert (code, out, err) == (0, expected, "")
    assert json.loads(cached.read_text())["table"] == [[0, 1], [1, 6], [2, 6], [3, 1]]


def test_dist_cache_write_failure_is_a_warning(capsys, tmp_path, monkeypatch):
    argv = ["dist", "--n", "4", "--stat", "lnfs", "--q", "--format", "json"]
    code, expected, _ = run(capsys, *argv)
    assert code == 0

    def failing_replace(src, dst):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr("os.replace", failing_replace)
    cache = tmp_path / "cache"
    code, out, err = run(capsys, *argv, "--cache-dir", str(cache))
    assert (code, out) == (0, expected)
    assert err.startswith("narayana: warning:") and err.count("\n") == 1
    assert list(cache.iterdir()) == []


def test_dist_takes_no_cache_setting_from_the_environment(capsys, tmp_path, monkeypatch):
    # --cache-dir is the one cache setting: without it, or given as "", no
    # table is read or written, whatever the environment holds
    monkeypatch.setenv("NARAYANA_CACHE_DIR", str(tmp_path))
    for extra in ([], ["--cache-dir", ""]):
        got = run(capsys, "dist", "--n", "4", "--stat", "des", *extra)
        assert got == (0, "0  1\n1  6\n2  6\n3  1\n", "")
        assert list(tmp_path.iterdir()) == []


def test_dist_no_cache_by_default(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    # with no cache directory the cache is never read or written
    for name in ("_load_cached", "_store_cached"):
        monkeypatch.setattr(cli_dist, name, mock.Mock(side_effect=AssertionError(name)))
    for extra in ([], ["--q"]):
        code, out, err = run(capsys, "dist", "--n", "3", "--stat", "lnfs", *extra)
        assert (code, err) == (0, "") and out
    assert list(tmp_path.iterdir()) == []


def test_dist_cache_dir_that_is_a_file_is_a_usage_error(capsys, tmp_path):
    blocker = tmp_path / "not-a-dir"
    blocker.write_text("keep")
    for root in (blocker, blocker / "sub"):
        code, out, err = run(capsys, "dist", "--n", "3", "--stat", "des", "--cache-dir", str(root))
        assert (code, out) == (2, "")
        assert err.startswith("narayana: error:") and "Traceback" not in err
    assert blocker.read_text() == "keep"


def test_verify_main_theorem(capsys):
    code, out, err = run(
        capsys, "verify", "--check", "main-theorem", "--n", "3", "--ref-path", "vhvhvh"
    )
    assert code == 0
    assert "check main-theorem" in out
    assert "ref-path vhvhvh" in out
    assert "verdict pass" in out
    assert "elapsed" in err


def test_verify_reports_elapsed_for_every_format(capsys):
    for fmt in ("text", "json"):
        code, out, err = run(capsys, "verify", "--check", "ssyt", "--n", "3", "--format", fmt)
        assert code == 0 and "elapsed" not in out
        assert err.startswith("elapsed ") and err.endswith("s\n"), fmt


def test_verify_main_theorem_staircase(capsys):
    code, out, _ = run(
        capsys, "verify", "--check", "main-theorem", "--n", "2", "--ref-path", "vvhh"
    )
    assert code == 0 and "verdict pass" in out


def test_verify_main_theorem_default_ref(capsys):
    code, out, _ = run(
        capsys, "verify", "--check", "main-theorem", "--n", "4", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["parameters"] == {"n": 4, "ref_path": "vvvvhhhh"}
    assert payload["verdict"] == "pass" and payload["witnesses"] == []


def test_verify_main_theorem_random_is_deterministic(capsys):
    argv = [
        "verify", "--check", "main-theorem", "--n", "5",
        "--ref-path", "random", "--samples", "3", "--seed", "7",
    ]
    code, first, _ = run(capsys, *argv)
    assert code == 0
    code, second, _ = run(capsys, *argv)
    assert code == 0 and second == first
    assert "samples 3" in first and "seed 7" in first


# (n, seed, samples) -> the references that --ref-path random drew when it
# unranked a uniform index below Catalan(n), frozen
RANDOM_REFERENCES = {
    (2, 0, 3): ["vhvh", "vhvh", "vvhh"],
    (4, 7, 4): ["vvhvhvhh", "vvvhhvhh", "vvhvhhvh", "vhvvhvhh"],
    (5, 11, 6): ["vhvvvvhhhh", "vhvvhhvvhh", "vhvvvhvhhh", "vhvvvvhhhh", "vhvvhvvhhh",
                 "vhvhvvvhhh"],
    (6, -5, 5): ["vvhvhvvhhhvh", "vhvvvvhvhhhh", "vvvvhvhvhhhh", "vhvhvvvhvhhh",
                 "vvhvhvvhvhhh"],
}


def test_random_references_are_frozen(capsys, monkeypatch):
    # the draws that --ref-path random hands to the check, for each seed
    drawn = []
    monkeypatch.setattr(posets, "verify_theorem_main", lambda n, refs: drawn.append(refs) or [])
    for (n, seed, samples), refs in RANDOM_REFERENCES.items():
        argv = ["verify", "--check", "main-theorem", "--n", str(n), "--ref-path", "random",
                "--seed", str(seed), "--samples", str(samples)]
        assert run(capsys, *argv)[0] == 0
        assert drawn.pop() == refs, (n, seed, samples)


def test_verify_bad_ref_paths(capsys):
    # refused before the check runs: the one error line and no elapsed line
    base = ["verify", "--check", "main-theorem", "--n", "3", "--ref-path"]
    for ref, message in (
        ("vvhv", "bad ref-path: unbalanced word: needs equal numbers of v and h"),
        ("hhvv", "bad ref-path: prefix condition violated at position 1"),
        ("xxxxxx", "bad ref-path: invalid character 'x' in path word"),
        ("vvhh", "ref-path has semilength 2, expected 3"),
    ):
        code, out, err = run(capsys, *base, ref)
        assert (code, out, err) == (2, "", f"narayana: error: {message}\n"), ref


def test_verify_ref_path_is_echoed_lowercase(capsys):
    argv = ["verify", "--check", "main-theorem", "--n", "3", "--ref-path", "VVVHHH"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == "check main-theorem\nn 3\nref-path vvvhhh\nverdict pass\n"
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    assert json.loads(out)["parameters"] == {"n": 3, "ref_path": "vvvhhh"}
    assert '"ref_path": "vvvhhh"' in out


def swap_first_block(word: str) -> str:
    """The word with its first v run and the h run after it swapped: a
    word that starts with h, which is no Dyck word."""
    rise = word.index("h")
    fall = len(word) - rise - len(word[rise:].lstrip("h"))
    return word[rise : rise + fall] + word[:rise] + word[rise + fall :]


def test_verify_ssyt_names_a_faulty_image(capsys, monkeypatch):
    # a fault in ssyt_to_dyck is a witness of the check, not a crash
    real = tableaux.ssyt_to_dyck
    monkeypatch.setattr(tableaux, "ssyt_to_dyck", lambda rows, n: swap_first_block(real(rows, n)))
    witnesses = tableaux.verify_ssyt(4)
    assert witnesses[0] == {"path": "hhhhvvvv", "tableau": []}
    assert len(witnesses) == 14  # Catalan(4): every tableau, and no rank set
    assert all(set(w) == {"path", "tableau"} and w["path"][0] == "h" for w in witnesses)
    code, out, err = run(capsys, "verify", "--check", "ssyt", "--n", "4")
    assert code == 1
    assert out.splitlines()[:3] == ["check ssyt", "n 4", "verdict fail"]
    assert 'witness {"path": "hhhhvvvv", "tableau": []}' in out.splitlines()
    assert "Traceback" not in err and err.startswith("elapsed ")


def test_verify_guards(capsys):
    for check, (_, _, limit) in cli_common.VERIFY_CHECKS.items():
        assert_limit(capsys, ["verify", "--check", check], limit)


def test_verify_ref_path_is_main_theorem_only(capsys):
    # refused before the check runs: one error line and no elapsed line
    for check in ("ssyt", "preshelling", "q-identity", "parth"):
        for ref in ("vhvhvh", "random", "nonsense"):
            code, out, err = run(capsys, "verify", "--check", check, "--n", "3", "--ref-path", ref)
            assert (code, out) == (2, "")
            message = f"--ref-path applies to check main-theorem only, not {check}"
            assert err == f"narayana: error: {message}\n"


def test_verify_samples_bound(capsys):
    base = ["verify", "--check", "main-theorem", "--n", "3", "--ref-path", "random"]
    for bad in ("0", "201"):
        code, out, err = run(capsys, *base, "--samples", bad)
        assert (code, out) == (2, "")
        assert err.startswith("narayana: error:") and "Traceback" not in err
    code, out, _ = run(capsys, *base, "--samples", "200")
    assert code == 0 and "samples 200" in out and "verdict pass" in out


# a mark of stats._MARKS broken so that its statistic's distribution or,
# for lnfs, its joint table with maj_l leaves the Narayana numbers
BROKEN_MARKS = {
    "des": lambda i, h, a, b, c: b == "v" and c == "h",
    "hp": lambda i, h, a, b, c: b == "v" and c == "h" and h >= 2,
    "lnfs": lambda i, h, a, b, c: (a, b, c) == ("v", "v", "h"),
    "ea": lambda i, h, a, b, c: b == "v" and i % 2 == 1,
    "da": lambda i, h, a, b, c: b == "v" and c == "h",
}


@pytest.mark.parametrize("stat", list(BROKEN_MARKS))
def test_q_identity_fails_on_a_broken_mark(stat, capsys, monkeypatch):
    monkeypatch.setitem(stats._MARKS, stat, BROKEN_MARKS[stat])
    code, out, _ = run(capsys, "verify", "--check", "q-identity", "--n", "5", "--format", "json")
    assert code == 1
    witnesses = json.loads(out)["witnesses"]
    assert witnesses
    # each witness names the statistic that disagrees, and only that one
    for witness in witnesses:
        routes, counts = witness["routes"], witness["counts"]
        wrong = {name for name, p in routes.items() if p != routes["closed"]}
        wrong |= {name for name, count in counts.items() if count != counts["narayana"]}
        assert wrong == {stat}, witness


def test_q_identity_failing_witness_is_frozen(capsys, monkeypatch):
    # hp's mark broken as above: the witness bytes are frozen, so the way the
    # check compares and writes the routes' coefficient lists cannot move them
    monkeypatch.setitem(stats._MARKS, "hp", BROKEN_MARKS["hp"])
    code, out, _ = run(capsys, "verify", "--check", "q-identity", "--n", "5", "--format", "json")
    assert code == 1
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "f2c07df8b37b1d5ff6b33f50acfd84ca864c63acde7b5700b95a497829ce3ee2"


def test_verify_remaining_checks_pass(capsys):
    for check, n in (("ssyt", "5"), ("preshelling", "5"), ("q-identity", "6"), ("parth", "5")):
        code, out, _ = run(capsys, "verify", "--check", check, "--n", n, "--format", "json")
        assert code == 0, check
        payload = json.loads(out)
        assert payload["verdict"] == "pass" and payload["witnesses"] == []


def test_omega_dot(capsys):
    code, out, _ = run(capsys, "omega", "--n", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "digraph omega_3 {"
    assert '  "vhvhvh" [label="vhvhvh\\nLS {}"];' in lines
    assert '  "vvhhvh" [label="vvhhvh\\nLS {2, 4}"];' in lines
    assert '  "vhvhvh" -> "vhvvhh";' in lines
    assert sum("->" in line for line in lines) == 4


def test_omega_n1(capsys):
    code, out, _ = run(capsys, "omega", "--n", "1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["nodes"] == [{"ls": [], "word": "vh"}]
    assert payload["edges"] == []


def test_omega_json_n4(capsys):
    code, out, _ = run(capsys, "omega", "--n", "4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["nodes"]) == 14
    assert ["vhvhvhvh", "vhvhvvhh"] in payload["edges"]
    targets = {b for _, b in payload["edges"]}
    minimal = [node["word"] for node in payload["nodes"] if node["word"] not in targets]
    assert minimal == ["vhvhvhvh"]


def test_omega_json_is_the_bytes_of_json_dumps(capsys):
    # the handler writes the nodes and edges by their fixed shape
    for n in range(1, cli_common.OMEGA_GUARD + 1):
        words = shelling._words(n)
        payload = {
            "command": "omega",
            "edges": [[words[a], words[b]] for a, b in shelling.omega_n(n).covers()],
            "n": n,
            "nodes": [{"ls": sorted(ls_centers(w)), "word": w} for w in words],
        }
        expected = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        assert run(capsys, "omega", "--n", str(n), "--format", "json")[:2] == (0, expected), n


def test_omega_builds_no_facet_masks(capsys, monkeypatch):
    # omega reads the order's covers alone and never calls dyck_complex,
    # which only parth and preshelling call
    built = []
    monkeypatch.setattr(shelling, "dyck_complex", built.append)
    shelling.omega_n.cache_clear()
    try:
        for fmt in ("dot", "json"):
            assert run(capsys, "omega", "--n", "8", "--format", fmt)[0] == 0
        assert built == []
    finally:
        shelling.omega_n.cache_clear()


class CountedWrites(io.StringIO):
    """A stdout that counts its write calls."""

    writes = 0

    def write(self, text: str) -> int:
        self.writes += 1
        return super().write(text)


@pytest.mark.parametrize("fmt", ["dot", "json"])
def test_omega_writes_its_stdout_in_one_call(fmt, capsys):
    # with PYTHONUNBUFFERED set each write is a system call of its own
    argv = ["omega", "--n", "8", "--format", fmt]
    expected = run(capsys, *argv)[1]
    stdout = CountedWrites()
    with contextlib.redirect_stdout(stdout):
        assert main(argv) == 0
    assert (stdout.writes, stdout.getvalue()) == (1, expected)
    assert expected.count("\n") > 5000


def test_omega_guard(capsys):
    assert run(capsys, "omega", "--n", "9")[0] == 2


def test_bad_choices_exit_2(capsys):
    for argv in (
        ["omega", "--n", "3", "--format", "svg"],
        ["dist", "--n", "3", "--stat", "peaks"],
        ["nonsense"],
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("narayana: error: ") and err.count("\n") == 1


def test_help_and_version_to_a_working_stdout_exit_0(capsys):
    for argv, start in (
        (["--help"], "usage: narayana [-h]"),
        (["--version"], f"narayana {__version__}\n"),
        (["dist", "--help"], "usage: narayana dist [-h]"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 0
        assert out.startswith(start) and err == ""


def test_help_lists_every_command_and_option_of_the_table(capsys):
    commands = build_parser()
    _, out, _ = run(capsys, "--help")
    listed = [line.split()[0] for line in out.split("commands:\n")[1].split("\n\n")[0].splitlines()]
    assert listed == list(commands)
    for command, (summary, _, options) in commands.items():
        _, out, _ = run(capsys, command, "--help")
        usage, title = out.split("\n\n")[:2]
        assert usage.startswith(f"usage: narayana {command} [-h] ")
        assert title == summary
        for name, (_, _, required, text) in options.items():
            assert name in [word.strip("[]") for word in usage.split()]
            assert (f"[{name}" in usage) == (not required), name
            assert text in out


def test_command_help_is_frozen(capsys):
    assert run(capsys, "omega", "--help") == (
        0,
        "usage: narayana omega [-h] --n N [--format {dot,json}]\n"
        "\n"
        "Hasse diagram of the rewriting order on paths\n"
        "\n"
        "options:\n"
        "  -h, --help           show this help and exit\n"
        "  --n N                semilength, 1 <= n <= 8\n"
        "  --format {dot,json}  output format (default dot)\n",
        "",
    )


# one argv per way the parser refuses a command line
PARSE_REFUSALS = {
    "missing command": [],
    "missing option": ["dist", "--n", "3"],
    "missing value": ["dist", "--stat", "des", "--n"],
    "option as value": ["dist", "--n", "--stat", "des"],
    "extra argument": ["narayana", "--n", "3", "extra"],
    "extra after --": ["narayana", "--n", "3", "--", "--format", "json"],
    "unknown command": ["nonsense", "--n", "3"],
    "unknown option": ["narayana", "--n", "3", "--bogus"],
    "unknown top-level option": ["--bogus", "narayana", "--n", "3"],
    "ambiguous option": ["verify", "--check", "ssyt", "--n", "3", "--s", "2"],
    "ambiguous after --help": ["verify", "--help", "--s", "2"],
    "bad int": ["narayana", "--n", "three"],
    "bad int after =": ["narayana", "--n="],
    "bad choice": ["narayana", "--n", "3", "--format", "xml"],
    "value to a flag": ["dist", "--n", "3", "--stat", "des", "--q=yes"],
    "value to --help": ["dist", "--help=yes"],
    "value to --version": ["--version=yes"],
}


@pytest.mark.parametrize("argv", PARSE_REFUSALS.values(), ids=PARSE_REFUSALS)
def test_parser_refusals_exit_2_with_one_error_line(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("narayana: error: ") and err.count("\n") == 1
    assert "Traceback" not in err


# argv in an accepted form -> the same request in full form
ACCEPTED_FORMS = [
    (["narayana", "--n=5"], ["narayana", "--n", "5"]),
    (["narayana", "--n", "5", "--form", "json"], ["narayana", "--n", "5", "--format", "json"]),
    (["narayana", "--n", "5", "--f=csv"], ["narayana", "--n", "5", "--format", "csv"]),
    (
        ["qnarayana", "--route", "all", "--k", "1", "--n", "4"],
        ["qnarayana", "--n", "4", "--k", "1", "--route", "all"],
    ),
    (["dist", "--q", "--stat=hp", "--n", "4"], ["dist", "--n", "4", "--stat", "hp", "--q"]),
    (
        ["verify", "--n", "3", "--check", "main-theorem", "--se", "2", "--sa=3", "--ref", "random"],
        ["verify", "--check", "main-theorem", "--n", "3", "--ref-path", "random",
         "--seed", "2", "--samples", "3"],
    ),
    (["narayana", "--n", "3", "--n", "5"], ["narayana", "--n", "5"]),  # the last one counts
    (["dist", "-h"], ["dist", "--help"]),
    (["dist", "--n", "3", "--he"], ["dist", "--help"]),
    (["--bogus", "-h"], ["--help"]),  # --help answers before unknown words are refused
    (["--ver"], ["--version"]),
]


@pytest.mark.parametrize("form, full", ACCEPTED_FORMS, ids=[" ".join(f) for f, _ in ACCEPTED_FORMS])
def test_accepted_forms_serve_the_full_request(capsys, form, full):
    # stdout only: verify's stderr holds its wall-clock time
    code, out, _ = run(capsys, *form)
    assert (code, out) == run(capsys, *full)[:2]
    assert code == 0 and out


def _words(commands: dict) -> st.SearchStrategy:
    """A word of an argv: a command, an option of the table in full, as a
    prefix or with "=", --, -h, --help, --version, a value of one of its
    choices, a number, negative ones too, or a bad value."""
    names = sorted({name for _, _, options in commands.values() for name in options})
    choices = sorted({c for _, _, opts in commands.values() for k, *_ in opts.values()
                      if isinstance(k, tuple) for c in k})
    name = st.sampled_from(names)
    return st.one_of(
        st.sampled_from([*commands, "--", "-h", "--help", "--version", "--ver", "-", "", "x"]),
        name,
        name,
        st.builds(lambda n, cut: n[: max(2, len(n) - cut)], name, st.integers(1, 8)),
        st.builds(lambda n, v: f"{n}={v}", name, st.sampled_from(["3", "json", "-1", ""])),
        st.sampled_from(choices),
        st.integers(-3, 9).map(str),
        st.sampled_from(["-1", "-0.5", " 3", "3 ", "+4", "1_0", "three", "٣", "json "]),
        st.text("vh-= ", max_size=4),
    )


@st.composite
def argvs(draw) -> list[str]:
    """Most often a full-form argv: a command, its required options and
    some others in any order, each with one of its choices or a number;
    then a value, or up to two words, drawn from _words."""
    commands = build_parser()
    command = draw(st.sampled_from(list(commands)))
    options = commands[command][2]
    words = _words(commands)
    names = [name for name, spec in options.items() if spec[2] and draw(st.integers(0, 7))]
    names += draw(st.lists(st.sampled_from(list(options)), max_size=4))
    argv = [command]
    for name in draw(st.permutations(names)):
        argv.append(name)
        kind = options[name][0]
        if kind is not bool:
            values = kind if isinstance(kind, tuple) else ("3", "0", "12")
            argv.append(draw(st.sampled_from(values) if draw(st.integers(0, 7)) else words))
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        at = draw(st.integers(0, len(argv)))
        argv[at : at + draw(st.integers(0, 1))] = [draw(words)]
    return argv


@settings(max_examples=500, deadline=None)
@given(argvs())
@example(["dist", "--n", "4", "--stat", "hp", "--q", "--format", "csv", "--cache-dir", "d"])
@example(["verify", "--check", "main-theorem", "--n", "3", "--ref-path", "random",
          "--seed", "2", "--samples", "3", "--format", "json"])
@example(["narayana", "--n", "3", "--n", "5"])
@example(["dist", "--n", "4", "--stat", "des", "--cache-dir", "--q"])
@example(["dist", "--stat", "des", "--q"])
@example(["qnarayana", "--n", "4", "--k", "0", "--route", "all"])
def test_the_full_form_reader_agrees_with_the_general_reader(argv):
    # the full-form reader serves an argv only as the general one does, and
    # the general reader serves every full-form argv
    commands = build_parser()
    request = cli._full_form(commands, argv)
    if request is not None:
        assert cli_parse.parse(commands, argv) == request


def test_a_negative_value_reaches_the_handler(capsys):

    # "-1" is a value, not an option, so the handler refuses it
    for argv, message in (
        (["qnarayana", "--n", "3", "--k", "-1"], "k must be nonnegative, got -1"),
        (["narayana", "--n", "-2"], "n out of range: expected 1 <= n <= 60, got -2"),
    ):
        assert run(capsys, *argv) == (2, "", f"narayana: error: {message}\n")


# subcommand ("" for the top level) -> option -> (choices, default, required);
# a knob added, removed or changed must show up here as a reviewed diff
OPTION_SURFACE = {
    "": {"--version": (None, None, False)},
    "narayana": {
        "--n": (None, None, True),
        "--format": (("text", "json", "csv"), "text", False),
    },
    "qnarayana": {
        "--n": (None, None, True),
        "--k": (None, None, True),
        "--route": (("closed", "schur-ssyt", "schur-hook", "enumerate", "all"), "closed", False),
        "--format": (("text", "json"), "text", False),
    },
    "dist": {
        "--n": (None, None, True),
        "--stat": (("des", "hp", "ea", "lnfs", "da"), None, True),
        "--q": (None, False, False),
        "--format": (("text", "json", "csv"), "text", False),
        "--cache-dir": (None, None, False),
    },
    "verify": {
        "--check": (("main-theorem", "ssyt", "preshelling", "q-identity", "parth"), None, True),
        "--n": (None, None, True),
        "--ref-path": (None, None, False),
        "--seed": (None, 0, False),
        "--samples": (None, 1, False),
        "--format": (("text", "json"), "text", False),
    },
    "omega": {
        "--n": (None, None, True),
        "--format": (("dot", "json"), "dot", False),
    },
}


def test_option_surface_is_frozen(capsys):
    # the top level takes --help and --version, each command the options of
    # its row of the table
    surface = {"": {"--version": (None, None, False)}}
    assert run(capsys, "--version")[:2] == (0, f"narayana {__version__}\n")
    for command, (_, _, options) in build_parser().items():
        surface[command] = {
            name: (kind if isinstance(kind, tuple) else None, default, required)
            for name, (kind, default, required, _) in options.items()
        }
    assert surface == OPTION_SURFACE
    assert list(surface) == list(OPTION_SURFACE)


def test_cli_copies_agree_with_the_library():
    # the parser and the handlers name routes and checks without importing
    # the library
    routes = {
        name: getattr(importlib.import_module(f"narayana.{module}"), function)
        for name, (module, function, _) in narayana.ROUTES.items()
    }
    assert routes == {
        "closed": qpoly.q_narayana_closed,
        "schur-ssyt": tableaux.q_narayana_ssyt,
        "schur-hook": qpoly.q_narayana_hook,
        "enumerate": stats.q_narayana_enumerate,
    }
    checks = {
        name: getattr(importlib.import_module(f"narayana.{module}"), function)
        for name, (module, function, _) in cli_common.VERIFY_CHECKS.items()
    }
    assert checks == {
        "main-theorem": posets.verify_theorem_main,
        "ssyt": tableaux.verify_ssyt,
        "preshelling": preshelling.verify_preshelling,
        "q-identity": tableaux.verify_q_identity,
        "parth": shelling.verify_parth,
    }
    # each command's handler is a (module, function) of the package
    for command, (_, (module, function), _) in build_parser().items():
        assert callable(getattr(importlib.import_module(f"narayana.{module}"), function)), command


# every request loads the parser and the helpers it shares with the handlers
PARSER_MODULES = ["cli", "cli_common"]
# and an argv not in full form the general reader too
GENERAL_MODULES = sorted([*PARSER_MODULES, "cli_parse"])


def loads(handler: str, *library: str) -> list[str]:
    """The narayana modules of a request: the parser, the module of its
    command's handler and the library modules that handler calls."""
    return sorted([*PARSER_MODULES, handler, *library])


TABLEAUX_MODULES = ["qpoly", "stats", "tableaux"]
# the library modules each qnarayana route loads: both closed routes need
# qpoly alone, the sum over paths the transfer matrices of stats too, and
# the tableau sum tableaux as well, for its fillings; no route loads dyck
ROUTE_MODULES = {
    "closed": ["qpoly"],
    "schur-ssyt": TABLEAUX_MODULES,
    "schur-hook": ["qpoly"],
    "enumerate": ["qpoly", "stats"],
    "all": TABLEAUX_MODULES,
}
SHELLING_MODULES = ["dyck", "shelling"]
# each request of README's start-up table, which tests/test_readme.py
# checks against these rows: (argv, whether the dist cache is warmed
# first, the narayana modules it loads)
STARTUP_ROWS = [
    ([], False, PARSER_MODULES),
    # the general reader writes --help itself
    (["--help"], False, GENERAL_MODULES),
    (["dist", "--help"], False, GENERAL_MODULES),
    (["--version"], False, GENERAL_MODULES),
    # an abbreviated option, and a refused argv, take the general reader
    (["dist", "--n", "4", "--st", "da"], False, sorted([*loads("cli_dist", "stats"), "cli_parse"])),
    (["dist", "--n", "4"], False, GENERAL_MODULES),
    (["dist", "--n", "4", "--stat", "des", "--format", "json"], True, loads("cli_dist")),
    (["dist", "--n", "4", "--stat", "hp", "--q"], True, loads("cli_dist", "qpoly")),
    # no statistic reads a path, so dist loads no dyck
    (
        ["dist", "--n", "4", "--stat", "hp", "--q", "--format", "csv"],
        False,
        loads("cli_dist", "stats"),
    ),
    (["dist", "--n", "4", "--stat", "da"], False, loads("cli_dist", "stats")),
    (["narayana", "--n", "5", "--format", "csv"], False, loads("cli_polys", "qpoly")),
    *(
        (
            ["qnarayana", "--n", "4", "--k", "1", "--route", route],
            False,
            loads("cli_polys", *ROUTE_MODULES[route]),
        )
        for route in (*narayana.ROUTES, "all")
    ),
    (
        ["verify", "--check", "main-theorem", "--n", "3", "--ref-path", "random", "--samples", "2"],
        False,
        loads("cli_verify", "dyck", "posets"),
    ),
    (
        ["verify", "--check", "main-theorem", "--n", "3"],
        False,
        loads("cli_verify", "dyck", "posets"),
    ),
    # tableaux imports qpoly only for the q-Narayana routes
    (["verify", "--check", "ssyt", "--n", "3"], False, loads("cli_verify", "dyck", "posets", "tableaux")),
    (
        ["verify", "--check", "q-identity", "--n", "3"],
        False,
        loads("cli_verify", *TABLEAUX_MODULES),
    ),
    (
        ["verify", "--check", "preshelling", "--n", "3"],
        False,
        loads("cli_verify", *SHELLING_MODULES, "preshelling"),
    ),
    # parth and omega load no pre-shelling code, and no check but
    # q-identity the transfer matrices of stats
    (
        ["verify", "--check", "parth", "--n", "3"],
        False,
        loads("cli_verify", *SHELLING_MODULES, "posets"),
    ),
    (["omega", "--n", "3", "--format", "json"], False, loads("cli_omega", *SHELLING_MODULES)),
    # refused by the handler's copy of the guard, before the library loads
    (["omega", "--n", "9"], False, loads("cli_omega")),
]


# serve argv as `python -m narayana.cli` does, or with no argv run the
# module as an import does; an exit handler registered first prints
# sys.modules to stderr after all of stdout, so the report also shows that
# the process exit runs the exit handlers
PROBE = """
import atexit, runpy, sys
atexit.register(lambda: print(sorted(sys.modules), file=sys.stderr))
runpy.run_module("narayana.cli", run_name="__main__" if sys.argv[1:] else "cli", alter_sys=True)
"""


@pytest.fixture(scope="session")
def bare_modules() -> set:
    """The modules of a fresh interpreter without site that has imported
    what PROBE imports."""
    result = spawn("-c", "import atexit, runpy, sys; print(sorted(sys.modules))", flags=("-S",))
    return set(ast.literal_eval(result.stdout))


@pytest.fixture(scope="session")
def serve(tmp_path_factory, bare_modules):
    """serve(argv, warm) runs PROBE on argv in a fresh interpreter without
    site, so that no site hook loads a module itself, and returns the
    modules the request added to bare_modules.  CACHE in argv stands for a
    fresh cache directory, which warm fills in-process first.  Each request
    is spawned once a session, and each run is checked for what holds of
    every request:
    - its exit code and stdout are main's in-process;
    - the cache directory holds one table if argv names it, else none;
    - cli is compiled once, as __main__: no module imports narayana.cli;
    - it loads no json, csv, typing or __future__, and argparse, gettext
      and locale only with the general reader."""
    served = {}

    def serve(argv: list[str], warm: bool = False) -> set:
        key = (tuple(argv), warm)
        if key not in served:
            cache = tmp_path_factory.mktemp("cache")
            words = [str(cache) if word == "CACHE" else word for word in argv]
            if warm:
                assert run_in_process(words)[0] == 0
            result = spawn("-c", PROBE, *words, flags=("-S",))
            expected = run_in_process(words) if words else (0, "")
            assert (result.returncode, result.stdout) == expected, result.stderr
            added = set(ast.literal_eval(result.stderr.splitlines()[-1])) - bare_modules
            assert len(list(cache.iterdir())) == ("CACHE" in argv)
            assert "narayana.cli" not in added
            forbidden = {"json", "csv", "typing", "__future__"}
            if "narayana.cli_parse" not in added:
                forbidden |= {"argparse", "gettext", "locale"}
            assert sorted(added & forbidden) == []
            served[key] = added
        return served[key]

    return serve


@pytest.mark.parametrize(
    "argv, warm, modules", STARTUP_ROWS, ids=[" ".join(row[0]) or "parser" for row in STARTUP_ROWS]
)
def test_each_request_loads_only_the_modules_it_calls(argv, warm, modules, serve):
    added = serve([*argv, "--cache-dir", "CACHE"] if warm else argv, warm)
    narayana_modules = [m[len("narayana."):] for m in added if m.startswith("narayana.")]
    assert sorted(["cli", *narayana_modules]) == modules


# argv (CACHE stands for a fresh cache directory) and whether the cache is
# warmed first: a cache hit reads its file without json too
JSON_ROWS = [
    (["narayana", "--n", "5"], False),
    (["qnarayana", "--n", "20", "--k", "2"], False),
    (["narayana", "--n", "5", "--format", "json"], False),
    (["qnarayana", "--n", "20", "--k", "2", "--format", "json"], False),
    (["qnarayana", "--n", "5", "--k", "2", "--route", "all", "--format", "json"], False),
    (["dist", "--n", "4", "--stat", "hp", "--q", "--format", "json"], False),
    (["dist", "--n", "4", "--stat", "hp", "--q", "--format", "csv"], False),
    (["verify", "--check", "ssyt", "--n", "3"], False),
    (["verify", "--check", "ssyt", "--n", "3", "--format", "json"], False),
    (["omega", "--n", "3", "--format", "json"], False),
    (["dist", "--n", "4", "--stat", "des", "--cache-dir", "CACHE"], False),
    (["dist", "--n", "4", "--stat", "des", "--cache-dir", "CACHE"], True),
    (["dist", "--n", "4", "--stat", "hp", "--q", "--format", "json", "--cache-dir", "CACHE"], True),
    (["dist", "--n", "4", "--stat", "lnfs", "--q", "--format", "csv", "--cache-dir", "CACHE"], True),
]


@pytest.mark.parametrize(
    "argv, warm", JSON_ROWS, ids=[" ".join(argv) + (" (hit)" if warm else "") for argv, warm in JSON_ROWS]
)
def test_requests_load_no_parser_locale_or_json_module(argv, warm, serve):
    added = serve(argv, warm)
    assert sorted(added & {"argparse", "gettext", "json", "locale"}) == []
    if warm:
        assert "narayana.stats" not in added  # a hit computes no table


# one request per command, route and check, and a cache miss and hit
SITELESS_REQUESTS = [
    ["--help"],
    ["narayana", "--n", "5", "--format", "csv"],
    *(["qnarayana", "--n", "4", "--k", "1", "--route", route] for route in ROUTE_MODULES),
    ["dist", "--n", "4", "--stat", "hp", "--q", "--cache-dir", "CACHE"],
    ["dist", "--n", "4", "--stat", "hp", "--q", "--cache-dir", "CACHE"],
    *(["verify", "--check", check, "--n", "3"] for check in cli_common.VERIFY_CHECKS),
    ["omega", "--n", "3"],
]


def test_no_request_loads_typing_or_future_without_site(bare_modules, serve):
    # with python -S no site hook preloads typing, so serve's check that a
    # request adds neither it nor __future__ can fail
    assert not {"typing", "__future__"} & bare_modules
    for i, argv in enumerate(SITELESS_REQUESTS):
        serve(argv, argv in SITELESS_REQUESTS[:i])


@pytest.mark.parametrize(
    "argv",
    [
        ["--help"],
        ["narayana", "--n", "5", "--format", "json"],
        ["qnarayana", "--n", "6", "--k", "2", "--route", "all"],
        ["dist", "--n", "4", "--stat", "hp", "--q", "--format", "csv"],
        ["verify", "--check", "ssyt", "--n", "3"],
        ["omega", "--n", "3"],
        ["omega", "--n", "9"],
    ],
    ids=" ".join,
)
def test_cli_compiles_once_per_request(argv, serve):
    # run as __main__, cli is compiled once; serve fails a run in which a
    # module imported narayana.cli, which would compile it a second time
    serve(argv)


# serve argv as python -m narayana.cli does, with an exit handler registered
# first that prints one line to stdout; "disagree" before argv puts the
# schur-hook route one descent off, so that --route all fails with exit 1
EXIT_PROBE = """
import atexit, runpy, sys
if sys.argv[1] == "disagree":
    from narayana import qpoly
    qpoly.q_narayana_hook = lambda n, k: qpoly.q_narayana_closed(n, k + 1)
    del sys.argv[1]
atexit.register(print, "exit handler")
runpy.run_module("narayana.cli", run_name="__main__", alter_sys=True)
"""


# argv and main's exit code: success, a failed verdict, a refusal, --help,
# and one write of a whole diagram
EXIT_ROWS = [
    (["narayana", "--n", "5"], 0),
    (["disagree", "qnarayana", "--n", "4", "--k", "1", "--route", "all"], 1),
    (["narayana", "--n", "0"], 2),
    (["--help"], 0),
    (["omega", "--n", "8"], 0),
]


@pytest.mark.parametrize("argv, code", EXIT_ROWS, ids=[" ".join(row[0]) for row in EXIT_ROWS])
def test_the_process_exits_with_mains_code_after_the_exit_handlers(argv, code):
    # the handler runs once, after all of stdout, and the exit code is main's
    with mock.patch.object(qpoly, "q_narayana_hook", lambda n, k: q_narayana_closed(n, k + 1)):
        expected = run_in_process([word for word in argv if word != "disagree"])
    assert expected[0] == code
    # buffered, so that the handler's line is written by run()'s own flush
    result = spawn("-c", EXIT_PROBE, *argv, env={"PYTHONUNBUFFERED": None})
    got = (result.returncode, result.stdout)
    assert got == (code, expected[1] + "exit handler\n"), result.stderr


def test_main_in_process_neither_exits_nor_runs_exit_handlers():
    # tests, perfbench/tracing.py and library callers serve requests in-process;
    # the tests' conftest makes os._exit and atexit._run_exitfuncs raise here
    handled = []
    atexit.register(handled.append, "ran")
    try:
        codes = [
            run_in_process(argv)[0]
            for argv in (["narayana", "--n", "5"], ["narayana", "--n", "0"], ["--help"])
        ]
    finally:
        atexit.unregister(handled.append)
    assert (codes, handled) == ([0, 2, 0], [])


def test_a_final_flush_that_fails_still_exits_120():
    # output that main leaves unflushed on a closed pipe makes run()'s flush
    # fail, and the exit falls to the interpreter, as a bare SystemExit does
    probes = [
        'import narayana.cli as cli\ncli.main = lambda: print("unflushed") or 0\ncli.run()',
        'print("unflushed")\nraise SystemExit(0)',
    ]
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        run_probe, bare = [
            spawn("-c", probe, env={"PYTHONUNBUFFERED": None}, stdout=write_end) for probe in probes
        ]
    finally:
        os.close(write_end)
    assert (run_probe.returncode, run_probe.stderr) == (bare.returncode, bare.stderr)
    assert run_probe.returncode == 120
    assert "BrokenPipeError" in run_probe.stderr


def test_no_request_starts_a_thread(tmp_path):
    # run() ends the process by os._exit, which would not wait for a thread
    for argv in SITELESS_REQUESTS:
        before = threading.active_count()
        run_in_process([str(tmp_path) if word == "CACHE" else word for word in argv])
        assert threading.active_count() == before, argv


def test_the_installed_script_takes_the_process_exit():
    # pyproject.toml names the function that the __main__ block of cli calls
    root = Path(__file__).resolve().parent.parent
    (target,) = re.findall(r'(?m)^narayana = "(.+)"$', (root / "pyproject.toml").read_text())
    tree = ast.parse((root / "src" / "narayana" / "cli.py").read_text())
    (block,) = (node for node in tree.body if isinstance(node, ast.If))
    assert ast.unparse(block.test) == "__name__ == '__main__'"
    assert [ast.unparse(statement) for statement in block.body] == ["run()"]
    assert target == "narayana.cli:run"


def test_the_benchmark_setup_probe_runs():
    # perfbench/run.py times SETUP_CODE in fresh interpreters as setup_s; it
    # is read from the file, not imported, and must exit 0 against src/
    root = Path(__file__).resolve().parent.parent
    tree = ast.parse((root / "perfbench" / "run.py").read_text())
    (code,) = (
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and [getattr(target, "id", None) for target in node.targets] == ["SETUP_CODE"]
    )
    result = spawn("-c", code)
    assert result.returncode == 0, result.stderr


def benchmark_workloads():
    """perfbench/workloads.py, loaded from its file: perfbench is no package."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def test_every_benchmarked_request_takes_the_full_form_reader():
    # so no request the benchmark draws imports cli_parse and argparse;
    # dist-cache gives each of its requests a --cache-dir
    workloads = benchmark_workloads()
    commands = build_parser()
    general = []
    for workload in workloads.WORKLOADS:
        catalogue = workloads.catalogue(workload)
        assert catalogue, workload
        for argv in catalogue:
            argv = [*argv, *(["--cache-dir", "D"] if workload == "dist-cache" else [])]
            if cli._full_form(commands, argv) is None:
                general.append(argv)
    assert general == []


def test_the_benchmark_copies_agree_with_the_tables():
    # the workloads name the statistics, the paired ones and the checks'
    # limits in copies of their own, and draw requests up to guards they
    # hold no copy of: a guard that moves fails here until the benchmark
    # follows it
    workloads = benchmark_workloads()
    assert workloads.STATS == tuple(narayana.STATISTICS)
    assert set(workloads.Q_STATS) == {stat for stat, costat in narayana.STATISTICS.items() if costat}
    limits = {check: limit for check, (_, _, limit) in cli_common.VERIFY_CHECKS.items()}
    assert workloads.VERIFY_LIMITS == limits
    requests = [argv for name in workloads.WORKLOADS for argv in workloads.catalogue(name)]

    def value(argv, option):
        return argv[argv.index(option) + 1] if option in argv else None

    routes = {value(argv, "--route") for argv in requests} - {None}
    assert routes <= {*narayana.ROUTES, "all"}

    def largest(kinds):
        # the largest n of the requests whose (command, route) is in kinds
        return max(int(value(a, "--n")) for a in requests if (a[0], value(a, "--route")) in kinds)

    def route_rows(limit):
        return {("qnarayana", route) for route, (*_, n) in narayana.ROUTES.items() if n == limit}

    assert largest({("omega", None)}) == cli_common.OMEGA_GUARD
    closed_form = {("narayana", None), *route_rows(narayana.CLOSED_FORM_LIMIT)}
    assert largest(closed_form) == narayana.CLOSED_FORM_LIMIT
    # no n = 12: perfbench/workloads.py's _paths gives the reason
    enumerative = {("dist", None), *route_rows(narayana.ENUMERATION_LIMIT)}
    assert largest(enumerative) == narayana.ENUMERATION_LIMIT - 1


def test_every_request_reproduces_the_benchmark_digests():
    # perfbench/golden.json holds the sha256 of the stdout of every request
    # the benchmark draws, up to their ceilings; all are checked here
    # in-process, reading the file and never writing it
    golden_path = Path(__file__).resolve().parent.parent / "perfbench" / "golden.json"
    golden = json.loads(golden_path.read_text())
    assert len(golden) == 319
    mismatches = []
    for key, digest in golden.items():
        code, out = run_in_process(key.split())
        if (code, hashlib.sha256(out.encode()).hexdigest()) != (0, digest):
            mismatches.append(key)
    assert mismatches == []


def test_the_golden_replay_passes_on_every_other_installed_python():
    # the suite runs under one interpreter; tests/replay_golden.py replays
    # the digests under each other CPython >= 3.10 installed beside it, as
    # version managers such as pyenv lay them out
    home = Path(sys.base_prefix)
    others = []
    for python in sorted(home.parent.glob("*/bin/python3")):
        name = python.parent.parent.name
        version = re.fullmatch(r"(\d+)\.(\d+)\.\d+", name)
        if version and name != home.name and tuple(map(int, version.groups())) >= (3, 10):
            others.append(python)
    if not others:
        pytest.skip("no other CPython >= 3.10 beside this one")
    script = Path(__file__).resolve().parent / "replay_golden.py"
    for python in others:
        result = spawn(str(script), python=str(python))
        assert result.returncode == 0, (python, result.stdout, result.stderr)
        assert result.stdout.startswith("319 of 319 digests replayed"), python


def test_module_entry_point():
    result = spawn("-m", "narayana.cli", "narayana", "--n", "4")
    assert result.returncode == 0
    assert result.stdout == "1, 6, 6, 1\nsum 14\n"


def run_into(
    stdout, *argv, unbuffered: bool, stderr=subprocess.PIPE
) -> subprocess.CompletedProcess:
    # buffered, a short output fails at the final flush; unbuffered, at its write
    return spawn(
        "-m", "narayana.cli", *argv, env={"PYTHONUNBUFFERED": "1" if unbuffered else None},
        stdout=stdout, stderr=stderr,
    )


# the parser writes these itself, before any command runs
HELP_REQUESTS = (["--help"], ["--version"], ["dist", "--help"])


def assert_cannot_write(result: subprocess.CompletedProcess) -> None:
    # a usage-level exit with one error line, not a verification failure
    assert result.returncode == 2
    assert result.stderr.startswith("narayana: error: cannot write output: ")
    assert result.stderr.count("\n") == 1 and "Traceback" not in result.stderr


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_full_stdout_is_a_usage_error():
    requests = (
        ["narayana", "--n", "5"],
        ["omega", "--n", "6", "--format", "json"],
        ["omega", "--n", "8"],  # one write of the whole diagram
        *HELP_REQUESTS,
    )
    for argv in requests:
        for unbuffered in (False, True):
            with open("/dev/full", "w") as full:
                assert_cannot_write(run_into(full, *argv, unbuffered=unbuffered))


def test_closed_stdout_pipe_is_a_usage_error():
    # the read end is closed before the child starts, so its first write fails
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        for argv in (["omega", "--n", "8"], ["narayana", "--n", "3"], *HELP_REQUESTS):
            for unbuffered in (False, True):
                assert_cannot_write(run_into(write_end, *argv, unbuffered=unbuffered))
    finally:
        os.close(write_end)


def run_closed(descriptors: tuple, *argv: str) -> subprocess.CompletedProcess:
    # the child closes descriptors, as the shell's `>&-` does, before the
    # interpreter starts, so its sys.stdout or sys.stderr is None
    return spawn(
        "-m", "narayana.cli", *argv, preexec_fn=lambda: [os.close(fd) for fd in descriptors]
    )


def test_closed_stdout_descriptor_is_a_usage_error():
    requests = (
        ["narayana", "--n", "3"],
        ["qnarayana", "--n", "4", "--k", "1", "--format", "json"],
        ["omega", "--n", "3"],
        *HELP_REQUESTS,
    )
    for argv in requests:
        result = run_closed((1,), *argv)
        assert_cannot_write(result)
        assert result.stderr == "narayana: error: cannot write output: stdout is closed\n"
        # with stderr closed too the line is dropped, and the exit code stays
        both = run_closed((1, 2), *argv)
        assert (both.returncode, both.stdout, both.stderr) == (2, "", "")


def test_closed_stderr_descriptor_never_changes_the_exit_code_or_stdout():
    # the elapsed line, a usage error and a refused argv each write to
    # stderr, and the last request writes none
    for argv in (
        ["verify", "--check", "ssyt", "--n", "3"],
        ["narayana", "--n", "0"],
        ["dist", "--n", "4", "--stat", "nope"],
        ["narayana", "--n", "4"],
    ):
        result = run_closed((2,), *argv)
        assert (result.returncode, result.stdout) == run_in_process(argv), argv


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_failed_stderr_never_changes_the_exit_code_or_stdout(tmp_path):
    # a directory where the cache file belongs makes the table's write fail
    cache = tmp_path / "cache"
    (cache / f"dist-{__version__}-n4-des.json").mkdir(parents=True)
    silent = (
        ["narayana", "--n", "5"],
        ["qnarayana", "--n", "4", "--k", "1", "--route", "all"],
        ["omega", "--n", "3", "--format", "json"],
    )
    # each writes to stderr: the elapsed line, the cache warning, and the
    # usage errors of a handler and of the parser
    noisy = (
        ["verify", "--check", "ssyt", "--n", "3"],
        ["dist", "--n", "4", "--stat", "des", "--cache-dir", str(cache)],
        ["narayana", "--n", "0"],
        ["dist", "--n", "4", "--stat", "nope"],
    )
    expected = {}
    for argv in (*silent, *noisy):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert bool(err.getvalue()) == (argv in noisy), argv
        expected[tuple(argv)] = (code, out.getvalue())
    read_end, closed = os.pipe()
    os.close(read_end)
    sinks = [(sink, unbuffered) for sink in ("/dev/full", closed) for unbuffered in (False, True)]
    # the silent requests share the four sinks out, the noisy ones meet each;
    # an uncaught exception would exit 1, or 120 for a failed final flush
    runs = [(argv, [sink]) for argv, sink in zip(silent, sinks)]
    runs += [(argv, sinks) for argv in noisy]
    try:
        for argv, argv_sinks in runs:
            for sink, unbuffered in argv_sinks:
                with contextlib.ExitStack() as stack:
                    stderr = sink if sink == closed else stack.enter_context(open(sink, "w"))
                    result = run_into(
                        subprocess.PIPE, *argv, unbuffered=unbuffered, stderr=stderr
                    )
                got = (result.returncode, result.stdout)
                assert got == expected[tuple(argv)], (argv, sink, unbuffered)
    finally:
        os.close(closed)


def test_verify_checks_survive_optimized_mode(capsys):
    # every check, since python -O strips asserts
    for check in ("main-theorem", "preshelling", "ssyt", "q-identity", "parth"):
        argv = ["verify", "--check", check, "--n", "4"]
        code, expected, _ = run(capsys, *argv)
        assert code == 0, check
        result = spawn("-m", "narayana.cli", *argv, flags=("-O",))
        assert result.returncode == 0, check
        assert result.stdout == expected, check


def test_qnarayana_routes_survive_optimized_mode(capsys):
    # the exactness checks of the q-integer kernels raise real exceptions
    argv = ["qnarayana", "--n", "40", "--k", "20", "--route", "all"]
    code, expected, _ = run(capsys, *argv)
    assert code == 0
    assert expected.splitlines()[-1] == "verdict pass"
    result = spawn("-m", "narayana.cli", *argv, flags=("-O",))
    assert result.returncode == 0
    assert result.stdout == expected


def test_acceptance_gate_survives_optimized_mode():
    # python -O strips the gate's own asserts, so count its PASS lines
    gate = Path(__file__).resolve().parent / "test_acceptance.py"
    result = spawn("-m", "pytest", "-q", "-p", "no:cacheprovider", str(gate), flags=("-O",))
    passes = re.findall(r"\[acceptance +(\d+)\] PASS ", result.stdout)
    assert result.returncode == 0, result.stdout
    assert passes == [str(i) for i in range(1, 11)], result.stdout


@st.composite
def accepted_argv(draw) -> list[str]:
    """An argv the parser accepts: every subcommand with every format, small
    n, k up to 10**12, and refusable values of every bounded option."""
    command = draw(st.sampled_from(["narayana", "qnarayana", "dist", "verify", "omega"]))
    n = draw(st.integers(-1, 7))
    argv = [command, f"--n={n}"]
    if command == "narayana":
        argv += ["--format", draw(st.sampled_from(["text", "json", "csv"]))]
    elif command == "qnarayana":
        route = draw(st.sampled_from(["closed", "schur-ssyt", "schur-hook", "enumerate", "all"]))
        argv += [f"--k={draw(st.integers(-1, 10**12))}", "--route", route]
        argv += ["--format", draw(st.sampled_from(["text", "json"]))]
    elif command == "dist":
        argv += ["--stat", draw(st.sampled_from(["des", "hp", "ea", "lnfs", "da"]))]
        argv += ["--format", draw(st.sampled_from(["text", "json", "csv"]))]
        argv += ["--q"] if draw(st.booleans()) else []
    elif command == "verify":
        checks = ["main-theorem", "ssyt", "preshelling", "q-identity", "parth"]
        argv += ["--check", draw(st.sampled_from(checks))]
        argv += ["--format", draw(st.sampled_from(["text", "json"]))]
        argv += [f"--samples={draw(st.sampled_from([1, 2, 3, 0, 201]))}"]
        argv += [f"--seed={draw(st.integers(0, 3))}"]
        refs = st.one_of(st.just("random"), st.just("vh" * max(n, 0)), st.text("vh", max_size=14))
        ref = draw(st.none() | refs)
        argv += [] if ref is None else [f"--ref-path={ref}"]
    else:
        argv += ["--format", draw(st.sampled_from(["dot", "json"]))]
    return argv


def run_in_process(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


@settings(max_examples=100, deadline=None)
@given(accepted_argv())
def test_every_accepted_request_finishes_or_is_refused(argv):
    code, out = run_in_process(argv)
    assert code in (0, 1, 2), argv
    if code == 2:
        assert out == "", argv
    elif "json" in argv:
        json.loads(out)
    assert run_in_process(argv) == (code, out), argv
