import ast
import contextlib
import hashlib
import importlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from narayana import __version__, cli, posets, shelling, tableaux
from narayana.cli import build_parser, main
from narayana.qpoly import q_narayana_closed


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
    code, out, _ = run(capsys, "narayana", "--n", "60", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["row"]) == 60
    assert sum(payload["row"]) == payload["sum"]


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
    code, out, _ = run(
        capsys, "qnarayana", "--n", "15", "--k", "2", "--route", "all", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert set(payload["routes"]) == {"closed", "schur-hook"}
    assert payload["verdict"] == "pass"


def test_qnarayana_enumerative_route_guard(capsys):
    for route in ("enumerate", "schur-ssyt"):
        code, _, err = run(capsys, "qnarayana", "--n", "13", "--k", "1", "--route", route)
        assert code == 2
        assert "limited to n <= 12" in err


def test_qnarayana_closed_form_routes_guard(capsys):
    for route in ("closed", "schur-hook", "all"):
        code, out, err = run(capsys, "qnarayana", "--n", "61", "--k", "1", "--route", route)
        assert (code, out) == (2, "")
        assert err.startswith("narayana: error:") and "limited to n <= 60" in err
        assert "Traceback" not in err
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


def test_dist_guard(capsys):
    assert run(capsys, "dist", "--n", "13", "--stat", "des")[0] == 2


def test_dist_cache_write_and_read(capsys, tmp_path):
    argv = ["dist", "--n", "4", "--stat", "des", "--cache-dir", str(tmp_path)]
    code, first, _ = run(capsys, *argv)
    assert code == 0
    cached = tmp_path / "dist-0.1.0-n4-des.json"
    assert cached.exists()
    assert json.loads(cached.read_text())["table"] == [[0, 1], [1, 6], [2, 6], [3, 1]]
    code, second, _ = run(capsys, *argv)
    assert code == 0 and second == first
    # a poisoned cache is believed, which proves the read path is live
    payload = json.loads(cached.read_text())
    payload["table"] = [[0, 999]]
    cached.write_text(json.dumps(payload))
    code, third, _ = run(capsys, *argv)
    assert code == 0
    assert third == "0  999\n"


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
        n5.write_text(json.dumps(payload))
        code, again, _ = run(capsys, *argv)
        assert (code, again) == (0, out)
        assert json.loads(n5.read_text())["table"] == [[0, 1], [1, 10], [2, 20], [3, 10], [4, 1]]


def test_dist_cache_write_failure_is_a_warning(capsys, tmp_path, monkeypatch):
    monkeypatch.delenv("NARAYANA_CACHE_DIR", raising=False)
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


def test_dist_cache_env_fallback(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("NARAYANA_CACHE_DIR", str(tmp_path))
    code, _, _ = run(capsys, "dist", "--n", "3", "--stat", "lnfs", "--q")
    assert code == 0
    assert (tmp_path / "dist-0.1.0-n3-lnfs-q.json").exists()


def test_dist_no_cache_by_default(capsys, tmp_path, monkeypatch):
    monkeypatch.delenv("NARAYANA_CACHE_DIR", raising=False)
    monkeypatch.chdir(tmp_path)
    code, _, _ = run(capsys, "dist", "--n", "3", "--stat", "des")
    assert code == 0
    assert list(tmp_path.iterdir()) == []


def test_dist_cache_dir_that_is_a_file_is_a_usage_error(capsys, tmp_path, monkeypatch):
    blocker = tmp_path / "not-a-dir"
    blocker.write_text("keep")
    monkeypatch.delenv("NARAYANA_CACHE_DIR", raising=False)
    code, out, err = run(capsys, "dist", "--n", "3", "--stat", "des", "--cache-dir", str(blocker))
    assert (code, out) == (2, "")
    assert err.startswith("narayana: error:") and "Traceback" not in err
    monkeypatch.setenv("NARAYANA_CACHE_DIR", str(blocker / "sub"))
    code, out, err = run(capsys, "dist", "--n", "3", "--stat", "des")
    assert (code, out) == (2, "")
    assert err.startswith("narayana: error:")
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


def test_verify_bad_ref_paths(capsys):
    base = ["verify", "--check", "main-theorem", "--n", "3", "--ref-path"]
    for ref in ("vvhv", "hhvv", "xxxxxx"):
        code, _, err = run(capsys, *base, ref)
        assert code == 2
        assert "bad ref-path" in err
    code, _, err = run(capsys, *base, "vvhh")
    assert code == 2
    assert "semilength" in err


def test_verify_guards(capsys):
    cases = [
        ("main-theorem", "7"),
        ("preshelling", "6"),
        ("ssyt", "9"),
        ("q-identity", "9"),
        ("parth", "9"),
    ]
    for check, n in cases:
        code, _, err = run(capsys, "verify", "--check", check, "--n", n)
        assert code == 2
        assert "supports 1 <= n <=" in err


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
    # the parser names routes, checks and guards without importing the library
    routes = {
        name: getattr(importlib.import_module(f"narayana.{module}"), function)
        for name, (module, function) in cli.ROUTES.items()
    }
    assert list(routes.items()) == list(tableaux.Q_NARAYANA_ROUTES.items())
    assert set(cli.ENUMERATIVE_ROUTES) < set(cli.ROUTES)
    checks = {
        name: getattr(importlib.import_module(f"narayana.{module}"), function)
        for name, (module, function) in cli.VERIFY_CHECKS.items()
    }
    assert checks == {
        "main-theorem": posets.verify_theorem_main,
        "ssyt": tableaux.verify_ssyt,
        "preshelling": shelling.verify_preshelling,
        "q-identity": tableaux.verify_q_identity,
        "parth": shelling.verify_parth,
    }
    assert set(cli.VERIFY_LIMITS) == set(cli.VERIFY_CHECKS)
    assert cli.VERIFY_LIMITS["main-theorem"] == posets.THEOREM_GUARD
    omega_n_help = build_parser()["omega"][2]["--n"][3]
    assert omega_n_help == f"semilength, 1 <= n <= {shelling.OMEGA_GUARD}"


# run in a fresh interpreter: build the parser, serve argv if any, and print
# to stderr the narayana modules and whether csv was loaded, at start and end
STARTUP_PROBE = """
import sys
csv_at_start = "csv" in sys.modules
from narayana.cli import build_parser, main
build_parser()
code = main(sys.argv[1:]) if len(sys.argv) > 1 else 0
sys.stdout.flush()
loaded = sorted(m[len("narayana."):] for m in sys.modules if m.startswith("narayana."))
print(loaded, csv_at_start, "csv" in sys.modules, file=sys.stderr)
raise SystemExit(code)
"""
TABLEAUX_MODULES = ["cli", "dyck", "qpoly", "tableaux"]
# the modules each qnarayana route loads: the closed form needs qpoly alone,
# the Schur routes tableaux too, and the sum over paths dyck as well
ROUTE_MODULES = {
    "closed": ["cli", "qpoly"],
    "schur-ssyt": ["cli", "qpoly", "tableaux"],
    "schur-hook": ["cli", "qpoly", "tableaux"],
    "enumerate": TABLEAUX_MODULES,
    "all": TABLEAUX_MODULES,
}
SHELLING_MODULES = ["cli", "dyck", "shelling"]
# one request per row of README's start-up table: (argv, whether the dist
# cache is warmed first, the narayana modules it loads)
STARTUP_ROWS = [
    ([], False, ["cli"]),
    (["dist", "--n", "4", "--stat", "des", "--format", "json"], True, ["cli"]),
    (["dist", "--n", "4", "--stat", "hp", "--q"], True, ["cli", "qpoly"]),
    (["dist", "--n", "4", "--stat", "hp", "--q", "--format", "csv"], False, ["cli", "dyck", "qpoly"]),
    (["dist", "--n", "4", "--stat", "da"], False, ["cli", "dyck"]),
    (["narayana", "--n", "5", "--format", "csv"], False, ["cli", "qpoly"]),
    *(
        (["qnarayana", "--n", "4", "--k", "1", "--route", route], False, ROUTE_MODULES[route])
        for route in (*cli.ROUTES, "all")
    ),
    (
        ["verify", "--check", "main-theorem", "--n", "3", "--ref-path", "random", "--samples", "2"],
        False,
        ["cli", "dyck", "posets", "qpoly"],
    ),
    (["verify", "--check", "main-theorem", "--n", "3"], False, ["cli", "dyck", "posets"]),
    (["verify", "--check", "ssyt", "--n", "3"], False, sorted([*TABLEAUX_MODULES, "posets"])),
    (["verify", "--check", "q-identity", "--n", "3"], False, TABLEAUX_MODULES),
    (["verify", "--check", "preshelling", "--n", "3"], False, SHELLING_MODULES),
    (["verify", "--check", "parth", "--n", "3"], False, sorted([*SHELLING_MODULES, "posets"])),
    (["omega", "--n", "3", "--format", "json"], False, SHELLING_MODULES),
]


@pytest.mark.parametrize(
    "argv, warm, modules", STARTUP_ROWS, ids=[" ".join(row[0]) or "parser" for row in STARTUP_ROWS]
)
def test_each_request_loads_only_the_modules_it_calls(argv, warm, modules, tmp_path, monkeypatch):
    monkeypatch.delenv("NARAYANA_CACHE_DIR", raising=False)
    if warm:
        argv = [*argv, "--cache-dir", str(tmp_path)]
        assert run_in_process(argv)[0] == 0
    expected = run_in_process(argv) if argv else (0, "")
    env = {k: v for k, v in os.environ.items() if k != "NARAYANA_CACHE_DIR"}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    result = subprocess.run(
        [sys.executable, "-c", STARTUP_PROBE, *argv], capture_output=True, text=True, env=env
    )
    assert (result.returncode, result.stdout) == expected, result.stderr
    loaded, csv_at_start, csv_at_end = result.stderr.splitlines()[-1].rsplit(" ", 2)
    assert loaded == repr(modules)
    if "csv" in argv:
        assert csv_at_end == "True"
    else:
        assert csv_at_end == csv_at_start


# print the standard-library modules a fresh interpreter holds, after
# serving argv if any
STDLIB_PROBE = """
import sys
if len(sys.argv) > 1:
    from narayana.cli import main
    code = main(sys.argv[1:])
    sys.stdout.flush()
print(sorted(sys.modules), file=sys.stderr)
"""


@pytest.mark.parametrize(
    "argv", [["narayana", "--n", "5"], ["qnarayana", "--n", "20", "--k", "2"]], ids=" ".join
)
def test_text_requests_load_no_parser_locale_or_json_module(argv):
    # compared with a bare interpreter in the same environment, so that a
    # site hook which loads one of these modules itself cannot fail the test
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))

    def modules(*args):
        result = subprocess.run(
            [sys.executable, "-c", STDLIB_PROBE, *args], capture_output=True, text=True, env=env
        )
        assert result.returncode == 0, result.stderr
        return set(ast.literal_eval(result.stderr.splitlines()[-1]))

    added = modules(*argv) - modules()
    assert "narayana.cli" in added
    assert sorted(added & {"argparse", "gettext", "locale", "json"}) == []


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
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr


def test_every_request_reproduces_the_benchmark_digests(monkeypatch):
    # perfbench/golden.json holds the sha256 of the stdout of every request
    # the benchmark draws, up to their ceilings; all are checked here
    # in-process, reading the file and never writing it
    monkeypatch.delenv("NARAYANA_CACHE_DIR", raising=False)
    golden_path = Path(__file__).resolve().parent.parent / "perfbench" / "golden.json"
    golden = json.loads(golden_path.read_text())
    assert len(golden) == 319
    mismatches = []
    for key, digest in golden.items():
        code, out = run_in_process(key.split())
        if (code, hashlib.sha256(out.encode()).hexdigest()) != (0, digest):
            mismatches.append(key)
    assert mismatches == []


def test_module_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "narayana.cli", "narayana", "--n", "4"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout == "1, 6, 6, 1\nsum 14\n"


def run_into(
    stdout, *argv, unbuffered: bool, stderr=subprocess.PIPE
) -> subprocess.CompletedProcess:
    # buffered, a short output fails at the final flush; unbuffered, at its write
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run(
        [sys.executable, "-m", "narayana.cli", *argv],
        stdout=stdout,
        stderr=stderr,
        text=True,
        env=env,
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
        result = subprocess.run(
            [sys.executable, "-O", "-m", "narayana.cli", *argv],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, check
        assert result.stdout == expected, check


def test_qnarayana_routes_survive_optimized_mode(capsys):
    # the exactness checks of the q-integer kernels raise real exceptions
    argv = ["qnarayana", "--n", "40", "--k", "20", "--route", "all"]
    code, expected, _ = run(capsys, *argv)
    assert code == 0
    assert expected.splitlines()[-1] == "verdict pass"
    result = subprocess.run(
        [sys.executable, "-O", "-m", "narayana.cli", *argv],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout == expected


def test_acceptance_gate_survives_optimized_mode():
    # python -O strips the gate's own asserts, so count its PASS lines
    tests = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=str(tests.parent / "src"))
    result = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider",
         str(tests / "test_acceptance.py")],
        capture_output=True,
        text=True,
        env=env,
    )
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
    with mock.patch.dict(os.environ):
        os.environ.pop("NARAYANA_CACHE_DIR", None)
        code, out = run_in_process(argv)
        assert code in (0, 1, 2), argv
        if code == 2:
            assert out == "", argv
        elif "json" in argv:
            json.loads(out)
        assert run_in_process(argv) == (code, out), argv
