"""README.md states the contract, and these tests hold it to the code.

Each `$ narayana ...` example of its Command line section runs through
narayana.cli.main in this process and prints the lines shown, a `...` line
standing for any lines between; an example that shows a `narayana: error:`
line is a refusal, which exits 2 with that stderr and no stdout.  Each line
of the Library example with a `# value` comment evaluates to the value, or
raises what a `# raises` comment names.  The Library domains, the guard
ceilings, the start-up table and the Python floor are the code's, and every
`](#anchor)` link names a heading by GitHub's slug rule.
"""

import ast
import builtins
import contextlib
import importlib
import io
import re
import runpy
import sys
from pathlib import Path

import pytest

from narayana import ROUTES
from narayana.cli import main
from narayana.cli_common import VERIFY_CHECKS

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def _headings() -> list[tuple[int, int, str]]:
    """(line index, level, title) of each heading of README, outside its
    fenced code blocks."""
    inside, found = False, []
    for i, line in enumerate(README.splitlines()):
        if line.startswith("```"):
            inside = not inside
        elif not inside and (m := re.match(r"(#+) (.+)", line)):
            found.append((i, len(m.group(1)), m.group(2)))
    return found


def section(title: str) -> str:
    """The text under README's heading title, up to the next heading of its
    level or above."""
    headings = _headings()
    (start, level), = [(i, level) for i, level, t in headings if t == title]
    end = min([i for i, lv, _ in headings if i > start and lv <= level], default=None)
    return "\n".join(README.splitlines()[start + 1:end])


def fenced(text: str) -> list[tuple[str, list[str]]]:
    """The fenced code blocks of text, each (info string, lines)."""
    blocks, current = [], None
    for line in text.splitlines():
        if not line.startswith("```"):
            if current is not None:
                current[1].append(line)
        elif current is None:
            current = (line[3:].strip(), [])
        else:
            blocks.append(current)
            current = None
    return blocks


def table(title: str) -> list[list[str]]:
    """The body rows of the first table under README's heading title, each
    a list of its cells."""
    rows = [line for line in section(title).splitlines() if line.startswith("|")]
    assert rows, f"no table under {title}"
    return [[cell.strip() for cell in row.strip("|").split("|")] for row in rows[2:]]


def quoted(cell: str) -> list[str]:
    """The `code` spans of a cell, in order."""
    return re.findall(r"`([^`]+)`", cell)


def _examples() -> list[tuple[list[str], list[str]]]:
    """(argv, lines shown) of each `$ narayana` example of the Command line
    section and its subsections."""
    found = []
    for _, lines in fenced(section("Command line")):
        example = None
        for line in lines:
            if line.startswith("$ narayana "):
                example = (line.split()[2:], [])
                found.append(example)
            elif example is not None:
                example[1].append(line)
    for _, shown in found:
        while shown and not shown[-1]:
            shown.pop()
    return found


EXAMPLES = _examples()


def test_the_examples_are_found():
    assert len(EXAMPLES) >= 5
    assert all(shown for _, shown in EXAMPLES)


def _serve(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _shows(lines: list[str], shown: list[str]) -> bool:
    """Whether lines are the shown ones, a line `...` standing for one or
    more lines."""
    cut = [i for i, line in enumerate(shown) if line.strip() == "..."]
    if not cut:
        return lines == shown
    head, tail = shown[: cut[0]], shown[cut[0] + 1:]
    return (len(lines) > len(head) + len(tail)
            and lines[: len(head)] == head and lines[len(lines) - len(tail):] == tail)


@pytest.mark.parametrize("argv, shown", EXAMPLES, ids=[" ".join(a) for a, _ in EXAMPLES])
def test_command_line_example(argv, shown):
    code, out, err = _serve(argv)
    if shown[0].startswith("narayana: error:"):
        assert (code, out, err.splitlines()) == (2, "", shown)
    else:
        assert code == 0, err
        assert _shows(out.splitlines(), shown), out


def _value(comment: str):
    """The value a comment opens with: its longest prefix, ending where it
    does or before a ':' or ';', that is a Python literal."""
    cuts = [len(comment), *(i for i, c in enumerate(comment) if c in ":;")]
    for cut in sorted(cuts, reverse=True):
        try:
            return ast.literal_eval(comment[:cut])
        except (ValueError, SyntaxError):
            pass
    raise ValueError(f"no value in the comment {comment!r}")


def _library_example() -> list[str]:
    (code,) = [lines for info, lines in fenced(section("Library")) if info == "python"]
    return code


def test_library_example():
    code = _library_example()
    namespace, checked = {}, 0
    for line in code:
        source, _, comment = line.partition("  # ")
        if not comment:
            exec(line, namespace)
        elif comment.startswith("raises "):
            with pytest.raises(getattr(builtins, comment.split()[1])):
                eval(source, namespace)
        else:
            assert eval(source, namespace) == _value(comment), line
        checked += bool(comment)
    assert checked >= 8


def _word(n: int) -> str:
    # a Dyck word of semilength n in mixed case; below 0, a word that is no Dyck word
    return "Vh" * n if n >= 0 else "hv"


def _domains() -> dict[str, str]:
    """Each name of the Library table, as module.function, with its domain."""
    return {name.partition("(")[0]: domain for domain, names in table("Library")
            for name in quoted(names)}


# how a name of the Library table is called at semilength n, when not as f(n)
CALLS = {
    "dyck.dyck_word": lambda f, n: f(_word(n)),
    "dyck.enumerate_paths": lambda f, n: list(f(n)),
    "stats.distribution": lambda f, n: f(n, "des"),
    "stats.joint_coefficients": lambda f, n: f(n, "des", "maj"),
    "tableaux.dyck_to_ssyt": lambda f, n: f(_word(n)),
}
# every name of the table but check_preshelling, which takes no n
SEMILENGTH_NAMES = sorted(set(_domains()) - {"preshelling.check_preshelling"})


def _library_function(name: str):
    module, _, function = name.partition(".")
    return getattr(importlib.import_module(f"narayana.{module}"), function)


def test_the_library_table_lists_the_example_s_names():
    code = _library_example()
    imported = {name for line in code if line.startswith("from ")
                for name in line.partition(" import ")[2].split(", ")}
    assert {name.partition(".")[2] for name in _domains()} == imported


@pytest.mark.parametrize("n", [-1, 0, 1])
@pytest.mark.parametrize("name", SEMILENGTH_NAMES)
def test_library_domain(name, n):
    least = int(re.search(r"n ≥ (\d+)", _domains()[name]).group(1))
    call = CALLS.get(name, lambda f, n: f(n))
    if n < least:
        with pytest.raises(ValueError):
            call(_library_function(name), n)
    else:
        call(_library_function(name), n)


def test_check_preshelling_takes_an_order_on_its_complex_s_facets():
    assert _domains()["preshelling.check_preshelling"].startswith("an order on the facets of `cx`")
    from narayana.preshelling import chain_count, check_preshelling
    from narayana.shelling import dyck_complex, omega_n

    assert check_preshelling(dyck_complex(2), omega_n(2), chain_count(2))["is_preshelling"]
    with pytest.raises(ValueError):
        check_preshelling(dyck_complex(3), omega_n(2), chain_count(3))


# the required options that a guard probe adds to a request
REQUIRED = {"qnarayana": ["--k", "1"], "dist": ["--stat", "des"]}


def _guarded() -> list[tuple[str, int]]:
    return [(request, int(ceiling)) for ceiling, requests in table("Guards")
            for request in quoted(requests)]


def test_the_guard_table_covers_every_command_route_and_check():
    assert sorted(request for request, _ in _guarded()) == sorted([
        "narayana", "dist", "omega",
        *(f"qnarayana --route {route}" for route in (*ROUTES, "all")),
        *(f"verify --check {check}" for check in VERIFY_CHECKS),
    ])


@pytest.mark.parametrize("request_, ceiling", _guarded(), ids=[r for r, _ in _guarded()])
def test_each_ceiling_is_the_one_the_command_refuses_above(request_, ceiling):
    argv = request_.split()
    code, out, err = _serve([*argv, "--n", str(ceiling + 1), *REQUIRED.get(argv[0], [])])
    assert (code, out) == (2, "")
    assert re.search(rf"<= {ceiling}\b", err), err


def test_the_samples_ceiling_is_the_one_verify_refuses_above():
    samples = int(re.search(r"`verify --samples` accepts 1 to (\d+)\.", section("Guards")).group(1))
    argv = ["verify", "--check", "main-theorem", "--n", "1", "--ref-path", "random"]
    code, out, err = _serve([*argv, "--samples", str(samples + 1)])
    assert (code, out) == (2, "")
    assert f"1 to {samples}," in err


def test_the_start_up_table_is_startup_rows():
    from test_cli import PARSER_MODULES, STARTUP_ROWS

    shown = {}
    for requests, modules in table("Start-up"):
        warm = "cache hit" in requests
        loaded = sorted([*PARSER_MODULES, *quoted(modules)])
        for request in quoted(requests):
            argv = () if request == "import narayana.cli" else tuple(request.split())
            shown[argv, warm] = loaded
    assert shown == {(tuple(argv), warm): sorted(mods) for argv, warm, mods in STARTUP_ROWS}


def test_the_python_floor_is_the_package_s(monkeypatch, capsys):
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    major, minor = map(int, re.search(r'requires-python = ">=(\d+)\.(\d+)"', pyproject).groups())
    assert f"Python {major}.{minor} or newer." in section("Install")
    # the golden replay refuses an older interpreter before it imports narayana
    monkeypatch.setattr(sys, "version_info", (major, minor - 1, 0, "final", 0))
    with pytest.raises(SystemExit) as exit_:
        runpy.run_path(str(ROOT / "tests" / "replay_golden.py"), run_name="__main__")
    assert exit_.value.code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and f"Python >= {major}.{minor}" in err[0]


def _slug(title: str) -> str:
    """GitHub's anchor of a heading: lowercased, with every character but
    letters, digits, '_', '-' and spaces dropped, and spaces made '-'."""
    return re.sub(r"[^\w\- ]", "", title.lower()).replace(" ", "-")


def test_every_section_link_names_a_heading():
    links = re.findall(r"\]\(#([^)]+)\)", README)
    assert links
    anchors = {_slug(title) for _, _, title in _headings()}
    assert sorted(set(links) - anchors) == []
