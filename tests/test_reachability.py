"""Every statement under src/narayana serves a request, a refusal, a failing
check or a named library guard.

One deck of CLI requests runs in-process under sys.settrace and records
every line that a frame of the package runs.  The deck covers every
subcommand, check, route and format, --help, a random reference path, a
cache miss and a hit, a closed-form request long enough for the Kronecker
product, a q-Narayana polynomial that is zero on every route and one
request in abbreviated form.  It grows by every refusal of
the command line, the cache files that a request cannot use, a request
whose stdout and stderr are closed, and a damaged run of each check in text
and json, in which one library call is patched to make the check return
witnesses.  The process entry run() serves --version and a request whose
stdout and stderr are on a full device, with its exit handlers and
os._exit replaced, so that the test process goes on.  A statement in a
function body that nothing runs belongs in tests/oracles.py or nowhere,
unless ALLOWED_LINES names it, by its function and its first line, with
its reason.
No module under src/narayana holds an assert statement, since python -O
strips them, or a global statement, since a module binds its names once,
or the word frozenset, since a rank set is one int with rank r at bit r,
and no function there calls itself, since a recursion's depth is bounded
by the interpreter's limit and not by a guard, unless SELF_CALLS names it
with its reason.  Every import there, at module or function level, is read
in its own scope, a name in a string annotation counting as a read.
"""

import ast
import atexit
import contextlib
import errno
import importlib
import io
import os
import pkgutil
import sys
import tempfile
from collections import Counter
from pathlib import Path
from unittest import mock

import pytest

import narayana
from narayana import posets, preshelling, shelling, stats, tableaux
from narayana.cli import main, run

SRC = Path(narayana.__file__).parent
_PUBLIC = "guard of a name on README's Library list, which takes outside input"
_CLI = ("library refusal or domain edge: the command line never sends the input; the "
        "refusals stay, as without them verify_q_identity(0) and "
        "verify_theorem_main(n, []) would pass vacuously")
_GUARD = "guard of PureComplex or FacetOrder, which check_preshelling's callers build"
_SELF = "self-check: only a bug in the library reaches it"
_VALUE = "value protocol: tests build, compare, hash and print instances"
_JSON = "json_text's contract: json writes the strs that payloads never hold"
# (function, first line) of each statement that nothing runs and yet stays
ALLOWED_LINES = {
    ("narayana.dyck.enumerate_paths", 'raise ValueError(f"negative semilength: {n}")'): _PUBLIC,
    ("narayana.stats._mark", 'raise ValueError(f"unknown statistic: {name}") from None'): _PUBLIC,
    ("narayana.stats._joint_counts", 'raise ValueError(f"negative semilength: {n}")'): _PUBLIC,
    ("narayana.posets.flag_h_table",
     'raise ValueError(f"flag_h_table needs n >= 1, got {n}")'): _PUBLIC,
    ("narayana.tableaux.dyck_to_ssyt",
     "from .dyck import dyck_word"): _PUBLIC,
    ("narayana.tableaux.dyck_to_ssyt", "return _rows(dyck_word(word))"): _PUBLIC,
    ("narayana.shelling.dyck_complex",
     'raise ValueError(f"dyck_complex needs n >= 1, got {n}")'): _PUBLIC,
    ("narayana.shelling.omega_n", 'raise ValueError(f"omega_n needs n >= 1, got {n}")'): _PUBLIC,
    ("narayana.preshelling.chain_count", 'raise ValueError(f"negative semilength: {n}")'): _PUBLIC,
    ("narayana.preshelling.check_preshelling",
     'raise ValueError(f"order on {ord.m} facets, complex of {cx.m}")'): _PUBLIC,
    ("narayana.qpoly.q_binomial", 'raise ValueError(f"q_binomial with negative n: {n}")'): _CLI,
    ("narayana.qpoly.q_binomial", "return QPoly()"): _CLI,
    ("narayana.qpoly.ratio_q_int",
     'raise ValueError(f"ratio_q_int needs a, b >= 1, got a = {a}, b = {b}")'): _CLI,
    ("narayana.qpoly._nonzero", 'raise ValueError(f"{name} needs n >= 1, got {n}")'): _CLI,
    ("narayana.qpoly._nonzero", 'raise ValueError(f"{name} needs k >= 0, got {k}")'): _CLI,
    ("narayana.posets.verify_theorem_main",
     'raise ValueError(f"verify_theorem_main needs n >= 1, got {n}")'): _CLI,
    ("narayana.posets.verify_theorem_main",
     'raise ValueError("verify_theorem_main needs at least one reference path")'): _CLI,
    ("narayana.posets.verify_theorem_main",
     'raise ValueError(f"length mismatch: |W| = {len(W)}, expected {2 * n}")'): _CLI,
    ("narayana.tableaux.verify_q_identity",
     'raise ValueError(f"verify_q_identity needs n >= 1, got {n}")'): _CLI,
    ("narayana.shelling.PureComplex.__init__", 'raise ValueError("duplicate vertex")'): _GUARD,
    ("narayana.shelling.PureComplex.__init__",
     'raise ValueError("at least one facet required")'): _GUARD,
    ("narayana.shelling.PureComplex.__init__",
     'raise ValueError(f"facet mask not an int: {mask!r}")'): _GUARD,
    ("narayana.shelling.PureComplex.__init__",
     'raise ValueError(f"facet mask outside the vertex range: {mask}")'): _GUARD,
    ("narayana.shelling.PureComplex.__init__",
     'raise ValueError("not pure: all facets must have the same cardinality")'): _GUARD,
    ("narayana.shelling.PureComplex.__init__", "repeats = Counter(masks)"): _GUARD,
    ("narayana.shelling.PureComplex.__init__",
     "i = next(i for i, a in enumerate(masks) if repeats[a] > 1)"): _GUARD,
    ("narayana.shelling.PureComplex.__init__",
     'raise ValueError(f"facet contained in another (or duplicated): index {i}")'): _GUARD,
    ("narayana.shelling.FacetOrder.__init__",
     'raise ValueError(f"facet index not an int: ({a!r}, {b!r})")'): _GUARD,
    ("narayana.shelling.FacetOrder.__init__",
     'raise ValueError(f"facet index out of range: ({a}, {b})")'): _GUARD,
    ("narayana.shelling.FacetOrder.__init__", 'raise ValueError("order contains a cycle")'): _SELF,
    ("narayana.preshelling.check_preshelling",
     'raise RuntimeError(f"equivalence broken: {conditions}")'): _SELF,
    ("narayana.qpoly.ratio_q_int",
     'raise ArithmeticError(f"inexact division: {QPoly(cs)} * [{a}] by [{b}]")'): _SELF,
    ("narayana.qpoly.narayana", 'raise ArithmeticError(f"narayana({n}, {k}) not integral")'): _SELF,
    ("narayana.qpoly.QPoly.__init__", "cs.pop()"): _VALUE,
    ("narayana.qpoly.QPoly.__eq__", "if isinstance(other, QPoly):"): _VALUE,
    ("narayana.qpoly.QPoly.__eq__", "return self._coeffs == other._coeffs"): _VALUE,
    ("narayana.qpoly.QPoly.__eq__", "return NotImplemented"): _VALUE,
    ("narayana.qpoly.QPoly.__hash__", "return hash(self._coeffs)"): _VALUE,
    ("narayana.qpoly.QPoly.__mul__", "return QPoly()"): _VALUE,
    ("narayana.qpoly.QPoly.__repr__", 'return f"QPoly({self._coeffs!r})"'): _VALUE,
    ("narayana.qpoly.QPoly.__str__", 'body = "q" if mag == 1 else f"{mag}q"'): _VALUE,
    ("narayana.qpoly.QPoly.degree", "return len(self._coeffs) - 1"):
        "perfbench/tracing.py reads it for a per-layer metric",
    ("narayana.cli_common.json_text", "import json"): _JSON,
    ("narayana.cli_common.json_text", "return json.dumps(value)"): _JSON,
}
# the functions that call themselves, each with its reason
SELF_CALLS = {"cli_common.json_text": "its depth is the payload's"}


def deck(cache_dir: str) -> list[list[str]]:
    requests = [["narayana", "--n", "5", "--format", fmt] for fmt in ("text", "json", "csv")]
    for route in ("closed", "schur-ssyt", "schur-hook", "enumerate", "all"):
        for fmt in ("text", "json"):
            requests.append(["qnarayana", "--n", "4", "--k", "1", "--route", route, "--format", fmt])
    requests.append(["qnarayana", "--n", "20", "--k", "9", "--route", "closed"])
    requests.append(["qnarayana", "--n", "4", "--k", "4", "--route", "all"])  # zero on every route
    for fmt in ("text", "json", "csv"):
        requests.append(["dist", "--n", "4", "--stat", "hp", "--q", "--format", fmt])
        requests.append(["dist", "--n", "4", "--stat", "da", "--format", fmt])
    # the same request twice: a cache miss that writes the table, then a hit
    requests += [["dist", "--n", "4", "--stat", "des", "--cache-dir", cache_dir]] * 2
    for check in ("main-theorem", "ssyt", "preshelling", "q-identity", "parth"):
        for fmt in ("text", "json"):
            requests.append(["verify", "--check", check, "--n", "3", "--format", fmt])
    requests.append(
        ["verify", "--check", "main-theorem", "--n", "3", "--ref-path", "random", "--samples", "2"]
    )
    requests += [["omega", "--n", "3", "--format", fmt] for fmt in ("dot", "json")]
    requests.append(["--help"])
    requests.append(["dist", "--n=4", "--st", "da"])  # abbreviated: the general reader
    return requests


def refusals(blocker: Path) -> list[list[str]]:
    """Every refusal of the command line, each exit 2; blocker is a file."""
    main_theorem = ["verify", "--check", "main-theorem", "--n", "2", "--ref-path"]
    return [
        ["dist", "--n", "4", "--stat", "nope"],  # by the general reader
        ["dist", "--n", "4"],  # a required option missing: the general reader
        ["narayana", "--n", "0"],
        ["qnarayana", "--n", "0", "--k", "1"],
        ["qnarayana", "--n", "4", "--k", "-1"],
        ["qnarayana", "--n", "13", "--k", "1", "--route", "enumerate"],
        ["dist", "--n", "13", "--stat", "des"],
        ["dist", "--n", "4", "--stat", "ea", "--q"],
        ["dist", "--n", "4", "--stat", "des", "--cache-dir", str(blocker / "sub")],
        ["verify", "--check", "ssyt", "--n", "9"],
        ["verify", "--check", "ssyt", "--n", "3", "--samples", "0"],
        ["verify", "--check", "ssyt", "--n", "3", "--ref-path", "vhvhvh"],
        main_theorem + ["vx"],
        main_theorem + ["hv"],
        main_theorem + ["vvh"],
        main_theorem + ["vhvhvh"],
        ["omega", "--n", "9"],
    ]


def _reversed_images(rows, n, real=tableaux.ssyt_to_dyck):
    return real(rows, n)[::-1]  # starts with h: no Dyck word


def _no_relations(n: int) -> shelling.FacetOrder:
    return shelling.FacetOrder(len(shelling._words(n)), [])


# check -> (module, name, stand-in) of one library call that makes it fail
DAMAGE = {
    "main-theorem": (posets, "flag_h_table", lambda n: Counter({0: 2})),
    "ssyt": (tableaux, "ssyt_to_dyck", _reversed_images),
    "preshelling": (preshelling, "omega_n", _no_relations),
    "q-identity": (stats, "distribution", lambda n, statistic: {}),
    "parth": (shelling, "omega_n", _no_relations),
}


class _Full(io.StringIO):
    """A stream on a full device, whose descriptor is a scratch file's."""

    def __init__(self, fd: int):
        super().__init__()
        self._fd = fd

    def write(self, text: str = "") -> int:
        raise OSError(errno.ENOSPC, "No space left on device")

    flush = write

    def fileno(self) -> int:
        return self._fd


def _raise_exit(code: int):
    raise SystemExit(code)


def _in_process(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _run(argv: list[str], stream) -> int:
    # run() as the process of argv, its exit handlers and os._exit replaced
    with (
        mock.patch.object(sys, "argv", ["narayana", *argv]),
        mock.patch.object(atexit, "_run_exitfuncs"),
        mock.patch.object(os, "_exit", _raise_exit),
        contextlib.redirect_stdout(stream),
        contextlib.redirect_stderr(stream),
        pytest.raises(SystemExit) as exit,
    ):
        run()
    return exit.value.code


def serve_everything(tmp_path: Path) -> None:
    """Send every request of the reachability deck, checking each exit."""
    with tempfile.TemporaryFile() as scratch:
        assert _run(["--version"], io.StringIO()) == 0
        assert _run(["narayana", "--n", "3"], _Full(scratch.fileno())) == 2
    cache = tmp_path / "cache"
    requests = deck(str(cache))
    assert [_in_process(argv)[0] for argv in requests] == [0] * len(requests)
    assert len(list(cache.iterdir())) == 1
    blocker = tmp_path / "file"
    blocker.write_text("")
    for argv in refusals(blocker):
        code, out, err = _in_process(argv)
        assert (code, out, err.count("\n")) == (2, "", 1), argv
        assert err.startswith("narayana: error: "), argv
    # closed when the process started: no output and no diagnostics
    with mock.patch.object(sys, "stdout", None), mock.patch.object(sys, "stderr", None):
        assert main(["narayana", "--n", "3"]) == 2
    # a FIFO at the cache path, whose temp file is a directory, and a cache
    # file that holds no table: each a miss, and only the last rewritten
    faulty = tmp_path / "faulty"
    faulty.mkdir()
    stem = f"dist-{narayana.__version__}-n4"
    os.mkfifo(faulty / f"{stem}-da.json")
    (faulty / f"{stem}-da.json.{os.getpid()}.tmp").mkdir()
    (faulty / f"{stem}-ea.json").write_text("{}\n")
    for stat, warnings in (("da", 1), ("ea", 0)):
        argv = ["dist", "--n", "4", "--stat", stat]
        code, out, err = _in_process([*argv, "--cache-dir", str(faulty)])
        assert (code, out) == (0, _in_process(argv)[1])
        assert err.count("warning: cache not written") == warnings
    for check, (module, name, damaged) in DAMAGE.items():
        with mock.patch.object(module, name, damaged):
            for fmt in ("text", "json"):
                argv = ["verify", "--check", check, "--n", "3", "--format", fmt]
                code, out, _ = _in_process(argv)
                assert code == 1 and "fail" in out, argv


def _own_lines(node: ast.stmt) -> set[int]:
    # a compound statement runs its header's lines, a simple one all of its own
    body = getattr(node, "body", None)
    if not isinstance(body, list):
        return set(range(node.lineno, node.end_lineno + 1))
    start = min([node.lineno, *(d.lineno for d in getattr(node, "decorator_list", []))])
    return set(range(start, max(node.lineno, body[0].lineno - 1) + 1))


def _is_docstring(node: ast.AST, parent: ast.AST) -> bool:
    return (
        node is getattr(parent, "body", [None])[0]
        and isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    )


def body_statements() -> list[tuple[str, str, str, set[int]]]:
    """(file, function, first line, own lines) of every statement in a
    function body under src/narayana.  The function is the qualified name
    of the innermost one that holds the statement, and the first line has
    no trailing comment.  Docstrings compile to no code, and a try
    statement to none of its own: the statements of its blocks stand for
    it."""
    out = []
    for path in sorted(SRC.glob("*.py")):
        lines = path.read_text(encoding="utf-8").splitlines()
        module = "narayana" if path.stem == "__init__" else f"narayana.{path.stem}"

        def visit(parent: ast.AST, name: str, in_function: bool) -> None:
            for node in ast.iter_child_nodes(parent):
                if not isinstance(node, (ast.stmt, ast.excepthandler)):
                    continue  # an expression holds no statement
                if in_function and isinstance(node, ast.stmt) and not isinstance(node, ast.Try):
                    if not _is_docstring(node, parent):
                        text = lines[node.lineno - 1].split("  # ")[0].strip()
                        out.append((str(path), name, text, _own_lines(node)))
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    visit(node, f"{name}.{node.name}", not isinstance(node, ast.ClassDef))
                else:
                    visit(node, name, in_function)

        visit(ast.parse("\n".join(lines)), module, False)
    return out


def test_every_statement_serves_a_request(tmp_path):
    for info in pkgutil.iter_modules(narayana.__path__, "narayana."):
        importlib.import_module(info.name)
    statements = body_statements()
    files = {path for path, *_ in statements}
    # a cached result from another test would hide the body of its function
    for info in pkgutil.iter_modules(narayana.__path__, "narayana."):
        for value in vars(sys.modules[info.name]).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()
    ran: set[tuple[str, int]] = set()

    def local(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def trace(frame, event, arg):
        return local if frame.f_code.co_filename in files else None

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        serve_everything(tmp_path)
    finally:
        sys.settrace(previous)
    unreached = {
        (function, text)
        for path, function, text, lines in statements
        if not any((path, line) in ran for line in lines)
    }
    # the allowlist cannot go stale: each entry names a statement still unreached
    assert sorted(set(ALLOWED_LINES) - unreached) == [], "allowed but gone or reached"
    assert sorted(unreached - set(ALLOWED_LINES)) == [], "reached by no request"


def statements_under_src(kind: type) -> list[str]:
    """file:line of every statement of the given ast type under src/narayana."""
    return [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(narayana.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, kind)
    ]


def test_no_assert_statement_under_src():
    # a check in an assert would vanish under python -O
    assert statements_under_src(ast.Assert) == []


def test_no_global_statement_under_src():
    # a module binds its names once, at import; no call rebinds one
    assert statements_under_src(ast.Global) == []


def test_no_frozenset_under_src():
    # a rank set is one int mask from the flag h-table to every check; the
    # witnesses alone list its ranks
    found = [
        f"{path.name}:{number}"
        for path in sorted(Path(narayana.__file__).parent.glob("*.py"))
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if "frozenset" in line
    ]
    assert found == []


def self_calls_under_src() -> list[str]:
    """module.function of every function under src/narayana whose body, its
    nested functions included, calls it by name, or as a method on self."""
    out = []
    for path in sorted(Path(narayana.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                isinstance(call, ast.Call)
                and (
                    isinstance(call.func, ast.Name) and call.func.id == node.name
                    or isinstance(call.func, ast.Attribute)
                    and call.func.attr == node.name
                    and isinstance(call.func.value, ast.Name)
                    and call.func.value.id == "self"
                )
                for call in ast.walk(node)
            ):
                out.append(f"{path.stem}.{node.name}")
    return out


def test_no_function_under_src_calls_itself():
    # a recursion fails with RecursionError at a depth no guard names
    assert self_calls_under_src() == sorted(SELF_CALLS)


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def _free_reads(scope: ast.AST, unused: list[str], where: str) -> set[str]:
    """The names that scope reads and does not import itself, its nested
    scopes and the names in string annotations included; appends to unused
    where:line name for each name that scope imports and never reads."""
    imported: dict[str, int] = {}
    reads: set[str] = set()
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        for field in ("annotation", "returns"):
            text = getattr(node, field, None)
            if isinstance(text, ast.Constant) and isinstance(text.value, str):
                parsed = ast.parse(text.value, mode="eval")
                reads |= {name.id for name in ast.walk(parsed) if isinstance(name, ast.Name)}
        if isinstance(node, _SCOPES):
            reads |= _free_reads(node, unused, where)
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[(alias.asname or alias.name).partition(".")[0]] = node.lineno
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads.add(node.id)
        stack.extend(ast.iter_child_nodes(node))
    unused += [f"{where}:{line} {name}" for name, line in imported.items() if name not in reads]
    return reads - imported.keys()


def test_no_unused_import_under_src():
    # an import, at module or function level, is read in its own scope
    unused: list[str] = []
    for path in sorted(Path(narayana.__file__).parent.glob("*.py")):
        _free_reads(ast.parse(path.read_text(encoding="utf-8")), unused, path.name)
    assert sorted(unused) == []
