"""Every function, method and property under src/narayana serves some request.

One deck of CLI requests runs in-process under sys.setprofile and records
the code object of every Python frame it enters.  The deck covers every
subcommand, check, route and format, --help, a random reference path, a
cache miss and a hit, a closed-form request long enough for the Kronecker
product, one request in abbreviated form, one request refused by the
general reader and one by its handler, and one whose stdout and stderr are
full; the process entry run() serves --version first, with its exit
handlers and os._exit replaced, so that the test process goes on.  A
function or method that no request reaches belongs in tests/oracles.py or
nowhere, unless ALLOWED names it with its reason.
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
import functools
import importlib
import io
import os
import pkgutil
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest

import narayana
from narayana.cli import main, run

_VALUE = "value protocol: tests compare, hash and print instances"
_TRACER = "perfbench/tracing.py reads it for a per-layer metric"
# what no request enters and yet stays, each with its reason
ALLOWED = {
    "narayana.qpoly.QPoly.__eq__": _VALUE,
    "narayana.qpoly.QPoly.__hash__": _VALUE,
    "narayana.qpoly.QPoly.__repr__": _VALUE,
    "narayana.qpoly.QPoly.degree": _TRACER,
}
# the functions that call themselves, each with its reason
SELF_CALLS = {"cli_common.json_text": "its depth is the payload's"}


def deck(cache_dir: str) -> list[list[str]]:
    requests = [["narayana", "--n", "5", "--format", fmt] for fmt in ("text", "json", "csv")]
    for route in ("closed", "schur-ssyt", "schur-hook", "enumerate", "all"):
        for fmt in ("text", "json"):
            requests.append(["qnarayana", "--n", "4", "--k", "1", "--route", route, "--format", fmt])
    requests.append(["qnarayana", "--n", "20", "--k", "9", "--route", "closed"])
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
    requests.append(["dist", "--n", "4", "--stat", "nope"])  # refused by the general reader: exit 2
    requests.append(["narayana", "--n", "0"])  # refused by its handler: exit 2
    return requests


class _Full(io.StringIO):
    """A stream on a full device, whose descriptor is a scratch file's."""

    def __init__(self, fd: int):
        super().__init__()
        self._fd = fd

    def write(self, text: str) -> int:
        raise OSError(errno.ENOSPC, "No space left on device")

    def fileno(self) -> int:
        return self._fd


def _raise_exit(code: int):
    raise SystemExit(code)


def _code_of(value):
    """The code object behind a function, a cache wrapper, a static or class
    method, a property or a cached_property; None for anything else."""
    if isinstance(value, (staticmethod, classmethod)):
        value = value.__func__
    elif isinstance(value, property):
        value = value.fget
    elif isinstance(value, functools.cached_property):
        value = value.func
    return getattr(getattr(value, "__wrapped__", value), "__code__", None)


def package_code() -> dict:
    """Qualified name -> code object of every function defined at module
    level in the package, and of every method and property its classes
    define."""
    out = {}
    for info in pkgutil.iter_modules(narayana.__path__, "narayana."):
        module = importlib.import_module(info.name)
        for name, value in vars(module).items():
            if getattr(value, "__module__", None) != module.__name__:
                continue
            members = vars(value).items() if isinstance(value, type) else [(None, value)]
            for attr, member in members:
                code = _code_of(member)
                if code is not None:
                    qualified = f"{module.__name__}.{name}" + (f".{attr}" if attr else "")
                    out[qualified] = code
    return out


def test_every_function_and_method_serves_a_request(tmp_path):
    functions = package_code()
    assert "narayana.qpoly.QPoly.__mul__" in functions
    assert "narayana.shelling.PureComplex.vertex_facets" in functions
    # a cached result from another test would hide the body of its function
    for info in pkgutil.iter_modules(narayana.__path__, "narayana."):
        for value in vars(sys.modules[info.name]).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    codes = []
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        with (
            mock.patch.object(sys, "argv", ["narayana", "--version"]),
            mock.patch.object(atexit, "_run_exitfuncs"),
            mock.patch.object(os, "_exit", _raise_exit),
            contextlib.redirect_stdout(io.StringIO()),
            pytest.raises(SystemExit) as exit,
        ):
            run()
        codes.append(exit.value.code)
        for argv in deck(str(tmp_path)):
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                codes.append(main(argv))
        with tempfile.TemporaryFile() as scratch:
            full = _Full(scratch.fileno())
            with contextlib.redirect_stdout(full), contextlib.redirect_stderr(full):
                codes.append(main(["narayana", "--n", "3"]))
    finally:
        sys.setprofile(previous)
    assert codes[-3:] == [2, 2, 2]
    assert set(codes[:-3]) == {0}
    assert len(list(tmp_path.iterdir())) == 1
    # the allowlist cannot go stale: each entry exists and is still unreached
    assert sorted(set(ALLOWED) - set(functions)) == [], "allowed but gone"
    assert sorted(n for n in ALLOWED if functions.get(n) in entered) == [], "allowed but reached"
    unreached = sorted(name for name, code in functions.items() if code not in entered)
    assert unreached == sorted(ALLOWED), unreached


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
