"""Every function, method and property under src/narayana serves some request.

One deck of CLI requests runs in-process under sys.setprofile and records
the code object of every Python frame it enters.  The deck covers every
subcommand, check, route and format, --help, a random reference path, a
cache miss and a hit, a closed-form request long enough for the Kronecker
product, one refused request and one whose stdout and stderr are full.
A function or method that no request
reaches belongs in tests/oracles.py or nowhere, unless ALLOWED names it
with its reason.
"""

import contextlib
import errno
import functools
import importlib
import io
import pkgutil
import sys
import tempfile

import narayana
from narayana.cli import main

_VALUE = "value protocol: tests compare, hash and print instances"
_TRACER = "perfbench/tracing.py reads it for a per-layer metric"
# what no request enters and yet stays, each with its reason
ALLOWED = {
    "narayana.dyck.DyckPath.__eq__": _VALUE,
    "narayana.dyck.DyckPath.__hash__": _VALUE,
    "narayana.dyck.DyckPath.__repr__": _VALUE,
    "narayana.qpoly.QPoly.__eq__": _VALUE,
    "narayana.qpoly.QPoly.__hash__": _VALUE,
    "narayana.qpoly.QPoly.__repr__": _VALUE,
    "narayana.qpoly.QPoly.degree": _TRACER,
    "narayana.shelling.FacetOrder.relations": _TRACER,
}


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
    requests.append(["narayana", "--n", "0"])  # refused: exit 2
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
        for argv in deck(str(tmp_path)):
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                codes.append(main(argv))
        with tempfile.TemporaryFile() as scratch:
            full = _Full(scratch.fileno())
            with contextlib.redirect_stdout(full), contextlib.redirect_stderr(full):
                codes.append(main(["narayana", "--n", "3"]))
    finally:
        sys.setprofile(previous)
    assert codes[-2:] == [2, 2]
    assert set(codes[:-2]) == {0}
    assert len(list(tmp_path.iterdir())) == 1
    # the allowlist cannot go stale: each entry exists and is still unreached
    assert sorted(set(ALLOWED) - set(functions)) == [], "allowed but gone"
    assert sorted(n for n in ALLOWED if functions.get(n) in entered) == [], "allowed but reached"
    unreached = sorted(name for name, code in functions.items() if code not in entered)
    assert unreached == sorted(ALLOWED), unreached
