"""Every module-level function under src/narayana serves some request.

One deck of CLI requests runs in-process under sys.setprofile and records
the code object of every Python frame it enters.  The deck covers every
subcommand, check, route and format, a random reference path, a cache miss
and a hit, a closed-form request long enough for the Kronecker product and
one refused request.  A function that no request reaches belongs in
tests/oracles.py or nowhere.  Class methods are exempt: they are the value
types' algebra.
"""

import contextlib
import importlib
import io
import pkgutil
import sys

import narayana
from narayana.cli import main

# the reference division and its q-integer divisor: div_q_int calls them only
# to raise the error of an inexact division, which no valid request performs
EXEMPT = {"narayana.qpoly.exact_div", "narayana.qpoly.q_int"}


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
    requests.append(["narayana", "--n", "0"])  # refused: exit 2
    return requests


def module_functions() -> dict:
    """Qualified name -> code object of every function defined at module
    level in the package, through any functools.cache wrapper."""
    out = {}
    for info in pkgutil.iter_modules(narayana.__path__, "narayana."):
        module = importlib.import_module(info.name)
        for name, value in vars(module).items():
            fn = getattr(value, "__wrapped__", value)
            code = getattr(fn, "__code__", None)
            if code is not None and fn.__module__ == module.__name__:
                out[f"{module.__name__}.{name}"] = code
    return out


def test_every_module_function_serves_a_request(tmp_path):
    functions = module_functions()
    # a cached result from another test would hide the body of its function
    for name in functions:
        module, attr = name.rsplit(".", 1)
        cached = getattr(sys.modules[module], attr)
        if hasattr(cached, "cache_clear"):
            cached.cache_clear()
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
    finally:
        sys.setprofile(previous)
    assert codes.count(2) == 1 and codes[-1] == 2
    assert set(codes[:-1]) == {0}
    assert len(list(tmp_path.iterdir())) == 1
    unreached = sorted(name for name, code in functions.items() if code not in entered)
    assert unreached == sorted(EXEMPT), unreached
