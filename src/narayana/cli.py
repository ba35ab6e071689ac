"""Command-line surface: distribution tables, q-polynomials, verification
reports, and Hasse-diagram exports, all machine readable.

Exit codes are a stable contract: 0 success, 1 verification failure,
2 usage error.  With identical inputs and --seed the standard output is
byte identical across runs; wall-clock timing goes to stderr only.
"""

import sys
from types import SimpleNamespace

from . import CLOSED_FORM_LIMIT, ENUMERATION_LIMIT, ROUTES, STATISTICS, _library
from .cli_common import OMEGA_GUARD, SAMPLES_LIMIT, VERIFY_CHECKS, UsageError, _discard, _usage

# main() reads a full-form command line by the table below, and any other,
# --help among them, by cli_parse, with argparse; then it imports only the
# module of the command asked for (see cli_common on what a request loads).


def build_parser() -> dict:
    """The command-line surface as one table, which parsing, --help and the
    tests read: command -> (help line, (module, function) of its handler,
    options), and option -> (converter or choices, default, required, help).
    The converter bool marks a flag, which takes no value."""
    formats = ("text", "json")
    return {
        "narayana": ("row of Narayana numbers with its Catalan sum",
                     ("cli_polys", "cmd_narayana"), {
            "--n": (int, None, True, f"semilength, 1 <= n <= {CLOSED_FORM_LIMIT}"),
            "--format": ((*formats, "csv"), "text", False, "output format"),
        }),
        "qnarayana": ("q-Narayana polynomial by one route or all", ("cli_polys", "cmd_qnarayana"), {
            "--n": (int, None, True, f"semilength, 1 <= n <= {CLOSED_FORM_LIMIT}"),
            "--k": (int, None, True, "number of descents, k >= 0"),
            "--route": ((*ROUTES, "all"), "closed", False, "one route, or all compared"),
            "--format": (formats, "text", False, "output format"),
        }),
        "dist": ("distribution table of a path statistic", ("cli_dist", "cmd_dist"), {
            "--n": (int, None, True, f"semilength, 1 <= n <= {ENUMERATION_LIMIT}"),
            "--stat": (tuple(STATISTICS), None, True, "path statistic"),
            "--q": (bool, False, False, "refine counts by the statistic's paired "
                    "major-index co-statistic"),
            "--format": ((*formats, "csv"), "text", False, "output format"),
            "--cache-dir": (str, None, False, "directory for cached tables"),
        }),
        "verify": ("run one verification check and report pass/fail",
                   ("cli_verify", "cmd_verify"), {
            "--check": (tuple(VERIFY_CHECKS), None, True, "the check to run"),
            "--n": (int, None, True, "semilength, 1 <= n <= the check's limit"),
            "--ref-path": (str, None, False, "vh-string or 'random' (main-theorem only); "
                           "default v^n h^n"),
            "--seed": (int, 0, False, "seed of the random reference paths"),
            "--samples": (int, 1, False, f"1 <= samples <= {SAMPLES_LIMIT}"),
            "--format": (formats, "text", False, "output format"),
        }),
        "omega": ("Hasse diagram of the rewriting order on paths", ("cli_omega", "cmd_omega"), {
            "--n": (int, None, True, f"semilength, 1 <= n <= {OMEGA_GUARD}"),
            "--format": (("dot", "json"), "dot", False, "output format"),
        }),
    }


def _full_form(commands: dict, argv: list[str]) -> tuple | None:
    """(handler, arguments) of a full-form argv: the command, then options
    by their exact names, each value the next word, all required ones given
    and every value accepted; None for any other argv, which parse reads."""
    if not argv or argv[0] not in commands:
        return None
    _, handler, options = commands[argv[0]]
    values = {name: spec[1] for name, spec in options.items()}
    words = iter(argv[1:])
    try:
        for name in words:
            kind = options[name][0]
            if kind is bool:
                values[name] = True
                continue
            value = next(words)
            # a word that starts with "-" is an option to parse, even "-1"
            if value[:1] == "-" or isinstance(kind, tuple) and value not in kind:
                return None
            values[name] = value if isinstance(kind, tuple) else kind(value)
    except (KeyError, StopIteration, ValueError):  # an unknown option, a missing or bad value
        return None
    if any(spec[2] and values[name] is None for name, spec in options.items()):
        return None
    return handler, SimpleNamespace(**{n[2:].replace("-", "_"): v for n, v in values.items()})


def main(argv: list[str] | None = None) -> int:
    if sys.stdout is None:  # descriptor 1 was closed when the process started
        return _usage("cannot write output: stdout is closed")
    try:
        argv = sys.argv[1:] if argv is None else list(argv)
        commands = build_parser()
        request = _full_form(commands, argv) or _library("cli_parse", "parse")(commands, argv)
        code = 0 if request is None else _library(*request[0])(request[1])
        sys.stdout.flush()
    except UsageError as exc:
        return _usage(str(exc))
    except OSError as exc:
        # every other OSError is handled where it arises, so this is stdout:
        # a full device or a closed pipe
        _discard(sys.stdout)
        return _usage(f"cannot write output: {exc}")
    return code


def run() -> None:
    """main() as the process: the entry of ``python -m narayana.cli`` and of
    the narayana script.  It ends without tearing the interpreter down,
    whose teardown frees what the OS reclaims at once anyway: it runs the
    exit handlers with atexit._run_exitfuncs(), flushes stdout and then
    stderr, as finalization would, then calls os._exit with main's code.
    atexit is run here because os._exit skips it, so a handler that a site
    hook or a caller registered, as coverage tools do, runs once, after all
    of the request's stdout.  If a flush fails (output left unflushed on a
    full device or a closed pipe, or a stream closed or None), it raises
    SystemExit(code) and finalization takes the exit as before: its own
    flush of a failed stream exits 120.  main flushes stdout itself and
    turns a failed write into exit 2, so only output that an exit handler
    writes reaches that fallback.  No request starts a thread.

    main(argv) never exits the process or runs the exit handlers, so tests
    and library callers serve requests in-process.  A profiler that reports
    after the module returns, as ``python -m cProfile -m narayana.cli``
    does, reports nothing; profile main in-process instead, as in
    cProfile.run("main(['omega', '--n', '8'])", sort="tottime")."""
    import atexit
    import os
    code = main()
    atexit._run_exitfuncs()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except (AttributeError, OSError, ValueError):  # a stream None, failed or closed
        raise SystemExit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
