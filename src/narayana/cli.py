"""Command-line surface: distribution tables, q-polynomials, verification
reports, and Hasse-diagram exports, all machine readable.

Exit codes are a stable contract: 0 success, 1 verification failure,
2 usage error.  With identical inputs and --seed the standard output is
byte identical across runs; wall-clock timing goes to stderr only.
"""

import sys
from types import SimpleNamespace

from . import __version__
from .cli_common import (
    CLOSED_FORM_LIMIT,
    ENUMERATION_LIMIT,
    OMEGA_GUARD,
    ROUTES,
    SAMPLES_LIMIT,
    VERIFY_CHECKS,
    _discard,
    _library,
    _usage,
)

# The parser reads the table below and main() imports only the module of the
# command asked for (cli_help for --help), each handler with the library
# modules it calls and json, csv and random only where it uses them, so that
# a request loads, and without bytecode compiles, only those.

HELP = ("-h", "--help")


class UsageError(Exception):
    """A refused command line; its message follows "narayana: error: "."""


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
            "--stat": (("des", "hp", "ea", "lnfs", "da"), None, True, "path statistic"),
            "--q": (bool, False, False, "refine counts by the statistic's paired "
                    "major-index co-statistic"),
            "--format": ((*formats, "csv"), "text", False, "output format"),
            "--cache-dir": (str, None, False, "directory for cached tables; "
                            "NARAYANA_CACHE_DIR is the fallback"),
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


def _is_value(word: str) -> bool:
    # as argparse reads a word: an option unless it does not start with "-",
    # is "-" alone, holds a space or reads as a negative number
    if word[:1] != "-" or word == "-" or " " in word:
        return True
    whole, dot, fraction = word[1:].partition(".")  # -\d+ or -\d*\.\d+
    return fraction.isdecimal() and (not whole or whole.isdecimal()) if dot else whole.isdecimal()


def _option(word: str, names) -> tuple[str | None, str | None]:
    """The option of names that word spells, in full or as the unique
    prefix of a long option, with the value given after "=" if any;
    (None, None) for an unknown option."""
    if word in names:
        return word, None
    name, equals, value = word.partition("=")
    if equals and name in names:
        return name, value
    if word[1:2] != "-" and word[:2] in names:
        return word[:2], word[2:]  # a short option with its value attached
    if word.startswith("--"):
        matches = [option for option in names if option.startswith(name)]
        if len(matches) > 1:
            raise UsageError(f"ambiguous option: {name} could match {', '.join(matches)}")
        if matches:
            return matches[0], value if equals else None
    return None, None


def _convert(name: str, kind, value: str):
    if isinstance(kind, tuple):
        if value in kind:
            return value
        listed = ", ".join(map(repr, kind))
        raise UsageError(f"argument {name}: invalid choice: {value!r} (choose from {listed})")
    try:
        return kind(value)
    except ValueError:
        raise UsageError(f"argument {name}: invalid {kind.__name__} value: {value!r}") from None


def parse(commands: dict, argv: list[str]) -> tuple | None:
    """(handler, arguments) of the command that argv asks for, read by the
    table, the handler as its (module, function); None once --help or
    --version is printed.  Accepts what argparse accepts: --opt value,
    --opt=value, the unique prefix of a long option, and a negative number
    as a value.  A refused argv raises UsageError."""
    # as argparse does, every word up to "--" is read before any is used, so
    # that an ambiguous option is refused even after --help; the command is
    # the first word that is not an option
    end = argv.index("--") if "--" in argv else len(argv)
    marks = [None if _is_value(w) else _option(w, (*HELP, "--version")) for w in argv[:end]]
    at = marks.index(None) if None in marks else end
    unknown = []
    for word, (name, value) in zip(argv, marks[:at]):
        if name is None:
            unknown.append(word)
            continue
        if value is not None:
            raise UsageError(f"argument {name}: ignored explicit argument {value!r}")
        if name == "--version":
            print(f"narayana {__version__}")
        else:
            print(_library("cli_help", "help_text")(commands, None))
        return None
    if at == len(argv):
        raise UsageError("the following arguments are required: command")
    command = _convert("command", tuple(commands), argv[at])
    _, handler, options = commands[command]
    words = argv[at + 1 :]
    if "--" in words:
        # every word from "--" on is positional, which no command takes
        unknown += words[words.index("--") :]
        words = words[: words.index("--")]
    marks = [None if _is_value(w) else _option(w, (*HELP, *options)) for w in words]
    values = {name: spec[1] for name, spec in options.items()}
    i = 0
    while i < len(words):
        name, value = marks[i] or (None, None)
        i += 1
        if name is None:
            unknown.append(words[i - 1])
        elif name in HELP or options[name][0] is bool:
            if value is not None:
                raise UsageError(f"argument {name}: ignored explicit argument {value!r}")
            if name in HELP:
                print(_library("cli_help", "help_text")(commands, command))
                return None
            values[name] = True
        else:
            if value is None:
                if i == len(words) or marks[i] is not None:
                    raise UsageError(f"argument {name}: expected one argument")
                value, i = words[i], i + 1
            values[name] = _convert(name, options[name][0], value)
    # a required option has no default, and a given value is never None
    missing = [name for name, spec in options.items() if spec[2] and values[name] is None]
    if missing:
        raise UsageError(f"the following arguments are required: {', '.join(missing)}")
    if unknown:
        raise UsageError(f"unrecognized arguments: {' '.join(unknown)}")
    return handler, SimpleNamespace(**{n[2:].replace("-", "_"): v for n, v in values.items()})


def main(argv: list[str] | None = None) -> int:
    try:
        request = parse(build_parser(), sys.argv[1:] if argv is None else list(argv))
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
    """main() as the process: its heap frozen, so that the exit's collections skip it."""
    import gc
    code = main()
    gc.freeze()
    raise SystemExit(code)


if __name__ == "__main__":
    run()
