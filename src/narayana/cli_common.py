"""What the command-line parser and the command handlers share: the limits
that both the --help text and the handlers read, the checks as (module,
function, largest n) rows, stderr and usage-error output, and a JSON writer.

The parser's table and the full-form reader live in narayana.cli, the
general reader and --help in narayana.cli_parse, and _library, which
imports each command's handler module, in the package root, so that a
request compiles only the reader it needs and its own command.  No module
imports narayana.cli: run as ``python -m narayana.cli`` it is __main__,
and that import would compile it a second time.  No library module is
imported here.

Every request is a fresh process, and one that runs without bytecode, as a
checkout with no __pycache__ under PYTHONDONTWRITEBYTECODE=1 does, compiles
each module it loads; so a request loads only what it calls.  No full-form
request loads argparse, gettext, locale or csv; --help, --version and every
other form load argparse, and with it gettext and locale.  json is loaded
only for verify's text witness lines, when a check fails, and by json_text
for a str that needs escaping, which no payload holds: --format json and
the cache files are written by json_text, a cache hit is read without
json, and dist --format csv quotes a field itself, as csv.writer does.
random is loaded only by verify --check main-theorem --ref-path random.  No
module imports typing or __future__: annotations use builtins and
collections.abc, and a name imported only inside the function that calls
it is a string annotation.
"""

import os
import sys

SAMPLES_LIMIT = 200
OMEGA_GUARD = 8  # the largest n of omega; the library's omega_n takes any n
# check -> (module, function, largest n) of the library routine that returns
# its witnesses; main-theorem also takes the reference paths.  Key order is
# the order --help lists the checks in.
VERIFY_CHECKS = {
    "main-theorem": ("posets", "verify_theorem_main", 6),
    "ssyt": ("tableaux", "verify_ssyt", 8),
    "preshelling": ("preshelling", "verify_preshelling", 5),
    "q-identity": ("tableaux", "verify_q_identity", 8),
    "parth": ("shelling", "verify_parth", 8),
}


class UsageError(Exception):
    """A refused command line; its message follows "narayana: error: "."""


def _discard(stream) -> None:
    # point the stream's descriptor at devnull, so that the interpreter's
    # final flush of what it holds unwritten is quiet and, for stderr, does
    # not turn the exit code into 120
    null = os.open(os.devnull, os.O_WRONLY)
    try:
        os.dup2(null, stream.fileno())
    finally:
        os.close(null)


def _stderr(text: str) -> None:
    """Write diagnostics to stderr.  A failed write is dropped: it never
    changes the exit code that the request's work and its stdout decided."""
    if sys.stderr is None:  # descriptor 2 was closed when the process started
        return
    try:
        sys.stderr.write(text)
        sys.stderr.flush()
    except OSError:
        _discard(sys.stderr)


def _usage(message: str) -> int:
    _stderr(f"narayana: error: {message}\n")
    return 2


def json_text(value, newline: str = "\n") -> str:
    """json.dumps(value, indent=2, sort_keys=True), without importing json,
    for what payloads hold: dicts with str keys, lists, tuples, ints, bools,
    None and strs.  newline is the line break followed by the indent of
    the line that value starts on.  A str that needs escaping, and any
    other type, is written by json itself."""
    if isinstance(value, str):
        if value.isascii() and value.isprintable() and '"' not in value and "\\" not in value:
            return f'"{value}"'
    elif value is None:
        return "null"
    elif value is True:
        return "true"
    elif value is False:
        return "false"
    elif isinstance(value, int):
        return int.__repr__(value)
    elif isinstance(value, (dict, list, tuple)):
        opening, closing = "{}" if isinstance(value, dict) else "[]"
        if not value:
            return opening + closing
        inner = newline + "  "
        if isinstance(value, dict):
            items = [f"{json_text(k)}: {json_text(v, inner)}" for k, v in sorted(value.items())]
        elif all(type(v) is int for v in value):  # a coefficient list, in one join
            items = map(str, value)
        else:
            items = [json_text(v, inner) for v in value]
        return opening + inner + ("," + inner).join(items) + newline + closing
    import json

    return json.dumps(value)


def _emit_json(payload: dict) -> None:
    sys.stdout.write(json_text(payload) + "\n")
