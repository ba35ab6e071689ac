"""Command-line surface: distribution tables, q-polynomials, verification
reports, and Hasse-diagram exports, all machine readable.

Exit codes are a stable contract: 0 success, 1 verification failure,
2 usage error.  With identical inputs and --seed the standard output is
byte identical across runs; wall-clock timing goes to stderr only.
"""

from __future__ import annotations

import importlib
import os
import sys
import time
from types import SimpleNamespace

from . import __version__

# Each handler imports the library modules it calls, and the standard
# library's json, csv and random only where it uses them, so that a request
# loads, and without bytecode compiles, only those.  Names the parser needs
# are copied here and pinned to the library by tests/test_cli.py.
CLOSED_FORM_LIMIT = 60
ENUMERATION_LIMIT = 12
# route -> (module, function) of the library routine that computes it; key
# order is the order --help lists the routes in
ROUTES = {
    "closed": ("qpoly", "q_narayana_closed"),
    "schur-ssyt": ("tableaux", "q_narayana_ssyt"),
    "schur-hook": ("tableaux", "q_narayana_hook"),
    "enumerate": ("tableaux", "q_narayana_enumerate"),
}
ENUMERATIVE_ROUTES = ("enumerate", "schur-ssyt")
SAMPLES_LIMIT = 200
VERIFY_LIMITS = {
    "main-theorem": 6,  # posets.THEOREM_GUARD
    "preshelling": 5,
    "ssyt": 8,
    "q-identity": 8,
    "parth": 8,
}
# check -> (module, function) of the library routine that returns its
# witnesses; main-theorem also takes the reference paths.  Key order is the
# order --help lists the checks in.
VERIFY_CHECKS = {
    "main-theorem": ("posets", "verify_theorem_main"),
    "ssyt": ("tableaux", "verify_ssyt"),
    "preshelling": ("shelling", "verify_preshelling"),
    "q-identity": ("tableaux", "verify_q_identity"),
    "parth": ("shelling", "verify_parth"),
}
Q_PAIRINGS = {"des": "maj", "lnfs": "maj_l", "hp": "maj_w"}


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
    try:
        sys.stderr.write(text)
        sys.stderr.flush()
    except OSError:
        _discard(sys.stderr)


def _usage(message: str) -> int:
    _stderr(f"narayana: error: {message}\n")
    return 2


def _library(module: str, function: str):
    """The named function of a library module, imported on first use."""
    return getattr(importlib.import_module(f".{module}", __package__), function)


def _emit_json(payload: dict) -> None:
    import json

    print(json.dumps(payload, indent=2, sort_keys=True))


def cmd_narayana(args: SimpleNamespace) -> int:
    """Row of N(n, k) for k = 0..n-1 plus the Catalan row sum."""
    n = args.n
    if not 1 <= n <= CLOSED_FORM_LIMIT:
        return _usage(f"n out of range: expected 1 <= n <= {CLOSED_FORM_LIMIT}, got {n}")
    from .qpoly import catalan, narayana

    row = [narayana(n, k) for k in range(n)]
    total = catalan(n)
    if args.format == "json":
        _emit_json({"command": "narayana", "n": n, "row": row, "sum": total})
    elif args.format == "csv":
        import csv

        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["k", "narayana"])
        for k, value in enumerate(row):
            writer.writerow([k, value])
        writer.writerow(["sum", total])
    else:
        print(", ".join(str(value) for value in row))
        print(f"sum {total}")
    return 0


def cmd_qnarayana(args: SimpleNamespace) -> int:
    """One q-Narayana polynomial, by a single route or all routes compared."""
    n, k, route = args.n, args.k, args.route
    if n < 1:
        return _usage(f"n must be positive, got {n}")
    if k < 0:
        return _usage(f"k must be nonnegative, got {k}")
    if route in ENUMERATIVE_ROUTES and n > ENUMERATION_LIMIT:
        return _usage(f"route {route} enumerates and is limited to n <= {ENUMERATION_LIMIT}")
    if n > CLOSED_FORM_LIMIT:
        return _usage(f"route {route} is limited to n <= {CLOSED_FORM_LIMIT}")
    if route != "all":
        poly = _library(*ROUTES[route])(n, k)
        if args.format == "json":
            _emit_json(
                {
                    "coefficients": list(poly.coeffs),
                    "command": "qnarayana",
                    "k": k,
                    "n": n,
                    "route": route,
                }
            )
        else:
            print(poly)
        return 0
    names = ["closed", "schur-hook"]
    if n <= ENUMERATION_LIMIT:
        names += list(ENUMERATIVE_ROUTES)
    routes = {name: _library(*ROUTES[name])(n, k) for name in names}
    verdict = "pass" if len({p.coeffs for p in routes.values()}) == 1 else "fail"
    if args.format == "json":
        _emit_json(
            {
                "command": "qnarayana",
                "k": k,
                "n": n,
                "routes": {name: list(p.coeffs) for name, p in routes.items()},
                "verdict": verdict,
            }
        )
    else:
        for name in sorted(routes):
            print(f"{name}: {routes[name]}")
        print(f"verdict {verdict}")
    return 0 if verdict == "pass" else 1


def _cache_file(root: str | None, n: int, stat: str, with_q: bool) -> str | None:
    if not root:
        return None
    marker = "-q" if with_q else ""
    return os.path.join(root, f"dist-{__version__}-n{n}-{stat}{marker}.json")


def _is_table(table: object, with_q: bool) -> bool:
    """A list of [k, entry] pairs: an int k and an int count, or with_q a
    list of int coefficients."""
    return isinstance(table, list) and all(
        isinstance(row, list)
        and len(row) == 2
        and isinstance(row[1], list) == with_q
        and all(type(x) is int for x in [row[0], *(row[1] if with_q else row[1:])])
        for row in table
    )


def _load_cached(path: str | None, header: dict) -> dict | None:
    """The cached payload of the request that header describes, or None when
    the file is missing, unreadable or holds another request's table."""
    if path is None:
        return None
    import json

    try:
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, ValueError):
        return None
    if isinstance(payload, dict) and all(payload.get(k) == v for k, v in header.items()):
        if _is_table(payload.get("table"), header["q"]):
            return dict(header, table=payload["table"])
    return None


def _store_cached(path: str | None, payload: dict) -> None:
    """Write through a temp file and os.replace, so that a reader never sees a
    partial table; a failure leaves no file and is only a warning."""
    if path is None:
        return
    import json

    temp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(temp, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        os.replace(temp, path)
    except OSError as exc:
        try:
            os.remove(temp)
        except OSError:
            pass
        _stderr(f"narayana: warning: cache not written: {exc}\n")


def _dist_table(n: int, stat: str, costat: str | None) -> list:
    from .dyck import DyckPath, distribution, joint_q

    if costat is None:
        return [[k, count] for k, count in distribution(n, stat).items()]
    wrt = DyckPath("vh" * n) if costat == "maj_w" else None
    return [[k, list(p.coeffs)] for k, p in joint_q(n, stat, costat, wrt=wrt).items()]


def cmd_dist(args: SimpleNamespace) -> int:
    """Exact value-to-count table of one statistic, optionally q-refined."""
    n, stat = args.n, args.stat
    if not 1 <= n <= ENUMERATION_LIMIT:
        return _usage(f"n out of range: expected 1 <= n <= {ENUMERATION_LIMIT}, got {n}")
    costat = None
    if args.q:
        costat = Q_PAIRINGS.get(stat)
        if costat is None:
            return _usage(f"statistic {stat} has no paired co-statistic for --q")
    root = args.cache_dir or os.environ.get("NARAYANA_CACHE_DIR")
    if root:
        try:
            os.makedirs(root, exist_ok=True)
        except OSError as exc:
            return _usage(f"unusable cache directory: {exc}")
    header = {"command": "dist", "costat": costat, "n": n, "q": args.q, "stat": stat}
    cache = _cache_file(root, n, stat, args.q)
    payload = _load_cached(cache, header)
    if payload is None:
        payload = dict(header, table=_dist_table(n, stat, costat))
        _store_cached(cache, payload)
    if args.format == "json":
        _emit_json(payload)
    elif args.format == "csv":
        import csv
        import json

        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["value", "coefficients" if payload["q"] else "count"])
        for k, entry in payload["table"]:
            # a count prints as itself, coefficients as a compact JSON array
            writer.writerow([k, json.dumps(entry, separators=(",", ":"))])
    elif payload["q"]:
        from .qpoly import QPoly

        for k, coeffs in payload["table"]:
            print(f"{k}  {QPoly(coeffs)}")
    else:
        for k, count in payload["table"]:
            print(f"{k}  {count}")
    return 0


def cmd_verify(args: SimpleNamespace) -> int:
    """Run one verification check; exit 1 with witnesses when it fails."""
    check, n = args.check, args.n
    limit = VERIFY_LIMITS[check]
    if not 1 <= n <= limit:
        return _usage(f"check {check} supports 1 <= n <= {limit}, got {n}")
    if not 1 <= args.samples <= SAMPLES_LIMIT:
        return _usage(f"samples must be 1 to {SAMPLES_LIMIT}, got {args.samples}")
    if args.ref_path is not None and check != "main-theorem":
        return _usage(f"--ref-path applies to check main-theorem only, not {check}")
    parameters: dict = {"n": n}
    refs = None
    if check == "main-theorem":
        from .dyck import DyckPath, random_path

        ref = args.ref_path if args.ref_path is not None else "v" * n + "h" * n
        if ref == "random":
            import random

            parameters.update({"ref_path": "random", "samples": args.samples, "seed": args.seed})
            rng = random.Random(args.seed)
            refs = [random_path(n, rng) for _ in range(args.samples)]
        else:
            try:
                w = DyckPath(ref)
            except ValueError as exc:
                return _usage(f"bad ref-path: {exc}")
            if w.n != n:
                return _usage(f"ref-path has semilength {w.n}, expected {n}")
            parameters["ref_path"] = w.word
            refs = [w]
    run = _library(*VERIFY_CHECKS[check])
    started = time.monotonic()
    witnesses = run(n) if refs is None else run(n, refs)
    elapsed = time.monotonic() - started
    verdict = "pass" if not witnesses else "fail"
    if args.format == "json":
        _emit_json(
            {
                "check": check,
                "command": "verify",
                "parameters": parameters,
                "verdict": verdict,
                "witnesses": witnesses,
            }
        )
    else:
        import json

        print(f"check {check}")
        for key in sorted(parameters):
            print(f"{key.replace('_', '-')} {parameters[key]}")
        print(f"verdict {verdict}")
        for witness in witnesses:
            print(f"witness {json.dumps(witness, sort_keys=True)}")
    _stderr(f"elapsed {elapsed:.3f}s\n")
    return 0 if verdict == "pass" else 1


def cmd_omega(args: SimpleNamespace) -> int:
    """Hasse diagram of the rewriting order, as DOT or JSON."""
    from .dyck import ls_set
    from .shelling import OMEGA_GUARD, omega_n

    n = args.n
    if not 1 <= n <= OMEGA_GUARD:
        return _usage(f"n out of range: expected 1 <= n <= {OMEGA_GUARD}, got {n}")
    om = omega_n(n)
    words = om.labels
    annotations = {w: sorted(ls_set(w)) for w in words}
    edges = [(words[a], words[b]) for a, b in sorted(om.covers())]
    if args.format == "json":
        _emit_json(
            {
                "command": "omega",
                "edges": [list(edge) for edge in edges],
                "n": n,
                "nodes": [{"ls": annotations[w], "word": w} for w in words],
            }
        )
    else:
        print(f"digraph omega_{n} {{")
        print("  rankdir = BT;")
        for w in words:
            inner = ", ".join(str(i) for i in annotations[w])
            print(f'  "{w}" [label="{w}\\nLS {{{inner}}}"];')
        for a, b in edges:
            print(f'  "{a}" -> "{b}";')
        print("}")
    return 0


HELP = ("-h", "--help")
HELP_COLUMN = 22  # the widest option column that --help keeps on one line


class UsageError(Exception):
    """A refused command line; its message follows "narayana: error: "."""


def build_parser() -> dict:
    """The command-line surface as one table, which parsing, --help and the
    tests read: command -> (help line, handler, options), and option ->
    (converter or choices, default, required, help).  The converter bool
    marks a flag, which takes no value."""
    formats = ("text", "json")
    return {
        "narayana": ("row of Narayana numbers with its Catalan sum", cmd_narayana, {
            "--n": (int, None, True, f"semilength, 1 <= n <= {CLOSED_FORM_LIMIT}"),
            "--format": ((*formats, "csv"), "text", False, "output format"),
        }),
        "qnarayana": ("q-Narayana polynomial by one route or all", cmd_qnarayana, {
            "--n": (int, None, True, f"semilength, 1 <= n <= {CLOSED_FORM_LIMIT}"),
            "--k": (int, None, True, "number of descents, k >= 0"),
            "--route": ((*ROUTES, "all"), "closed", False, "one route, or all compared"),
            "--format": (formats, "text", False, "output format"),
        }),
        "dist": ("distribution table of a path statistic", cmd_dist, {
            "--n": (int, None, True, f"semilength, 1 <= n <= {ENUMERATION_LIMIT}"),
            "--stat": (("des", "hp", "ea", "lnfs", "da"), None, True, "path statistic"),
            "--q": (bool, False, False, "refine counts by the statistic's paired "
                    "major-index co-statistic"),
            "--format": ((*formats, "csv"), "text", False, "output format"),
            "--cache-dir": (str, None, False, "directory for cached tables; "
                            "NARAYANA_CACHE_DIR is the fallback"),
        }),
        "verify": ("run one verification check and report pass/fail", cmd_verify, {
            "--check": (tuple(VERIFY_CHECKS), None, True, "the check to run"),
            "--n": (int, None, True, "semilength, 1 <= n <= the check's limit"),
            "--ref-path": (str, None, False, "vh-string or 'random' (main-theorem only); "
                           "default v^n h^n"),
            "--seed": (int, 0, False, "seed of the random reference paths"),
            "--samples": (int, 1, False, f"1 <= samples <= {SAMPLES_LIMIT}"),
            "--format": (formats, "text", False, "output format"),
        }),
        "omega": ("Hasse diagram of the rewriting order on paths", cmd_omega, {
            "--n": (int, None, True, "semilength, 1 <= n <= 8"),
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


def _help(commands: dict, command: str | None) -> str:
    """The --help text of the program, or of one command, from the table."""
    rows = [("-h, --help", "show this help and exit")]
    if command is None:
        usage = "[-h] [--version] command ..."
        summary = "Exact Narayana, q-Narayana, and shelling computations on Dyck paths."
        sections = {"commands": [(name, entry[0]) for name, entry in commands.items()]}
        rows.append(("--version", "show the version and exit"))
    else:
        summary, _, options = commands[command]
        usage, sections = f"{command} [-h]", {}
        for name, (kind, default, required, text) in options.items():
            if kind is bool:
                spelled = name
            elif isinstance(kind, tuple):
                spelled = f"{name} {{{','.join(kind)}}}"
            else:
                spelled = f"{name} {name[2:].upper().replace('-', '_')}"
            usage += f" {spelled}" if required else f" [{spelled}]"
            if default is not None and kind is not bool:
                text = f"{text} (default {default})"
            rows.append((spelled, text))
    sections["options"] = rows
    blocks = [f"usage: narayana {usage}", summary]
    for title, block in sections.items():
        # a left column wider than HELP_COLUMN puts its help on the next line
        width = min(max(len(left) for left, _ in block), HELP_COLUMN)
        lines = [f"{title}:"]
        for left, right in block:
            if len(left) > width:
                lines += [f"  {left}", f"  {'':{width}}  {right}"]
            else:
                lines.append(f"  {left:{width}}  {right}")
        blocks.append("\n".join(line.rstrip() for line in lines))
    return "\n\n".join(blocks)


def parse(commands: dict, argv: list[str]) -> tuple | None:
    """(handler, arguments) of the command that argv asks for, read by the
    table; None once --help or --version is printed.  Accepts what argparse
    accepts: --opt value, --opt=value, the unique prefix of a long option,
    and a negative number as a value.  A refused argv raises UsageError."""
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
        print(f"narayana {__version__}" if name == "--version" else _help(commands, None))
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
                print(_help(commands, command))
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
        code = 0 if request is None else request[0](request[1])
        sys.stdout.flush()
    except UsageError as exc:
        return _usage(str(exc))
    except OSError as exc:
        # every other OSError is handled where it arises, so this is stdout:
        # a full device or a closed pipe
        _discard(sys.stdout)
        return _usage(f"cannot write output: {exc}")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
