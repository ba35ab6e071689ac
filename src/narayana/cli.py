"""Command-line surface: distribution tables, q-polynomials, verification
reports, and Hasse-diagram exports, all machine readable.

Exit codes are a stable contract: 0 success, 1 verification failure,
2 usage error.  With identical inputs and --seed the standard output is
byte identical across runs; wall-clock timing goes to stderr only.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import random
import sys
import time
from collections.abc import Sequence

from . import __version__

# Each handler imports the library modules it calls, so that a request
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
    print(json.dumps(payload, indent=2, sort_keys=True))


def cmd_narayana(args: argparse.Namespace) -> int:
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


def cmd_qnarayana(args: argparse.Namespace) -> int:
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
    temp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(temp, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        os.replace(temp, path)
    except OSError as exc:
        with contextlib.suppress(OSError):
            os.remove(temp)
        _stderr(f"narayana: warning: cache not written: {exc}\n")


def _dist_table(n: int, stat: str, costat: str | None) -> list:
    from .dyck import DyckPath, distribution, joint_q

    if costat is None:
        return [[k, count] for k, count in distribution(n, stat).items()]
    wrt = DyckPath("vh" * n) if costat == "maj_w" else None
    return [[k, list(p.coeffs)] for k, p in joint_q(n, stat, costat, wrt=wrt).items()]


def cmd_dist(args: argparse.Namespace) -> int:
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


def cmd_verify(args: argparse.Namespace) -> int:
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
        print(f"check {check}")
        for key in sorted(parameters):
            print(f"{key.replace('_', '-')} {parameters[key]}")
        print(f"verdict {verdict}")
        for witness in witnesses:
            print(f"witness {json.dumps(witness, sort_keys=True)}")
    _stderr(f"elapsed {elapsed:.3f}s\n")
    return 0 if verdict == "pass" else 1


def cmd_omega(args: argparse.Namespace) -> int:
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


class _Parser(argparse.ArgumentParser):
    # argparse ignores a failed write, and --help and --version exit before
    # main flushes stdout; so their text is written and flushed here, and a
    # full or closed stdout reaches main's handler like any other output.
    # Usage errors go to stderr like every other diagnostic.
    def _print_message(self, message: str, file=None) -> None:
        if file is sys.stdout:
            file.write(message)
            file.flush()
        elif message:
            _stderr(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="narayana",
        description="Exact Narayana, q-Narayana, and shelling computations on Dyck paths.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("narayana", help="row of Narayana numbers with its Catalan sum")
    p.add_argument("--n", type=int, required=True, help="semilength, 1 <= n <= 60")
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p.set_defaults(func=cmd_narayana)

    p = sub.add_parser("qnarayana", help="q-Narayana polynomial by one route or all")
    p.add_argument("--n", type=int, required=True, help="semilength, 1 <= n <= 60")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--route", choices=(*ROUTES, "all"), default="closed")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_qnarayana)

    p = sub.add_parser("dist", help="distribution table of a path statistic")
    p.add_argument("--n", type=int, required=True, help="semilength, 1 <= n <= 12")
    p.add_argument("--stat", choices=("des", "hp", "ea", "lnfs", "da"), required=True)
    p.add_argument(
        "--q",
        action="store_true",
        help="refine counts by the statistic's paired major-index co-statistic",
    )
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p.add_argument(
        "--cache-dir",
        help="directory for cached tables; NARAYANA_CACHE_DIR is the fallback",
    )
    p.set_defaults(func=cmd_dist)

    p = sub.add_parser("verify", help="run one verification check and report pass/fail")
    p.add_argument("--check", choices=VERIFY_CHECKS, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument(
        "--ref-path",
        help="vh-string or 'random' (main-theorem only); default v^n h^n",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=1, help="1 <= samples <= 200")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("omega", help="Hasse diagram of the rewriting order on paths")
    p.add_argument("--n", type=int, required=True, help="semilength, 1 <= n <= 8")
    p.add_argument("--format", choices=("dot", "json"), default="dot")
    p.set_defaults(func=cmd_omega)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()
    except OSError as exc:
        # every other OSError is handled where it arises, so this is stdout:
        # a full device or a closed pipe
        _discard(sys.stdout)
        return _usage(f"cannot write output: {exc}")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
