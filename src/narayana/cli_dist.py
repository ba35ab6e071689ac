"""The `dist` command: the exact value-to-count table of one path statistic,
optionally q-refined, kept in an optional cache directory."""

import os
import sys
from types import SimpleNamespace

from . import __version__
from .cli_common import ENUMERATION_LIMIT, _emit_json, _library, _stderr, _usage, json_text

Q_PAIRINGS = {"des": "maj", "lnfs": "maj_l", "hp": "maj_w"}


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
    the file is missing, unreadable, nested too deep to decode or holds
    another request's table."""
    if path is None:
        return None
    try:
        with open(path, encoding="utf-8") as handle:
            import json  # only once a cache file is there to read

            payload = json.load(handle)
    except (OSError, ValueError, RecursionError):
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
            handle.write(json_text(payload) + "\n")
        os.replace(temp, path)
    except OSError as exc:
        try:
            os.remove(temp)
        except OSError:
            pass
        _stderr(f"narayana: warning: cache not written: {exc}\n")


def _dist_table(n: int, stat: str, costat: str | None) -> list:
    from .stats import distribution, joint_q

    if costat is None:
        return [[k, count] for k, count in distribution(n, stat).items()]
    wrt = _library("dyck", "DyckPath")("vh" * n) if costat == "maj_w" else None
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

        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["value", "coefficients" if payload["q"] else "count"])
        for k, entry in payload["table"]:
            # a count prints as itself, coefficients as a compact JSON array
            compact = f"[{','.join(map(str, entry))}]" if payload["q"] else entry
            writer.writerow([k, compact])
    elif payload["q"]:
        from .qpoly import QPoly

        for k, coeffs in payload["table"]:
            print(f"{k}  {QPoly(coeffs)}")
    else:
        for k, count in payload["table"]:
            print(f"{k}  {count}")
    return 0
