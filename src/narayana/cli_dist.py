"""The `dist` command: the exact value-to-count table of one path statistic,
optionally q-refined, kept in an optional cache directory."""

import os
import stat
from types import SimpleNamespace

from . import ENUMERATION_LIMIT, STATISTICS, __version__
from .cli_common import _emit_json, _stderr, _usage, json_text


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


def _int_lists(text: str):
    """The first value of a JSON text of ints and lists; commas are not checked."""
    stack = [[]]
    for word in text.replace("[", " [ ").replace("]", " ] ").replace(",", " ").split():
        if word == "[":
            stack.append([])
        elif word == "]":
            stack[-2].append(stack.pop())
        else:
            stack[-1].append(int(word))
    return stack[0][0]


def _load_cached(path: str, header: dict) -> dict | None:
    """The cached payload of the request that header describes, or None
    unless the file is a regular one that holds exactly the bytes that
    _store_cached writes for it, around a table that _is_table accepts."""
    try:
        # not blocking: a FIFO at path is found irregular and replaced, not waited on
        fd = os.open(path, os.O_RDONLY | getattr(os, "O_NONBLOCK", 0))
        with open(fd, encoding="utf-8", newline="") as handle:
            if not stat.S_ISREG(os.fstat(fd).st_mode):
                return None
            text = handle.read()
        # the table is the last key, followed by "\n}\n"
        table = _int_lists(text.partition('"table": ')[2][:-3])
    except (OSError, ValueError, IndexError):
        return None
    # a table nested too deep for json_text fails _is_table first
    payload = dict(header, table=table)
    return payload if _is_table(table, header["q"]) and text == json_text(payload) + "\n" else None


def _store_cached(path: str, payload: dict) -> None:
    """Write through a temp file and os.replace, so that a reader never sees a
    partial table; a failure leaves no file and is only a warning."""
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
    from .stats import distribution, joint_coefficients

    if costat is None:
        return [[k, count] for k, count in distribution(n, stat).items()]
    return [[k, coeffs] for k, coeffs in joint_coefficients(n, stat, costat).items()]


def cmd_dist(args: SimpleNamespace) -> int:
    """Exact value-to-count table of one statistic, optionally q-refined."""
    n, stat = args.n, args.stat
    if not 1 <= n <= ENUMERATION_LIMIT:
        return _usage(f"n out of range: expected 1 <= n <= {ENUMERATION_LIMIT}, got {n}")
    costat = None
    if args.q:
        costat = STATISTICS.get(stat)
        if costat is None:
            return _usage(f"statistic {stat} has no paired co-statistic for --q")
    header = {"command": "dist", "costat": costat, "n": n, "q": args.q, "stat": stat}
    root = args.cache_dir
    if not root:
        payload = dict(header, table=_dist_table(n, stat, costat))
    else:
        try:
            os.makedirs(root, exist_ok=True)
        except OSError as exc:
            return _usage(f"unusable cache directory: {exc}")
        marker = "-q" if args.q else ""
        cache = os.path.join(root, f"dist-{__version__}-n{n}-{stat}{marker}.json")
        payload = _load_cached(cache, header)
        if payload is None:
            payload = dict(header, table=_dist_table(n, stat, costat))
            _store_cached(cache, payload)
    if args.format == "json":
        _emit_json(payload)
    elif args.format == "csv":
        print("value,coefficients" if payload["q"] else "value,count")
        for k, entry in payload["table"]:
            # a count prints as itself, coefficients as a compact JSON array,
            # quoted as csv.writer quotes a field only when it holds a comma
            if payload["q"]:
                compact = ",".join(map(str, entry))
                entry = f'"[{compact}]"' if "," in compact else f"[{compact}]"
            print(f"{k},{entry}")
    elif payload["q"]:
        from .qpoly import QPoly

        for k, coeffs in payload["table"]:
            print(f"{k}  {QPoly(coeffs)}")
    else:
        for k, count in payload["table"]:
            print(f"{k}  {count}")
    return 0
