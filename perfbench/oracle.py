"""Checks on one CLI request's result that do not use the code under test.

Catalan and Narayana numbers come from the benchmark's own formulas, and the
sha256 of every request's stdout is frozen in golden.json, which holds the
CLI's byte-identical stdout contract.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import re
from math import comb
from pathlib import Path

GOLDEN_PATH = Path(__file__).with_name("golden.json")
_TERM = re.compile(r"(\d*)(q(\^\d+)?)?")


def catalan(n: int) -> int:
    """C(n) by the convolution recurrence C(m) = sum C(i) C(m-1-i)."""
    c = [1]
    for m in range(1, n + 1):
        c.append(sum(c[i] * c[m - 1 - i] for i in range(m)))
    return c[n]


def narayana_number(n: int, k: int) -> int:
    return comb(n, k) * comb(n, k + 1) // n


def key(argv) -> str:
    return " ".join(argv)


def digest(stdout: bytes) -> str:
    return hashlib.sha256(stdout).hexdigest()


def load_golden() -> dict[str, str]:
    return json.loads(GOLDEN_PATH.read_text())


def poly_at_one(text: str) -> int:
    """Value at q = 1 of a polynomial printed like ``2 + q - 3q^4``."""
    if text == "0":
        return 0
    tokens = text.split(" ")
    signs = ["-" if tokens[0].startswith("-") else "+"] + tokens[1::2]
    bodies = [tokens[0].lstrip("-")] + tokens[2::2]
    total = 0
    for sign, body in zip(signs, bodies, strict=True):
        match = _TERM.fullmatch(body)
        if sign not in "+-" or match is None or not body:
            raise ValueError(f"bad term {body!r}")
        coefficient = int(match.group(1)) if match.group(1) else 1
        total += coefficient if sign == "+" else -coefficient
    return total


def _options(argv) -> dict[str, str]:
    opts = {"--format": "dot" if argv[0] == "omega" else "text"}
    i = 1
    while i < len(argv):
        if argv[i] == "--q":
            opts["--q"] = ""
            i += 1
        else:
            opts[argv[i]] = argv[i + 1]
            i += 2
    return opts


def _check_dist(opts: dict, text: str) -> str | None:
    n, fmt, with_q = int(opts["--n"]), opts["--format"], "--q" in opts
    if fmt == "json":
        rows = json.loads(text)["table"]
        values = {k: sum(v) if with_q else v for k, v in rows}
    elif fmt == "csv":
        rows = list(csv.reader(io.StringIO(text)))[1:]
        values = {int(k): sum(json.loads(v)) if with_q else int(v) for k, v in rows}
    else:
        rows = [line.split("  ", 1) for line in text.splitlines()]
        values = {int(k): poly_at_one(v) if with_q else int(v) for k, v in rows}
    if sum(values.values()) != catalan(n):
        return f"table sums to {sum(values.values())}, not Catalan({n})"
    if with_q and opts["--stat"] in ("des", "lnfs"):
        expected = {k: narayana_number(n, k) for k in range(n)}
        if values != expected:
            return "q-table at q = 1 is not the Narayana row"
    return None


def _check_qnarayana(opts: dict, text: str) -> str | None:
    n, k = int(opts["--n"]), int(opts["--k"])
    every_route = opts.get("--route") == "all"
    if opts["--format"] == "json":
        payload = json.loads(text)
        if every_route:
            sums = [sum(c) for c in payload["routes"].values()]
            verdict = payload["verdict"]
        else:
            sums, verdict = [sum(payload["coefficients"])], "pass"
    else:
        lines = text.splitlines()
        if every_route:
            verdict = lines.pop().removeprefix("verdict ")
            sums = [poly_at_one(line.split(": ", 1)[1]) for line in lines]
        else:
            sums, verdict = [poly_at_one(line) for line in lines], "pass"
    if verdict != "pass":
        return f"verdict {verdict}"
    if not sums or any(s != narayana_number(n, k) for s in sums):
        return f"coefficient sums {sums} differ from N({n}, {k})"
    return None


def _check_narayana(opts: dict, text: str) -> str | None:
    n, fmt = int(opts["--n"]), opts["--format"]
    if fmt == "json":
        payload = json.loads(text)
        row, total = payload["row"], payload["sum"]
    elif fmt == "csv":
        rows = list(csv.reader(io.StringIO(text)))[1:]
        row, total = [int(v) for _, v in rows[:-1]], int(rows[-1][1])
    else:
        first, second = text.splitlines()
        row, total = [int(v) for v in first.split(", ")], int(second.removeprefix("sum "))
    if row != [narayana_number(n, k) for k in range(n)] or total != catalan(n):
        return "row is not the Narayana row with its Catalan sum"
    return None


def _check_verify(opts: dict, text: str) -> str | None:
    if opts["--format"] == "json":
        verdict = json.loads(text)["verdict"]
    else:
        verdicts = [line for line in text.splitlines() if line.startswith("verdict ")]
        verdict = verdicts[0].removeprefix("verdict ") if len(verdicts) == 1 else "missing"
    return None if verdict == "pass" else f"verdict {verdict}"


def _check_omega(opts: dict, text: str) -> str | None:
    n = int(opts["--n"])
    if opts["--format"] == "json":
        nodes = len(json.loads(text)["nodes"])
    else:
        nodes = sum(1 for line in text.splitlines() if ' [label="' in line)
    return None if nodes == catalan(n) else f"{nodes} nodes, not Catalan({n})"


CHECKS = {
    "dist": _check_dist,
    "qnarayana": _check_qnarayana,
    "narayana": _check_narayana,
    "verify": _check_verify,
    "omega": _check_omega,
}


def check(argv, returncode: int, stdout: bytes, golden: dict[str, str]) -> str | None:
    """Why the request's result is wrong, or None when it passes."""
    if returncode != 0:
        return f"exit code {returncode}"
    try:
        reason = CHECKS[argv[0]](_options(argv), stdout.decode())
    except (KeyError, IndexError, ValueError, TypeError) as exc:
        return f"unparsable output: {exc!r}"
    if reason is None and golden.get(key(argv)) != digest(stdout):
        reason = "stdout differs from its frozen sha256"
    return reason
