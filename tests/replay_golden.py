"""Replay every digest of perfbench/golden.json in-process, on any installed
Python, with the standard library alone:

    python tests/replay_golden.py

Each key of the file is a request; sent through narayana.cli.main in this
process, it must exit 0 and print the bytes whose sha256 the file holds.
The script prints each mismatch and then the count replayed and the Python
version, exits 1 on any mismatch, and writes no bytecode.  On a Python
older than the package's requires-python it prints one line on stderr and
exits 2, before it imports narayana.  pytest does not collect it: test_cli
replays the same digests under pytest, which not every interpreter has,
and runs this script under every other CPython >= 3.10 installed beside
its own.
"""

import contextlib
import hashlib
import io
import json
import platform
import sys
from pathlib import Path

REQUIRES_PYTHON = (3, 10)  # pyproject.toml's requires-python
if sys.version_info < REQUIRES_PYTHON:
    floor = ".".join(map(str, REQUIRES_PYTHON))
    sys.stderr.write(f"replay_golden: narayana needs Python >= {floor}, "
                     f"not {platform.python_version()}\n")
    sys.exit(2)

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True
sys.path.insert(0, str(ROOT / "src"))

from narayana.cli import main  # noqa: E402  (src/ first on the path)


def mismatches(golden: dict) -> list:
    """The keys whose request exits nonzero or prints other bytes."""
    failed = []
    for key, digest in golden.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(key.split())
        if (code, hashlib.sha256(out.getvalue().encode()).hexdigest()) != (0, digest):
            failed.append(key)
    return failed


if __name__ == "__main__":
    golden = json.loads((ROOT / "perfbench" / "golden.json").read_text(encoding="utf-8"))
    failed = mismatches(golden)
    for key in failed:
        print(f"mismatch: {key}")
    replayed = len(golden) - len(failed)
    print(f"{replayed} of {len(golden)} digests replayed on Python {platform.python_version()}")
    sys.exit(1 if failed else 0)
