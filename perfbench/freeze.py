"""Write golden.json: the sha256 of the CLI's stdout for every request any
workload can draw, checked first by the benchmark's own oracle.

    python3 perfbench/freeze.py

Run it only at a commit whose stdout is the contract; the benchmark then
fails every request whose stdout differs from the frozen bytes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import oracle
import workloads

ROOT = Path(__file__).resolve().parent.parent


def run(argv: tuple) -> tuple[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "NARAYANA_CACHE_DIR"}
    env["PYTHONPATH"] = str(ROOT / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "narayana.cli", *argv], env=env, capture_output=True, check=False
    )
    digest = oracle.digest(proc.stdout)
    reason = oracle.check(argv, proc.returncode, proc.stdout, {oracle.key(argv): digest})
    if reason is not None:
        raise SystemExit(f"refusing to freeze {oracle.key(argv)}: {reason}")
    return oracle.key(argv), digest


def main() -> int:
    requests = sorted(set().union(*(workloads.catalogue(w) for w in workloads.WORKLOADS)))
    with ThreadPoolExecutor(max_workers=2) as pool:
        golden = dict(pool.map(run, requests))
    oracle.GOLDEN_PATH.write_text(json.dumps(golden, indent=0, sort_keys=True) + "\n")
    print(f"froze {len(golden)} requests into {oracle.GOLDEN_PATH.name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
