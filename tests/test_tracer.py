"""The benchmark's tracer runs every layer of the library.

perfbench/tracing.py wraps each public function of each narayana module and
reads some of their results (the length of a list, an attribute of a
FacetOrder, QPoly.__mul__), so a change under src/ can break a traced run
while every plain request still works.  One traced request per subcommand
catches that here.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracing.py"
REQUESTS = [
    ["narayana", "--n", "5"],
    ["qnarayana", "--n", "6", "--k", "2", "--route", "all"],
    ["dist", "--n", "4", "--stat", "hp", "--q"],
    ["verify", "--check", "ssyt", "--n", "4"],
    ["omega", "--n", "3"],
]


@pytest.mark.parametrize("argv", REQUESTS, ids=lambda argv: argv[0])
def test_traced_request_writes_its_spans(argv, tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "NARAYANA_CACHE_DIR"}
    env["PYTHONPATH"] = str(ROOT / "src")
    span_file = tmp_path / "spans.json"
    result = subprocess.run(
        [sys.executable, str(TRACER), str(span_file), "0", *argv],
        capture_output=True,
        text=True,
        env=env,
        cwd=tmp_path,
    )
    assert result.returncode == 0, result.stderr
    trace = json.loads(span_file.read_text())
    assert trace["spans"]
    assert all(isinstance(span[0], str) and span[0] for span in trace["spans"])
