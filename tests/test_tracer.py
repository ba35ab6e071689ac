"""The benchmark's tracer runs every layer of the library.

perfbench/tracing.py wraps each public function of each narayana module and
reads some of their results (the length of a list, an attribute of a
FacetOrder, QPoly.__mul__), so a change under src/ can break a traced run
while every plain request still works.  One traced request per subcommand
catches that here.
"""

import json
from pathlib import Path

import pytest

from conftest import spawn

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracing.py"
# by test id; the random reference paths put enumerate_paths and
# verify_theorem_main under the tracer
REQUESTS = {
    "narayana": ["narayana", "--n", "5"],
    "qnarayana": ["qnarayana", "--n", "6", "--k", "2", "--route", "all"],
    "dist": ["dist", "--n", "4", "--stat", "hp", "--q"],
    "verify": ["verify", "--check", "ssyt", "--n", "4"],
    "verify-random": [
        "verify", "--check", "main-theorem", "--n", "3", "--ref-path", "random", "--samples", "2"
    ],
    "omega": ["omega", "--n", "3"],
}


@pytest.mark.parametrize("argv", list(REQUESTS.values()), ids=list(REQUESTS))
def test_traced_request_writes_its_spans(argv, tmp_path):
    span_file = tmp_path / "spans.json"
    result = spawn(str(TRACER), str(span_file), "0", *argv, cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    trace = json.loads(span_file.read_text())
    assert trace["spans"]
    assert all(isinstance(span[0], str) and span[0] for span in trace["spans"])
