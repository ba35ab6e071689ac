import atexit
import os

import pytest


@pytest.fixture(autouse=True)
def _no_process_exit_in_process(monkeypatch):
    """cli.run() ends its process by atexit._run_exitfuncs() and os._exit.
    Called in the test process, the first would run pytest's own exit
    handlers mid-session and the second end the session with status 0 and
    no summary; here each fails the test instead.  A test that reaches
    run() patches both itself."""

    def refuse(*args):
        raise AssertionError("the process exit was called in the test process")

    monkeypatch.setattr(atexit, "_run_exitfuncs", refuse)
    monkeypatch.setattr(os, "_exit", refuse)
