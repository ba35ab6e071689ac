import atexit
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
# the .pyc files under src/ when the session starts, and those it wrote
_BEFORE = pytest.StashKey[set]()
_WRITTEN = pytest.StashKey[list]()


def spawn(*args, flags=(), env=None, python=sys.executable, **kwargs):
    """Run `python *flags *args` in a fresh process and return its
    CompletedProcess: the tests' one way to start a process.  PYTHONPATH is
    the checkout's src, and each key of env is set to its value, or unset
    where the value is None; kwargs go to subprocess.run, and stdout and
    stderr are captured as text unless they name others."""
    environ = {**os.environ, **(env or {}), "PYTHONPATH": str(SRC)}
    environ = {key: value for key, value in environ.items() if value is not None}
    kwargs.setdefault("stdout", subprocess.PIPE)
    kwargs.setdefault("stderr", subprocess.PIPE)
    return subprocess.run([python, *flags, *args], env=environ, text=True, **kwargs)


def _src_bytecode() -> set:
    return set(map(str, SRC.rglob("*.pyc")))


def pytest_sessionstart(session):
    session.config.stash[_BEFORE] = _src_bytecode()


def pytest_sessionfinish(session):
    """With bytecode writing off, the suite leaves no .pyc under src/: every
    request it serves in a fresh process then compiles what it loads, as a
    checkout's first run does, and the next run starts from the same tree.
    A file written fails the session."""
    written, before = [], session.config.stash.get(_BEFORE, None)
    if os.environ.get("PYTHONDONTWRITEBYTECODE") and before is not None:
        written = sorted(_src_bytecode() - before)
    session.config.stash[_WRITTEN] = written
    if written:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


def pytest_terminal_summary(terminalreporter, config):
    if config.stash.get(_WRITTEN, None):
        terminalreporter.write_sep("!", "bytecode written under src/ with writing off", red=True)
        terminalreporter.write_line("\n".join(config.stash[_WRITTEN]))


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
