import os

import pytest
from hypothesis import settings

# every property test: no per-example time limit (example timings on a shared
# machine say nothing), and examples drawn from a hash of the test, so each
# run of the suite tries the same cases
settings.register_profile("survfuse", deadline=None, derandomize=True)
settings.load_profile("survfuse")

_ACCEPTANCE_LINES = []


def assert_no_child():
    """No child of this process is running or left unreaped. Unlike
    ``multiprocessing.active_children``, this sees children of ``os.fork``."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """Pids of the children ``os.fork`` made during the test."""
    made = []
    fork = os.fork

    def spy():
        pid = fork()
        if pid:
            made.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", spy)
    return made


@pytest.fixture
def acceptance():
    """Record a criterion verdict, then fail the test if it did not hold.

    Every recorded verdict is echoed in the terminal summary so a full run
    ends with one PASS/FAIL line per criterion.
    """

    def record(criterion: int, ok: bool, detail: str = ""):
        _ACCEPTANCE_LINES.append((criterion, bool(ok), detail))
        assert ok, f"ACCEPTANCE {criterion}: FAIL ({detail})"

    return record


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for criterion, ok, detail in sorted(_ACCEPTANCE_LINES):
        status = "PASS" if ok else "FAIL"
        suffix = f" ({detail})" if detail else ""
        terminalreporter.write_line(f"ACCEPTANCE {criterion}: {status}{suffix}")
