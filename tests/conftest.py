"""Shared test plumbing: the acceptance ledger and its terminal summary,
and empty process-wide caches for each test."""
import pytest

_ACCEPTANCE_LINES: list[str] = []


@pytest.fixture(scope="session")
def acceptance_ledger():
    """Append 'ACCEPTANCE <name>: PASS|FAIL' lines here; they are echoed
    in the terminal summary so they survive output capture."""
    return _ACCEPTANCE_LINES


@pytest.fixture(autouse=True)
def _empty_caches():
    """Each test starts with no metric's stages and no contraction cached,
    so a test that counts the work of a fresh metric, or patches the
    kernel and calls ``contract``, sees that work whatever ran before."""
    from kk6 import expr, tensor
    tensor._stages_of.cache_clear()
    expr._CONTRACTED.clear()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _ACCEPTANCE_LINES:
        terminalreporter.write_line("")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
