"""Shared test plumbing: the acceptance ledger and its terminal summary,
empty process-wide caches for each test, and hypothesis's failure
reporter imported once with its deprecation warnings ignored."""
import importlib
import warnings

import pytest

# hypothesis's pytest plugin imports this module (and through it libcst,
# whose mypy_extensions.TypedDict use warns) when it reports a failing
# example; under -W error::DeprecationWarning that import would end the
# run in INTERNALERROR instead of printing the falsifying example
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        importlib.import_module("hypothesis.extra._patching")
    except ImportError:
        pass

_ACCEPTANCE_LINES: list[str] = []


@pytest.fixture(scope="session")
def acceptance_ledger():
    """Append 'ACCEPTANCE <name>: PASS|FAIL' lines here; they are echoed
    in the terminal summary so they survive output capture."""
    return _ACCEPTANCE_LINES


@pytest.fixture(autouse=True)
def _empty_caches():
    """Each test starts with no metric's stages, no contraction, no
    zero-test tape or sample value and no geodesic figure cached, so a
    test that counts the work of a fresh metric or a fresh tape, or
    patches the kernel or the integrator, sees that work whatever ran
    before."""
    from kk6 import expr, tensor, verify, zeros
    tensor._stages_of.cache_clear()
    expr._CONTRACTED.clear()
    zeros._TAPES.clear()
    verify._geodesic_figure.cache_clear()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _ACCEPTANCE_LINES:
        terminalreporter.write_line("")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
