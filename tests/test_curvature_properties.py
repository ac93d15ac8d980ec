"""Property: at rational momenta the half-spin metric's Ricci tensor
through the plane-wave phase is, node for node, the general route's."""
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from kk6.ansatz import dirac_metric  # noqa: E402
from kk6.curvature import _phase, ricci, ricci_entry_raw  # noqa: E402
from kk6.expr import num  # noqa: E402
from kk6.tensor import DIM  # noqa: E402
from test_curvature import _fresh  # noqa: E402

# p3 != 0 and m0 > 0, which the half-spin normalization requires
component = st.fractions(-2, 2, max_denominator=6)
momenta = st.tuples(component, component, component.filter(bool),
                    st.fractions("1/2", 2, max_denominator=6))


@settings(max_examples=8, deadline=None, derandomize=True)
@given(momenta)
def test_the_phase_route_gives_the_general_route_s_nodes(p):
    # each example starts from an empty grid cache and contraction memo
    m = _fresh(dirac_metric(1, *map(num, p)).metric)
    r = ricci(m)
    assert _phase(m) and "christoffel" not in m._cache
    for a in range(DIM):
        for b in range(a, DIM):
            assert r[a][b] is ricci_entry_raw(m, a, b), (a, b)
