"""Property: the compiled geodesic acceleration is the dense contraction
of the connection, bit for bit."""
import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from kk6.ansatz import scalar_metric  # noqa: E402
from kk6.dynamics import DynamicsError, connection_evaluator  # noqa: E402
from kk6.tensor import DIM  # noqa: E402
from test_dynamics import _dense_connection  # noqa: E402

# m0 above 1.1 keeps p0 above 1.1, which the overflow point below needs
momenta = st.tuples(*(st.floats(-2.0, 2.0) for _ in range(3)),
                    st.floats(1.1, 2.0))
coords = st.lists(st.complex_numbers(max_magnitude=3.0), min_size=DIM,
                  max_size=DIM)
velocities = st.lists(st.one_of(st.just(0j),
                                st.complex_numbers(max_magnitude=1e6)),
                      min_size=DIM, max_size=DIM)


def _modes(p1, p2, p3, m0):
    p0 = math.sqrt(p1 * p1 + p2 * p2 + p3 * p3 + m0 * m0)
    metric = scalar_metric(p=(p0, p1, p2, p3), m0=m0).metric
    return p0, connection_evaluator(metric), _dense_connection(metric)


@settings(max_examples=40, deadline=None)
@given(momenta, coords, velocities)
def test_compiled_acceleration_is_the_dense_contraction(p, x, v):
    _, accel, dense = _modes(*p)
    vv = np.array(v, dtype=complex)
    want = -np.einsum("abc,b,c->a", dense(x), vv, vv)
    assert np.array(accel(x + v)).tobytes() == want.tobytes()


@settings(max_examples=20, deadline=None)
@given(momenta, velocities)
def test_an_overflowing_connection_raises(p, v):
    # at x0 = i s the exponent of the connection's phase factor is the
    # real 2 p0 s: just below exp's overflow, so exp stays finite and the
    # entry carrying the factor p0 > 1 overflows
    p0, accel, dense = _modes(*p)
    x = [complex(0.0, 709.7 / (2 * p0))] + [0j] * (DIM - 1)
    assert not np.isfinite(dense(x)).all()
    with pytest.raises(DynamicsError, match="connection not finite"):
        accel(x + v)
