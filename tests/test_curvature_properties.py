"""Properties: at rational momenta the half-spin metric's Ricci tensor is,
node for node, the reference's, and on small random grids every entry has
the reference's value."""
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from kk6.ansatz import dirac_metric  # noqa: E402
from kk6.curvature import _forms, ricci  # noqa: E402
from kk6.expr import (  # noqa: E402
    I, MINUS_ONE, ONE, ZERO, context, contract, coords, exp, num,
)
from kk6.tensor import DIM, Metric6, SingularMetricError  # noqa: E402
from test_curvature import _fresh, assert_ricci_is_the_reference  # noqa: E402

# p3 != 0 and m0 > 0, which the half-spin normalization requires
component = st.fractions(-2, 2, max_denominator=6)
momenta = st.tuples(component, component, component.filter(bool),
                    st.fractions("1/2", 2, max_denominator=6))


@settings(max_examples=8, deadline=None, derandomize=True)
@given(momenta)
def test_the_phase_route_gives_the_general_route_s_nodes(p):
    # each example starts from an empty grid cache and contraction memo;
    # the general route is the reference, through the connection
    m = _fresh(dirac_metric(1, *map(num, p)).metric)
    ricci(m)
    c0, k, cs = _forms(m)
    assert c0 is not None and cs == ()
    assert_ricci_is_the_reference(m, nodes=True)


x = coords()
_FLAT = (ONE, MINUS_ONE, MINUS_ONE, MINUS_ONE, ONE, MINUS_ONE)
small = st.fractions(-2, 2, max_denominator=3)


@st.composite
def grids(draw):
    """A 6x6 grid: the flat diagonal with one or two entries, and one
    entry off it, replaced by ``exp`` of a linear form in one to three
    coordinates times a polynomial of degree <= 2 in some of them.  The
    forms are whole multiples of one form, imaginary or real, or each
    entry's own, so that grids with a phase and grids with none come
    up."""
    cs = draw(st.lists(st.sampled_from(range(DIM)), min_size=1, max_size=3,
                       unique=True))
    ps = [c for c in cs if draw(st.booleans())]
    scale = I if draw(st.booleans()) else ONE
    base = [draw(small) for _ in cs]
    own = draw(st.booleans())

    def entry(lead):
        if own:
            coefficients = [draw(small) for _ in cs]
        else:
            n = draw(st.integers(0, 2))
            coefficients = [n * f for f in base]
        form = contract([(scale, num(f), x[c])
                         for f, c in zip(coefficients, cs)], context())
        terms = [(num(draw(small)), x[c]) for c in ps]
        terms += [(num(draw(small)), x[c], x[d]) for c in ps for d in ps
                  if c <= d and draw(st.booleans())]
        return contract([(lead, exp(form)),
                         *((lead, exp(form), *t) for t in terms)], context())

    rows = [[_FLAT[a] if a == b else ZERO for b in range(DIM)]
            for a in range(DIM)]
    for a in draw(st.lists(st.sampled_from(range(DIM)), min_size=1,
                           max_size=2, unique=True)):
        rows[a][a] = entry(_FLAT[a])
    a, b = draw(st.sampled_from([(a, b) for a in range(DIM)
                                 for b in range(a + 1, DIM)]))
    rows[a][b] = rows[b][a] = entry(num(draw(small)))
    return Metric6(rows)


@settings(max_examples=10, deadline=None, derandomize=True)
@given(grids())
def test_ricci_has_the_reference_s_values_on_random_grids(m):
    try:
        m.upper()
    except SingularMetricError:
        assume(False)
    assert_ricci_is_the_reference(m)
