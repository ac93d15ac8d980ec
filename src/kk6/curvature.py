"""Connection and curvature of 6x6 metrics.

Christoffel symbols come from the metric through the first-kind
connection: each Gamma_DAB = (d_A g_DB + d_B g_DA - d_D g_AB) / 2 is
formed once and raised by the inverse, Gamma^C_AB = g^CD Gamma_DAB, six
products an entry instead of eighteen (Misner, Thorne and Wheeler,
*Gravitation*, ch. 8).  :mod:`kk6.dynamics` reads them; Ricci does not.

Ricci is formed from the metric's dependence on the coordinates through
r linear forms u_i = k^i.x, 0 <= r <= 6, never through a connection or a
Riemann tensor.  With D_i = dg/du_i, D_ij = d^2 g/du_i du_j, M the
inverse metric, q_i = M k^i, H_i = M D_i, v_ji = D_i q_j,
s_ij = k^i.q_j, P_ij = D_i M D_j and w_ij = D_ij q_j - P_ij q_j,

    R_AB = sum_ij (k^i_A w_ij,B + k^i_B w_ij,A)/2 + (q_i.v_jj) D_i,AB/2
         - s_ij D_ij,AB/2 - k^i_A k^j_B (tr(M D_ij) - tr(H_i H_j))/2
         + tr H_j (k^i_A v_ji,B + k^i_B v_ji,A - s_ij D_i,AB)/4
         - k^i_A k^j_B tr(H_i H_j)/4 - v_ji,A v_ij,B/2 + s_ij P_ij,AB/2.

With one form, a plane-wave phase phi = k.x, it is the closed form of
plane-fronted waves (J. Ehlers and W. Kundt, in *Gravitation: an
Introduction to Current Research*, ed. L. Witten, 1962); with the six
unit vectors, the coordinate formula.  A syntactic certificate,
:func:`_forms`, gives the forms:

* the phase k, when each ``exp`` argument's gradient is free of the
  coordinates and a ``Num`` multiple of the first one's, k, and some
  coordinate c0 that occurs only inside ``exp`` has a monomial k_c0;
* beside it, e_c for each coordinate that occurs outside every ``exp``,
  one with a constant derivative too: 1 + x1/500 depends on x1, and
  without e_1 its Ricci tensor would vanish;
* with no such phase, e_c for every coordinate the metric holds.

So every metric has forms; a constant metric has none, and a zero Ricci
tensor.  With the phase, D_phi = k_c0^-1 d_c0 g, as no other form holds
x_c0, D_c = d_c g - k_c D_phi, and D_ij is that rule along form j of
D_i, for i <= j.  P_ij is not symmetric for i != j (P_ji = P_ij^T), so
it is formed whole; only P_ii is mirrored.

Every coordinate derivative is one :func:`~kk6.expr.derive` call, the
product rule handed to ``contract``, and every other entry (D_c with
k_c != 0 among them) one :func:`~kk6.expr.contract` call: the simplified
sum, expanded once in the polynomial kernel, which skips each product
with a zero factor.  A Ricci entry is one contraction of 11 r^2
products.  Each stage call
(:func:`christoffel`, :func:`ricci`, :func:`ricci_scalar`,
:func:`einstein`) runs in one kernel context, which lives for the call.
One memo keeps the result of each stage that is read again (``ricci``,
``ricci_scalar``, ``einstein``) in the stage dict of the metric's grid,
which every metric built on an equal grid shares (:mod:`kk6.tensor`);
the Christoffel symbols, the certificate, kernel contexts, derivative
grids and other intermediates are formed on each call and not kept.  Every
symmetric grid (the metric derivatives, each plane of either kind of
Christoffel symbol, D_i, D_ij, P_ii, Ricci, Einstein) is filled in for
A <= B and mirrored by ``tensor._mirror``.
"""
from __future__ import annotations

from .expr import (
    Exp, Expr, HALF, MINUS_ONE, Mul, Num, ONE, Pow, Sym, ZERO, _kids,
    context, contract, derive, diff, free_symbols, mul, num, power,
    simplify,
)
from .symbols import COORDS
from .tensor import DIM, Metric6, _IDX, _memo, _mirror

__all__ = ["christoffel", "ricci", "ricci_scalar", "einstein"]

_MINUS_HALF = mul(MINUS_ONE, HALF)
_QUARTER = num("1/4")
_MINUS_QUARTER = num("-1/4")
_UNIT = tuple(tuple(ONE if a == c else ZERO for a in _IDX) for c in _IDX)


def christoffel(metric: Metric6) -> tuple:
    """Gamma^C_AB as nested tuples indexed [C][A][B], symmetric in the
    lower pair, formed on each call."""
    g, gu = metric.lower, metric.upper()      # a singular metric stops here
    ctx = context()
    # d_C g_AB indexed [c][a][b], each read by three first-kind symbols
    dg = tuple(_mirror(lambda a, b: derive(g[a][b], x, ctx)) for x in COORDS)

    def first(d, a, b):
        # Gamma_DAB = (d_A g_DB + d_B g_DA - d_D g_AB) / 2
        return contract([(HALF, dg[a][d][b]), (HALF, dg[b][d][a]),
                         (_MINUS_HALF, dg[d][a][b])], ctx)
    low = tuple(_mirror(first, d) for d in range(DIM))

    def entry(c, a, b):
        return contract([(gu[c][d], low[d][a][b]) for d in range(DIM)], ctx)
    return tuple(_mirror(entry, c) for c in range(DIM))


def _coordinate_free(e: Expr) -> bool:
    return not any(s.coordinate for s in free_symbols(e))


def _monomial(e: Expr) -> bool:
    # a nonzero product of numbers and powers of symbols: the kernel
    # cancels it against its inverse
    fs = e.factors if isinstance(e, Mul) else (e,)
    return e is not ZERO and all(
        isinstance(f, (Num, Sym)) or (isinstance(f, Pow)
                                      and isinstance(f.base, Sym))
        for f in fs)


def _phase(args: list, outside: set) -> tuple | None:
    # (c0, k) when every argument's gradient is free of the coordinates and
    # a Num multiple of the first one's, k, and k_c0 is the first monomial
    # entry of k whose coordinate is not in ``outside``
    grads = []
    for arg in args:
        grad = tuple(simplify(diff(arg, x)) for x in COORDS)
        if not all(map(_coordinate_free, grad)):
            return None
        grads.append(grad)
    if not grads:
        return None
    k = grads[0]
    c = next((c for c in _IDX if c not in outside and _monomial(k[c])), None)
    if c is None:
        return None
    inv = power(k[c], -1)
    for grad in grads[1:]:
        r = simplify(mul(grad[c], inv))
        if not (isinstance(r, Num)
                and all(simplify(mul(r, k[i])) is grad[i] for i in _IDX)):
            return None
    return c, k


def _forms(metric: Metric6) -> tuple:
    """The linear-forms certificate of ``metric``: ``(c0, k, cs)``, the
    phase k with its coordinate c0 (both ``None`` with no phase) and the
    coordinates cs of the unit forms, as the module docstring states.
    The metric depends on the coordinates through these forms alone."""
    args, outside, seen = [], set(), set()
    stack = [e for row in metric.lower for e in row]
    while stack:
        e = stack.pop()
        if e in seen or _coordinate_free(e):
            continue
        seen.add(e)
        if isinstance(e, Exp):
            args.append(e.arg)
        elif isinstance(e, Sym):
            outside.add(COORDS.index(e.symbol))     # outside every exp
        else:
            stack.extend(_kids(e))
    phase = _phase(args, outside)
    if phase:
        return (*phase, tuple(sorted(outside)))
    held = set().union(*(free_symbols(e) for row in metric.lower
                         for e in row))
    return None, None, tuple(c for c in _IDX if COORDS[c] in held)


@_memo
def ricci(metric: Metric6) -> tuple:
    """R_AB as nested tuples indexed [A][B]: the module docstring's
    formula over the forms of :func:`_forms`, one contraction an entry."""
    c0, k, cs = _forms(metric)
    g, m = metric.lower, metric.upper()       # a singular metric stops here
    ctx = context()
    # form j: its vector, and the coordinate, scale and k_c of its rule
    forms = [_UNIT[c] for c in cs]
    axes = [(c, ONE, ZERO if k is None else k[c]) for c in cs]
    if k is not None:
        forms.insert(0, k)
        axes.insert(0, (c0, power(k[c0], -1), ZERO))

    def along(j, e, e_phi):
        # d/du_j of the grid e, a function of the forms, from its phase
        # derivative e_phi: d_c e = k_c e_phi + d/du_j e
        c, scale, kc = axes[j]

        def entry(a, b):
            d = derive(mul(scale, e[a][b]), COORDS[c], ctx)
            return d if kc is ZERO else contract(
                [(d,), (MINUS_ONE, kc, e_phi[a][b])], ctx)
        return _mirror(entry)
    r = len(forms)
    d1 = []
    for j in range(r):
        d1.append(along(j, g, d1[0] if d1 else None))
    d2 = {}
    for i in range(r):
        for j in range(i, r):
            d2[i, j] = d2[j, i] = along(j, d1[i], d2.get((i, 0)))

    def dot(u, w):
        return contract([(u[a], w[a]) for a in _IDX], ctx)
    q = [tuple(dot(m[a], f) for a in _IDX) for f in forms]
    # H_i = M D_i, and its columns
    h = [tuple(tuple(dot(m[a], di[b]) for b in _IDX) for a in _IDX)
         for di in d1]
    hcol = [tuple(zip(*hi)) for hi in h]
    pairs = [(i, j) for i in range(r) for j in range(r)]
    v = {(j, i): tuple(dot(d1[i][a], q[j]) for a in _IDX) for j, i in pairs}
    s, p, trhh, dtr = {}, {}, {}, {}
    for i, j in ((i, j) for i, j in pairs if i <= j):
        s[i, j] = s[j, i] = dot(forms[i], q[j])
        if i == j:
            p[i, i] = _mirror(lambda a, b: dot(d1[i][a], hcol[i][b]))
        else:
            p[i, j] = tuple(tuple(dot(d1[i][a], hcol[j][b]) for b in _IDX)
                            for a in _IDX)
            p[j, i] = tuple(zip(*p[i, j]))          # P_ji = P_ij^T
        trhh[i, j] = trhh[j, i] = contract(
            [(h[i][a][b], h[j][b][a]) for a in _IDX for b in _IDX], ctx)
        # tr(M D_ij) - tr(H_i H_j)
        dtr[i, j] = dtr[j, i] = contract(
            [*((m[a][b], d2[i, j][b][a]) for a in _IDX for b in _IDX),
             (MINUS_ONE, trhh[i, j])], ctx)
    w = {(i, j): tuple(contract(
        [*((d2[i, j][a][e], q[j][e]) for e in _IDX),
         *((MINUS_ONE, p[i, j][a][e], q[j][e]) for e in _IDX)], ctx)
        for a in _IDX) for i, j in pairs}
    qv = {(i, j): dot(q[i], v[j, j]) for i, j in pairs}
    trh = [contract([(hi[a][a],) for a in _IDX], ctx) for hi in h]

    def entry(a, b):
        parts = []
        for i, j in pairs:
            ki, kj = forms[i], forms[j]
            parts += (
                (HALF, ki[a], w[i, j][b]), (HALF, ki[b], w[i, j][a]),
                (HALF, qv[i, j], d1[i][a][b]),
                (_MINUS_HALF, s[i, j], d2[i, j][a][b]),
                (_MINUS_HALF, ki[a], kj[b], dtr[i, j]),
                (_QUARTER, trh[j], ki[a], v[j, i][b]),
                (_QUARTER, trh[j], ki[b], v[j, i][a]),
                (_MINUS_QUARTER, trh[j], s[i, j], d1[i][a][b]),
                (_MINUS_QUARTER, ki[a], kj[b], trhh[i, j]),
                (_MINUS_HALF, v[j, i][a], v[i, j][b]),
                (HALF, s[i, j], p[i, j][a][b]))
        return contract(parts, ctx)
    return _mirror(entry)


@_memo
def ricci_scalar(metric: Metric6) -> Expr:
    r = ricci(metric)
    gu = metric.upper()
    return contract([(gu[a][b], r[a][b]) for a in range(DIM)
                     for b in range(DIM)], context())


@_memo
def einstein(metric: Metric6) -> tuple:
    """G_AB = R_AB - R g_AB / 2 as nested tuples indexed [A][B]."""
    r = ricci(metric)
    rs = ricci_scalar(metric)
    g = metric.lower
    ctx = context()

    def entry(a, b):
        return contract([(r[a][b],), (_MINUS_HALF, rs, g[a][b])], ctx)
    return _mirror(entry)
