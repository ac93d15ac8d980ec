"""Connection and curvature of 6x6 metrics.

Christoffel symbols come from the metric through the first-kind
connection: each Gamma_DAB = (d_A g_DB + d_B g_DA - d_D g_AB) / 2 is
formed once and raised by the inverse, Gamma^C_AB = g^CD Gamma_DAB, six
products an entry instead of eighteen (Misner, Thorne and Wheeler,
*Gravitation*, ch. 8).  The Ricci tensor is assembled directly from the
connection,

    R_AB = d_C Gamma^C_AB - d_B Gamma^C_AC
         + Gamma^C_AB Gamma^D_CD - Gamma^C_AD Gamma^D_BC,

never via an intermediate Riemann tensor.  On the diagonal the quadratic
products (C, D) and (D, C) of the last term have the same two factors, so
R_AA writes each pair once with coefficient -2: 21 quadratic products,
not 36.  Every symmetric grid (the metric derivatives, each plane of
either kind of Christoffel symbol, Ricci, Einstein) is filled in for
A <= B and mirrored by ``tensor._mirror``, which also fills the
adjugate and the inverse; Ricci's symmetry is a theorem here, checked
by tests through :func:`ricci_entry_raw`, and Einstein's follows from
Ricci's and the metric's.

Every derivative (d_C g_AB, d_C Gamma^C_AB and d_B Gamma^C_AC) is one
:func:`~kk6.expr.derive` call: the product rule over the entry's terms,
handed to ``contract``.  Every other entry is one
:func:`~kk6.expr.contract` call: its products are expanded once in the
polynomial kernel and the canonical tree is built once, with no tree per
product and none for the sum, and the result is the tree that
simplifying that sum would give.  Each stage call (:func:`christoffel`;
:func:`ricci` with the trace of the connection; :func:`ricci_scalar`;
:func:`einstein`) runs in one kernel context, so each first-kind symbol
is read once for all six raised ones, each connection entry once for all
21 Ricci entries, and each of its factors differentiated once per
coordinate; Ricci takes each d_C Gamma^C_AB in the entry that reads it.
Each stage's result, and the trace, is kept by one memo in the stage
dict of the metric's grid, which every metric built on an equal grid
shares (a bounded cache of the 16 grids used most recently, in
:mod:`kk6.tensor`); the context lives for the call, and the cache keeps
only trees.
A product whose factors share a sum or root base (which ``mul`` would
merge), a derivative's products among them, takes the tree route inside
``contract``.

Most of the engine's metrics (the scalar, photon, Proca, half-spin and
coupled families) depend on the coordinates only through one plane-wave
phase phi = k.x.  Then d_A g = k_A g', with g' = dg/dphi, and Ricci has a
closed low-rank form, the structure of plane-fronted waves (J. Ehlers and
W. Kundt, in *Gravitation: an Introduction to Current Research*, ed.
L. Witten, 1962).  With M the inverse metric, q = Mk, H = Mg', v = g'q,
P = g'H and w = g''q - Pq,

    R_AB = (k_A w_B + k_B w_A)/2 + (q.v) g'_AB/2 - (k.q) g''_AB/2
         - k_A k_B (tr H)'/2 + tr H (k_A v_B + k_B v_A - (k.q) g'_AB)/4
         - k_A k_B tr(H^2)/4 - v_A v_B/2 + (k.q) P_AB/2,

with (tr H)' = tr(M g'') - tr(H^2): an entry's 36 quadratic connection
products collapse to three terms.  :func:`ricci` first asks a syntactic
certificate, kept in the stage dict: no coordinate occurs outside an
``exp`` argument, each argument's gradient is free of the coordinates and
a ``Num`` multiple of the first one's, k, and some k_C is a monomial of
numbers and symbols.  A metric that passes it is a function of phi alone.
Its g' and g'' are each one ``derive`` along x_C times k_C^-1, and each
Ricci entry is one 11-product contraction, all in one kernel context,
with no Christoffel symbol formed.  A metric the certificate refuses (the
gravity families at eps != 0, a perturbed one, or one with no phase)
takes the general route above, which stays the only other route;
:func:`christoffel` and :func:`ricci_entry_raw` always take it.  Tests
check that both routes give the same nodes on every phase input.
"""
from __future__ import annotations

from .expr import (
    Exp, Expr, HALF, MINUS_ONE, Mul, Num, Pow, Sym, ZERO, _kids, context,
    contract, derive, diff, free_symbols, mul, num, power, simplify,
)
from .symbols import COORDS
from .tensor import DIM, Metric6, _IDX, _memo, _mirror

__all__ = [
    "christoffel", "ricci", "ricci_entry_raw", "ricci_scalar", "einstein",
]

_MINUS_HALF = mul(MINUS_ONE, HALF)
_MINUS_TWO = num(-2)
_QUARTER = num("1/4")
_MINUS_QUARTER = num("-1/4")


@_memo
def christoffel(metric: Metric6) -> tuple:
    """Gamma^C_AB as nested tuples indexed [C][A][B], symmetric in the
    lower pair."""
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


@_memo
def _trace(metric: Metric6) -> tuple:
    # t_A = Gamma^C_AC, read by seven terms of each Ricci entry
    gamma = christoffel(metric)
    ctx = context()
    return tuple(contract([(gamma[c][a][c],) for c in range(DIM)], ctx)
                 for a in range(DIM))


def _ricci_formula(metric: Metric6, ctx, a: int, b: int) -> Expr:
    gamma = christoffel(metric)
    trace = _trace(metric)
    parts = [(derive(gamma[c][a][b], x, ctx),) for c, x in enumerate(COORDS)]
    parts.append((MINUS_ONE, derive(trace[a], COORDS[b], ctx)))
    parts += ((gamma[c][a][b], trace[c]) for c in range(DIM))
    if a != b:
        parts += ((MINUS_ONE, gamma[c][a][d], gamma[d][b][c])
                  for c in range(DIM) for d in range(DIM))
    else:
        # (c, d) and (d, c) are one product of the same two factors
        parts += ((MINUS_ONE if c == d else _MINUS_TWO,
                   gamma[c][a][d], gamma[d][a][c])
                  for c in range(DIM) for d in range(c, DIM))
    return contract(parts, ctx)


def ricci_entry_raw(metric: Metric6, a: int, b: int) -> Expr:
    """The Ricci formula evaluated at (a, b) itself, not read off the
    a <= b mirror.  On the diagonal the quadratic products (c, d) and
    (d, c) are still written as one: they are a product of the same two
    factors, which is no use of the symmetry of R."""
    return _ricci_formula(metric, context(), a, b)


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


@_memo
def _phase(metric: Metric6) -> tuple:
    """The plane-wave phase certificate of ``metric``: ``(c, k)`` when no
    coordinate occurs outside an ``exp`` argument, each argument's
    gradient is free of the coordinates and a ``Num`` multiple of the
    first one's, k, and k_c is the first monomial entry of k; otherwise
    ``()``, which the stage dict keeps as well.  The metric then depends
    on the coordinates through phi = k.x alone."""
    args, seen = [], set()
    stack = [e for row in metric.lower for e in row]
    while stack:
        e = stack.pop()
        if e in seen or _coordinate_free(e):
            continue
        seen.add(e)
        if isinstance(e, Exp):
            args.append(e.arg)
        elif isinstance(e, Sym):
            return ()                   # a coordinate outside any exp
        else:
            stack.extend(_kids(e))
    grads = []
    for arg in args:
        grad = tuple(simplify(diff(arg, x)) for x in COORDS)
        if not all(map(_coordinate_free, grad)):
            return ()
        grads.append(grad)
    if not grads:
        return ()
    k = grads[0]
    c = next((c for c in _IDX if _monomial(k[c])), None)
    if c is None:
        return ()
    inv = power(k[c], -1)
    for grad in grads[1:]:
        r = simplify(mul(grad[c], inv))
        if not (isinstance(r, Num)
                and all(simplify(mul(r, k[i])) is grad[i] for i in _IDX)):
            return ()
    return c, k


def _phase_ricci(metric: Metric6, c: int, k: tuple) -> tuple:
    # the module docstring's formula, with g' = k_c^-1 d_c g
    g, m = metric.lower, metric.upper()
    ctx = context()
    x, inv = COORDS[c], power(k[c], -1)
    g1 = _mirror(lambda a, b: derive(mul(inv, g[a][b]), x, ctx))
    g2 = _mirror(lambda a, b: derive(mul(inv, g1[a][b]), x, ctx))

    def dot(u, v):
        return contract([(u[i], v[i]) for i in _IDX], ctx)
    q = tuple(dot(m[a], k) for a in _IDX)
    h = tuple(tuple(contract([(m[a][d], g1[d][b]) for d in _IDX], ctx)
                    for b in _IDX) for a in _IDX)
    v = tuple(dot(g1[a], q) for a in _IDX)
    p = _mirror(lambda a, b: contract([(g1[a][d], h[d][b]) for d in _IDX],
                                      ctx))
    w = tuple(contract([*((g2[a][d], q[d]) for d in _IDX),
                        *((MINUS_ONE, p[a][d], q[d]) for d in _IDX)], ctx)
              for a in _IDX)
    kq, qv = dot(k, q), dot(q, v)
    tr_h = contract([(h[a][a],) for a in _IDX], ctx)
    tr_h2 = contract([(h[a][b], h[b][a]) for a in _IDX for b in _IDX], ctx)
    # (tr H)' = tr(M g'') - tr(H^2)
    dtr_h = contract([*((m[a][b], g2[b][a]) for a in _IDX for b in _IDX),
                      (MINUS_ONE, tr_h2)], ctx)

    def entry(a, b):
        return contract([
            (HALF, k[a], w[b]), (HALF, k[b], w[a]), (HALF, qv, g1[a][b]),
            (_MINUS_HALF, kq, g2[a][b]), (_MINUS_HALF, k[a], k[b], dtr_h),
            (_QUARTER, tr_h, k[a], v[b]), (_QUARTER, tr_h, k[b], v[a]),
            (_MINUS_QUARTER, tr_h, kq, g1[a][b]),
            (_MINUS_QUARTER, k[a], k[b], tr_h2),
            (_MINUS_HALF, v[a], v[b]), (HALF, kq, p[a][b])], ctx)
    return _mirror(entry)


@_memo
def ricci(metric: Metric6) -> tuple:
    """R_AB as nested tuples indexed [A][B]."""
    phase = _phase(metric)
    if phase:
        return _phase_ricci(metric, *phase)
    return _mirror(_ricci_formula, metric, context())


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
