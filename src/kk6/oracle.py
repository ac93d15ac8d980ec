"""Independent numeric oracle for curvature.

Compiles expressions to plain ``cmath`` code with common-subtree
elimination, through one emitter: :func:`compile_expr` one expression,
``_compile_metric`` a metric, and ``dynamics.connection_evaluator`` the
geodesic acceleration.  A metric is compiled in one layout, which the
stencil, the jets and ``dynamics.interval_along`` all read: the C-order
indices of its nonzero entries, and one function of the six coordinates
that returns their values at once.  Each numeric constant is formed
once, when its function is compiled.  The oracle imports nothing from
``curvature`` and no derivative or ``simplify`` of ``expr``: from the
metric's entries it rebuilds the connection and curvature purely
numerically, by one of two routes.

The jet route is plain Python.  :func:`jet_evaluator` compiles the same
entries with each coordinate a second-order jet: a value, its six first
and 21 second derivatives, carried through ``+ * ** exp sqrt`` by
truncated Taylor rules (A. Griewank and A. Walther, *Evaluating
Derivatives*, 2nd ed., SIAM 2008, ch. 13), so every derivative is exact up
to rounding.  :func:`einstein_jet` then forms, at the one point, the
inverse metric by pivoted elimination, Gamma^c_ab, the two derivative
terms Ricci needs (sum_c d_c Gamma^c_ab, with d g^-1 = -g^-1 (d g) g^-1,
and d_b of the trace Gamma^c_ac = g^cd d_a g_cd / 2), and from them R_ab,
R and G_ab.  Each jet's value is the number :func:`compile_expr` gives
for its entry, bit for bit.

The finite-difference stencil imports numpy, on first use, and no other
code of the oracle does; the ``gravity.split.*`` claims measure with it,
and the tests and the benchmark check the symbolic curvature against it.
Five-point (fourth-order) central differences give the metric and
connection derivatives, ``numpy.linalg.inv`` the inverse and einsum
contractions the tensor algebra.  :func:`ricci_fd` (and so
:func:`einstein_fd`) needs the connection at the point and its 24
neighbours, each from the metric at 25 points: those 625 metric samples
are formed as one array, differenced in one elementwise expression,
inverted in one batched ``inv`` and contracted in one ``einsum``.  The
metric closure ``gf`` is any callable of one point; the batch takes its
``gf.many`` when it has one (the closures of :func:`metric_evaluator` do)
and calls ``gf`` point by point otherwise.  Both routes give the same
arrays, bit for bit.

Step sizes: with a fourth-order stencil the truncation error at
h = 1e-4 is ~h^4 ~ 1e-16 times the fifth-derivative scale — negligible —
so the step is chosen to keep subtraction noise (~eps/h) small instead.
The outer derivative of the connection uses the larger H = 3e-3 because
the connection values it differences already carry the inner stencil's
~1e-12-relative noise, which the outer difference amplifies by 1/H; on
the sharpest metric family this balances amplified noise against the
outer truncation at ~2e-7, well inside the 1e-6 oracle-agreement bound.
"""
from __future__ import annotations

import cmath
from typing import Callable, Sequence

from .expr import (
    Add, Exp, Expr, Mul, Num, Pow, Sqrt, Sym, ZERO, free_symbols,
)
from .tensor import DIM, Metric6

__all__ = [
    "compile_expr", "jet_evaluator", "einstein_jet",
    "SingularMatrixError", "metric_evaluator",
    "christoffel_fd", "ricci_fd", "einstein_fd",
    "H_METRIC", "H_CONNECTION",
]

H_METRIC = 1e-4
H_CONNECTION = 3e-3

_COORD_INDEX = {f"x{i}": i for i in range(DIM)}


class SingularMatrixError(ArithmeticError):
    """A metric with an exactly zero pivot at the point."""


def _emit(node: Expr, names: dict, lines: list, consts: dict) -> str:
    # module-level with its state passed in, so that compiling leaves no
    # reference cycle pinning the visited nodes
    got = names.get(node)
    if got is not None:
        return got
    if isinstance(node, Num):
        ref = f"c{len(consts) + 1}"
        consts[ref] = complex(float(node.re), float(node.im))
    elif isinstance(node, Sym):
        ref = f"x[{_COORD_INDEX[node.symbol.name]}]"
    else:
        state = names, lines, consts
        if isinstance(node, Add):
            src = " + ".join(_emit(t, *state) for t in node.terms)
        elif isinstance(node, Mul):
            src = " * ".join(_emit(f, *state) for f in node.factors)
        elif isinstance(node, Pow):
            src = f"{_emit(node.base, *state)} ** {node.n}"
        elif isinstance(node, Exp):
            src = f"_exp({_emit(node.arg, *state)})"
        elif isinstance(node, Sqrt):
            src = f"_sqrt({_emit(node.arg, *state)})"
        else:  # pragma: no cover
            raise TypeError(f"cannot compile node {type(node).__name__}")
        ref = f"t{len(lines) + 1}"
        lines.append(f"{ref} = {src}")
    names[node] = ref
    return ref


def compile_expr(e: Expr) -> Callable[[Sequence[complex]], complex]:
    """Compile to a function of the six coordinates.

    All free symbols must be coordinates, and any other raises
    ``ValueError`` naming it; bind parameters numerically (``subs``)
    before compiling."""
    return _compile([e], lambda refs: [f"return {refs[0]}"])


def _compile(roots: Sequence[Expr], result: Callable[[list], list],
             env: dict | None = None):
    # one function of x, whose first six entries are the coordinates;
    # ``result`` writes its closing lines, the last a return, from the
    # roots' references, and ``env`` holds any further names they use
    # (or other ``_exp`` and ``_sqrt``)
    stray = sorted({s.name for e in roots for s in free_symbols(e)
                    if s.name not in _COORD_INDEX})
    if stray:
        raise ValueError(f"non-coordinate symbols in compiled expression: {stray}")

    names: dict = {}
    lines: list[str] = []
    consts: dict = {}
    refs = [_emit(e, names, lines, consts) for e in roots]
    body = "\n    ".join(lines + result(refs))
    source = f"def _f(x):\n    {body}\n"
    ns: dict = {}
    exec(compile(source, "<kk6-oracle>", "exec"),
         {"_exp": cmath.exp, "_sqrt": cmath.sqrt, **consts, **(env or {})},
         ns)
    return ns["_f"]


def _as_tuple(refs: list) -> list:
    return [f"return ({''.join(r + ', ' for r in refs)})"]


def _compile_metric(metric: Metric6, env: dict | None = None):
    entries = [e for row in metric.lower for e in row]
    where = [i for i, e in enumerate(entries) if e is not ZERO]
    return where, _compile([entries[i] for i in where], _as_tuple, env)


# ---------------------------------------------------------------------------
# the jet route

# the 21 coordinate pairs (e, f), e <= f, of the second derivatives
_PAIRS = tuple((e, f) for e in range(DIM) for f in range(e, DIM))
_SLOT = {p: k for k, p in enumerate(_PAIRS)}
_UNIT = tuple(tuple(1.0 if e == i else 0.0 for e in range(DIM))
              for i in range(DIM))
_FLAT = (0.0,) * len(_PAIRS)


class _Jet:
    """A value ``v`` with its first derivatives ``d[e]`` and its second
    derivatives ``dd[k]`` along the pair ``_PAIRS[k]``, truncated after
    second order.  A plain number is a constant: ``+`` and ``*`` take one
    on either side, and each rule forms the value exactly as the plain
    compiled code does."""
    __slots__ = ("v", "d", "dd")

    def __init__(self, v, d, dd):
        self.v, self.d, self.dd = v, d, dd

    def __add__(self, o):
        if type(o) is not _Jet:
            return _Jet(self.v + o, self.d, self.dd)
        return _Jet(self.v + o.v, [a + b for a, b in zip(self.d, o.d)],
                    [a + b for a, b in zip(self.dd, o.dd)])

    __radd__ = __add__

    def __mul__(self, o):
        if type(o) is not _Jet:
            return _Jet(self.v * o, [a * o for a in self.d],
                        [a * o for a in self.dd])
        u, du = self.v, self.d
        w, dw = o.v, o.d
        return _Jet(u * w, [u * b + a * w for a, b in zip(du, dw)],
                    [u * b + a * w + du[e] * dw[f] + du[f] * dw[e]
                     for (e, f), a, b in zip(_PAIRS, self.dd, o.dd)])

    __rmul__ = __mul__

    def __pow__(self, n: int):
        u = self.v
        return self._chain(u ** n, n * u ** (n - 1),
                           n * (n - 1) * u ** (n - 2))

    def _chain(self, f, f1, f2):
        # the jet of F(self), given F, F' and F'' at the value
        d = self.d
        return _Jet(f, [f1 * a for a in d],
                    [f1 * a + f2 * d[e] * d[g]
                     for (e, g), a in zip(_PAIRS, self.dd)])


def _jet_exp(u):
    if type(u) is not _Jet:
        return cmath.exp(u)
    f = cmath.exp(u.v)
    return u._chain(f, f, f)


def _jet_sqrt(u):
    if type(u) is not _Jet:
        return cmath.sqrt(u)
    f = cmath.sqrt(u.v)
    f1 = 0.5 / f
    return u._chain(f, f1, -0.5 * f1 / u.v)


def jet_evaluator(metric: Metric6) -> Callable[[Sequence[complex]], tuple]:
    """One compiled function mapping six coordinates to the metric's
    nonzero entries as ``(index, value)`` pairs, the index in C order and
    the value a second-order ``_Jet``, or a plain number where the entry is
    constant."""
    where, fn = _compile_metric(metric,
                                {"_exp": _jet_exp, "_sqrt": _jet_sqrt})

    def at(x):
        return tuple(zip(where, fn([_Jet(complex(c), _UNIT[i], _FLAT)
                                    for i, c in enumerate(x)])))
    return at


def _inverse(g: list) -> list:
    """The inverse of a 6x6 matrix by Gauss-Jordan elimination, each
    pivot the first largest |re| + |im| of its column; an exactly zero
    pivot raises :class:`SingularMatrixError`."""
    m = [list(row) + [1.0 if c == r else 0.0 for c in range(DIM)]
         for r, row in enumerate(g)]
    for k in range(DIM):
        p, best = k, abs(m[k][k].real) + abs(m[k][k].imag)
        for r in range(k + 1, DIM):
            size = abs(m[r][k].real) + abs(m[r][k].imag)
            if size > best:
                p, best = r, size
        if m[p][k] == 0:
            raise SingularMatrixError("Singular matrix")
        m[k], m[p] = m[p], m[k]
        row = m[k]
        inv = 1 / row[k]
        row[:] = [v * inv for v in row]
        for r in range(DIM):
            if r != k and m[r][k] != 0:
                f = m[r][k]
                m[r] = [a - f * b for a, b in zip(m[r], row)]
    return [row[DIM:] for row in m]


def _dot(a, b) -> complex:
    # an explicit loop: ``sum`` over floats rounds differently from
    # Python 3.12 on
    s = 0j
    for u, w in zip(a, b):
        s += u * w
    return s


def einstein_jet(jf, x) -> tuple:
    """G_ab at ``x`` from the ``(index, value)`` pairs ``jf(x)`` of
    :func:`jet_evaluator`, as nested tuples indexed [a][b].  A metric whose
    value has an exactly zero pivot at ``x`` raises
    :class:`SingularMatrixError`.  A sum or product that overflows leaves
    an infinite or NaN entry, returned as it is, so that its caller sees
    the overflow; an overflow in a jet's ``**`` or ``exp`` raises
    ``OverflowError``.

    Every contraction runs over the nonzero derivatives only, and Ricci
    over a <= b, mirrored."""
    r6 = range(DIM)
    g = [[0j] * DIM for _ in r6]
    d1 = []         # (e, p, q, d_e g_pq), nonzero
    d2 = []         # (k, p, q, d_e d_f g_pq) for (e, f) = _PAIRS[k], nonzero
    for i, j in jf(x):
        p, q = divmod(i, DIM)
        if type(j) is _Jet:
            g[p][q] = j.v
            d1 += [(e, p, q, v) for e, v in enumerate(j.d) if v]
            d2 += [(k, p, q, v) for k, v in enumerate(j.dd) if v]
        else:
            g[p][q] = complex(j)
    gi = _inverse(g)

    # S[d][a][b] = d_a g_db + d_b g_da - d_d g_ab, Gamma^c_ab = g^cd S_dab / 2;
    # M[e] = g^-1 d_e g, so that d_e g^-1 = -M[e] g^-1
    s = [[[0j] * DIM for _ in r6] for _ in r6]
    m = [[[0j] * DIM for _ in r6] for _ in r6]
    for e, p, q, v in d1:
        s[p][e][q] += v
        s[p][q][e] += v
        s[e][p][q] -= v
        me = m[e]
        for c in r6:
            me[c][q] += gi[c][p] * v
    gamma = [[[0j] * DIM for _ in r6] for _ in r6]
    for a in r6:
        for b in range(a, DIM):
            col = [s[d][a][b] for d in r6]
            if any(col):
                for c in r6:
                    gamma[c][a][b] = gamma[c][b][a] = 0.5 * _dot(gi[c], col)
    # V_d = sum_c d_c g^cd = -sum_c (M[c] g^-1)_cd
    y = [0j] * DIM
    for c in r6:
        for p in r6:
            y[p] += m[c][c][p]
    div = [-_dot(y, [gi[p][d] for p in r6]) for d in r6]
    # W_ab = g^cd d_c d_a g_db, U_ab = g^cd d_c d_d g_ab and
    # H_ab = g^cd d_a d_b g_cd, from each nonzero second derivative
    w = [[0j] * DIM for _ in r6]
    u = [[0j] * DIM for _ in r6]
    h = [0j] * len(_PAIRS)
    for k, p, q, v in d2:
        e, f = _PAIRS[k]
        w[f][q] += gi[e][p] * v
        if e != f:
            w[e][q] += gi[f][p] * v
            u[p][q] += (gi[e][f] + gi[f][e]) * v
        else:
            u[p][q] += gi[e][e] * v
        h[k] += gi[p][q] * v
    trace = [0j] * DIM
    for c in r6:
        for d in r6:
            trace[c] += gamma[d][c][d]
    # flat rows for the two trace-of-product terms: (M[a])_cd, (M[b])_dc,
    # Gamma^c_ad and Gamma^d_bc, each in (c, d) order
    mflat = [[m[a][c][d] for c in r6 for d in r6] for a in r6]
    mflat_t = [[m[a][d][c] for c in r6 for d in r6] for a in r6]
    gflat = [[gamma[c][a][d] for c in r6 for d in r6] for a in r6]
    gflat_t = [[gamma[d][a][c] for c in r6 for d in r6] for a in r6]
    ric = [[0j] * DIM for _ in r6]
    for a in r6:
        for b in range(a, DIM):
            # 2 sum_c d_c Gamma^c_ab, then 2 d_b Gamma^c_ac with
            # Gamma^c_ac = g^cd d_a g_cd / 2 and
            # (d_b g^cd) d_a g_cd = -tr(M[b] M[a])
            t1 = (_dot(div, [s[d][a][b] for d in r6]) + w[a][b] + w[b][a]
                  - u[a][b])
            t2 = h[_SLOT[a, b]] - _dot(mflat[b], mflat_t[a])
            quad = _dot([gamma[c][a][b] for c in r6], trace) \
                - _dot(gflat[a], gflat_t[b])
            ric[a][b] = ric[b][a] = 0.5 * t1 - 0.5 * t2 + quad
    rs = 0j
    for a in r6:
        rs += _dot(gi[a], ric[a])
    return tuple(tuple(ric[a][b] - 0.5 * rs * g[a][b] for b in r6)
                 for a in r6)


# ---------------------------------------------------------------------------
# the finite-difference stencil

def metric_evaluator(metric: Metric6):
    """One compiled function for the metric: its ``many(points)`` maps a
    sequence of n points to one ``(n, 6, 6)`` numpy array, and the closure
    maps six coordinates to ``many`` of that one point.  Each value is the
    one :func:`compile_expr` gives for its entry, bit for bit."""
    import numpy as np

    where, fn = _compile_metric(metric)
    where = np.array(where, dtype=np.intp)

    def many(points):
        out = np.zeros((len(points), DIM * DIM), dtype=complex)
        out[:, where] = [fn(x) for x in points]
        return out.reshape(len(points), DIM, DIM)

    def ev(x):
        return many([x])[0]

    ev.many = many
    return ev


def _shift(x, c: int, h: float):
    y = list(x)
    y[c] = y[c] + h
    return y


def _stencil(x, h: float) -> list:
    """x, then its 24 five-point neighbours: coordinate-major, each
    coordinate shifted by +2h, +h, -h, -2h."""
    return [list(x)] + [_shift(x, c, s) for c in range(DIM)
                        for s in (2 * h, h, -h, -2 * h)]


def _samples(gf, points: list):
    """The metric at every point, as one ``(n, 6, 6)`` array."""
    import numpy as np

    many = getattr(gf, "many", None)
    if many is not None:
        return many(points)
    return np.array([gf(p) for p in points])


def _d1(vals, h: float):
    """Fourth-order five-point central differences along each coordinate.

    ``vals[p]`` holds the values on the p-th :func:`_stencil`; the result
    ``[p, c]`` is the derivative along coordinate c at its centre."""
    nb = vals[:, 1:].reshape(len(vals), DIM, 4, *vals.shape[2:])
    return (-nb[:, :, 0] + 8 * nb[:, :, 1]
            - 8 * nb[:, :, 2] + nb[:, :, 3]) / (12 * h)


def _christoffel(g):
    """Gamma[p, c, a, b] at n points from their ``(n, 25, 6, 6)`` metric
    stencils."""
    import numpy as np

    ginv = np.linalg.inv(g[:, 0])
    dg = _d1(g, H_METRIC)
    # S[p, a, d, b] = d_a g_db + d_b g_da - d_d g_ab
    s = dg + dg.transpose(0, 3, 2, 1) - dg.transpose(0, 2, 1, 3)
    return 0.5 * np.einsum("pcd,padb->pcab", ginv, s)


def christoffel_fd(gf, x):
    """Gamma[c, a, b] from central differences of the metric closure."""
    return _christoffel(_samples(gf, _stencil(x, H_METRIC))[None])[0]


def ricci_fd(gf, x):
    import numpy as np

    outer = _stencil(x, H_CONNECTION)
    g = _samples(gf, [p for y in outer for p in _stencil(y, H_METRIC)])
    gammas = _christoffel(g.reshape(len(outer), -1, DIM, DIM))
    gamma = gammas[0]
    dgamma = _d1(gammas[None], H_CONNECTION)[0]
    term1 = np.einsum("ccab->ab", dgamma)
    term2 = np.einsum("bcac->ab", dgamma)
    trace = np.einsum("dcd->c", gamma)
    term3 = np.einsum("cab,c->ab", gamma, trace)
    term4 = np.einsum("cad,dbc->ab", gamma, gamma)
    return term1 - term2 + term3 - term4


def einstein_fd(gf, x):
    import numpy as np

    g = gf(x)
    r = ricci_fd(gf, x)
    rs = np.einsum("ab,ab->", np.linalg.inv(g), r)
    return r - 0.5 * rs * g
