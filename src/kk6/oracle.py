"""Independent numeric oracle for curvature.

Compiles expressions to plain ``cmath`` code with common-subtree
elimination: :func:`compile_expr` one expression, :func:`tensor_evaluator`
all nonzero entries of a tensor into one function that returns them at
once (the metric here), with one emitter for both and for the geodesic
acceleration ``dynamics.connection_evaluator`` compiles.  Each numeric
constant is formed once, when its function is compiled.  From the metric
it rebuilds the connection and curvature purely numerically: five-point
(fourth-order) central differences for the metric and connection
derivatives, ``numpy.linalg.inv`` for the metric inverse, einsum
contractions for the tensor algebra.

The whole stencil is one batch.  :func:`ricci_fd` (and so
:func:`einstein_fd`) needs the connection at the point and its 24
neighbours, each from the metric at 25 points: those 625 metric samples
are formed as one array, differenced in one elementwise expression,
inverted in one batched ``inv`` and contracted in one ``einsum``.  The
metric closure ``gf`` is still any callable of one point; the batch takes
its ``gf.many`` when it has one (the closures of :func:`tensor_evaluator`
do) and calls ``gf`` point by point otherwise.  Both routes give the same
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

import numpy as np

from .expr import (
    Add, Exp, Expr, Mul, Num, Pow, Sqrt, Sym, ZERO, free_symbols,
)
from .tensor import DIM, Metric6

__all__ = [
    "compile_expr", "tensor_evaluator", "metric_evaluator", "christoffel_fd",
    "ricci_fd", "einstein_fd", "H_METRIC", "H_CONNECTION",
]

H_METRIC = 1e-4
H_CONNECTION = 3e-3

_COORD_INDEX = {f"x{i}": i for i in range(DIM)}


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

    All free symbols must be coordinates; bind parameters numerically
    (``subs``) before compiling."""
    return _compile([e], lambda refs: [f"return {refs[0]}"])


def tensor_evaluator(entries: Sequence[Expr], shape: tuple
                     ) -> Callable[[Sequence[complex]], np.ndarray]:
    """One compiled function for a whole tensor: ``entries`` in C order of
    ``shape``.  The closure maps six coordinates to the filled array, and
    its ``many(points)`` maps a sequence of n points to one
    ``(n, *shape)`` array.

    The nonzero entries share one straight-line body, so a subtree common
    to several entries is computed once; each value is the one
    :func:`compile_expr` gives for its entry, bit for bit, and ``many``
    row i is the closure's array at ``points[i]``, bit for bit."""
    nonzero = [i for i, e in enumerate(entries) if e is not ZERO]
    fn = _compile([entries[i] for i in nonzero], lambda refs: [
        f"return ({''.join(r + ', ' for r in refs)})"])
    where = np.array(nonzero, dtype=np.intp)
    size = len(entries)

    def ev(x) -> np.ndarray:
        out = np.zeros(size, dtype=complex)
        out[where] = fn(x)
        return out.reshape(shape)

    def many(points) -> np.ndarray:
        out = np.zeros((len(points), size), dtype=complex)
        out[:, where] = [fn(x) for x in points]
        return out.reshape(len(points), *shape)

    ev.many = many
    return ev


def _compile(roots: Sequence[Expr], result: Callable[[list], list],
             env: dict | None = None):
    # one function of x, whose first six entries are the coordinates;
    # ``result`` writes its closing lines, the last a return, from the
    # roots' references, and ``env`` holds any further names they use
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


def metric_evaluator(metric: Metric6) -> Callable[[Sequence[complex]], np.ndarray]:
    return tensor_evaluator([e for row in metric.lower for e in row],
                            (DIM, DIM))


def _shift(x, c: int, h: float):
    y = list(x)
    y[c] = y[c] + h
    return y


def _stencil(x, h: float) -> list:
    """x, then its 24 five-point neighbours: coordinate-major, each
    coordinate shifted by +2h, +h, -h, -2h."""
    return [list(x)] + [_shift(x, c, s) for c in range(DIM)
                        for s in (2 * h, h, -h, -2 * h)]


def _samples(gf, points: list) -> np.ndarray:
    """The metric at every point, as one ``(n, 6, 6)`` array."""
    many = getattr(gf, "many", None)
    if many is not None:
        return many(points)
    return np.array([gf(p) for p in points])


def _d1(vals: np.ndarray, h: float) -> np.ndarray:
    """Fourth-order five-point central differences along each coordinate.

    ``vals[p]`` holds the values on the p-th :func:`_stencil`; the result
    ``[p, c]`` is the derivative along coordinate c at its centre."""
    nb = vals[:, 1:].reshape(len(vals), DIM, 4, *vals.shape[2:])
    return (-nb[:, :, 0] + 8 * nb[:, :, 1]
            - 8 * nb[:, :, 2] + nb[:, :, 3]) / (12 * h)


def _christoffel(g: np.ndarray) -> np.ndarray:
    """Gamma[p, c, a, b] at n points from their ``(n, 25, 6, 6)`` metric
    stencils."""
    ginv = np.linalg.inv(g[:, 0])
    dg = _d1(g, H_METRIC)
    # S[p, a, d, b] = d_a g_db + d_b g_da - d_d g_ab
    s = dg + dg.transpose(0, 3, 2, 1) - dg.transpose(0, 2, 1, 3)
    return 0.5 * np.einsum("pcd,padb->pcab", ginv, s)


def christoffel_fd(gf, x) -> np.ndarray:
    """Gamma[c, a, b] from central differences of the metric closure."""
    return _christoffel(_samples(gf, _stencil(x, H_METRIC))[None])[0]


def ricci_fd(gf, x) -> np.ndarray:
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


def einstein_fd(gf, x) -> np.ndarray:
    g = gf(x)
    r = ricci_fd(gf, x)
    rs = np.einsum("ab,ab->", np.linalg.inv(g), r)
    return r - 0.5 * rs * g
