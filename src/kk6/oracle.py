"""Independent numeric oracle for curvature.

Compiles expressions to plain ``cmath`` code with common-subtree
elimination: :func:`compile_expr` one expression, :func:`tensor_evaluator`
all nonzero entries of a tensor into one function that returns them at
once (the metric here, the connection in ``dynamics``), with one emitter
for both.  From the metric it rebuilds the connection and curvature purely
numerically: five-point (fourth-order) central differences for the metric
and connection derivatives, ``numpy.linalg.inv`` for the metric inverse,
einsum contractions for the tensor algebra.

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
    Add, Conj, Exp, Expr, Mul, Num, Pow, Sqrt, Sym, ZERO, free_symbols,
)
from .tensor import DIM, Metric6

__all__ = [
    "compile_expr", "tensor_evaluator", "metric_evaluator", "christoffel_fd",
    "ricci_fd", "einstein_fd", "H_METRIC", "H_CONNECTION",
]

H_METRIC = 1e-4
H_CONNECTION = 3e-3

_COORD_INDEX = {f"x{i}": i for i in range(DIM)}


def _emit(node: Expr, names: dict, lines: list) -> str:
    # module-level with its state passed in, so that compiling leaves no
    # reference cycle pinning the visited nodes
    got = names.get(node)
    if got is not None:
        return got
    if isinstance(node, Num):
        ref = f"complex({float(node.re)!r}, {float(node.im)!r})"
    elif isinstance(node, Sym):
        ref = f"x[{_COORD_INDEX[node.symbol.name]}]"
    else:
        if isinstance(node, Add):
            src = " + ".join(_emit(t, names, lines) for t in node.terms)
        elif isinstance(node, Mul):
            src = " * ".join(_emit(f, names, lines) for f in node.factors)
        elif isinstance(node, Pow):
            src = f"{_emit(node.base, names, lines)} ** {node.n}"
        elif isinstance(node, Exp):
            src = f"_exp({_emit(node.arg, names, lines)})"
        elif isinstance(node, Sqrt):
            src = f"_sqrt({_emit(node.arg, names, lines)})"
        elif isinstance(node, Conj):
            src = f"({_emit(node.arg, names, lines)}).conjugate()"
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
    return _compile([e], lambda refs: refs[0])


def tensor_evaluator(entries: Sequence[Expr], shape: tuple
                     ) -> Callable[[Sequence[complex]], np.ndarray]:
    """One compiled function for a whole tensor: ``entries`` in C order of
    ``shape``.  The closure maps six coordinates to the filled array.

    The nonzero entries share one straight-line body, so a subtree common
    to several entries is computed once; each value is the one
    :func:`compile_expr` gives for its entry, bit for bit."""
    nonzero = [i for i, e in enumerate(entries) if e is not ZERO]
    fn = _compile([entries[i] for i in nonzero],
                  lambda refs: f"({''.join(r + ', ' for r in refs)})")
    where = np.array(nonzero, dtype=np.intp)
    size = len(entries)

    def ev(x) -> np.ndarray:
        out = np.zeros(size, dtype=complex)
        out[where] = fn(x)
        return out.reshape(shape)

    return ev


def _compile(roots: Sequence[Expr], result: Callable[[list], str]):
    # one function of the coordinates; ``result`` writes its return
    # expression from the roots' references
    stray = sorted({s.name for e in roots for s in free_symbols(e)
                    if s.name not in _COORD_INDEX})
    if stray:
        raise ValueError(f"non-coordinate symbols in compiled expression: {stray}")

    names: dict = {}
    lines: list[str] = []
    refs = [_emit(e, names, lines) for e in roots]
    body = "\n    ".join(lines + [f"return {result(refs)}"])
    source = f"def _f(x):\n    {body}\n"
    ns: dict = {}
    exec(compile(source, "<kk6-oracle>", "exec"),
         {"_exp": cmath.exp, "_sqrt": cmath.sqrt}, ns)
    return ns["_f"]


def metric_evaluator(metric: Metric6) -> Callable[[Sequence[complex]], np.ndarray]:
    return tensor_evaluator([e for row in metric.lower for e in row],
                            (DIM, DIM))


def _shift(x, c: int, h: float):
    y = list(x)
    y[c] = y[c] + h
    return y


def _d1(f, x, c: int, h: float) -> np.ndarray:
    """Fourth-order five-point central difference along coordinate c."""
    return (-f(_shift(x, c, 2 * h)) + 8 * f(_shift(x, c, h))
            - 8 * f(_shift(x, c, -h)) + f(_shift(x, c, -2 * h))) / (12 * h)


def christoffel_fd(gf, x) -> np.ndarray:
    """Gamma[c, a, b] from central differences of the metric closure."""
    g = gf(x)
    ginv = np.linalg.inv(g)
    dg = np.stack([_d1(gf, x, c, H_METRIC) for c in range(DIM)])
    # S[a, d, b] = d_a g_db + d_b g_da - d_d g_ab
    s = dg + dg.transpose(2, 1, 0) - dg.transpose(1, 0, 2)
    return 0.5 * np.einsum("cd,adb->cab", ginv, s)


def ricci_fd(gf, x) -> np.ndarray:
    gamma = christoffel_fd(gf, x)

    def gamma_at(pt):
        return christoffel_fd(gf, pt)

    dgamma = np.stack([_d1(gamma_at, x, e, H_CONNECTION) for e in range(DIM)])
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
