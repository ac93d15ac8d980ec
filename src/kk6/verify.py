"""The claim catalog: every derived identity as a named, runnable check.

Each check builds its objects from the ansatz constructors, or reads
the mode another claim built (``_scalar_mode``, ``_dirac_mode``), forms
residual expressions, and grades them with the probabilistic zero test
at :func:`~kk6.zeros.is_zero`'s default of 32 points (6 in a sign scan).
Each residual is one :func:`~kk6.expr.contract` call and each derivative
one :func:`~kk6.expr.derive` call, with one kernel context per check.
One grader, ``_grade``, tests residuals: a literally zero residual counts
as structural, and the others go, as they are formed, to one
:func:`~kk6.zeros.are_zero` call, which evaluates the residuals that share
free symbols at their shared sample points through one tape and gives
each its own result; ``_grade`` reads them in order up to the first that
is not zero.  ``_close`` alone writes a record's two counts, ``samples``
and ``structural``: both cover only the residuals before the verdict.
:func:`grade_entries` grades each entry of a 6x6 residual grid on its
own, for the readers of claimed inverses (``inverse.halfspin`` and
``kk6 curvature``) to fold.
Verdicts:

* ``Confirmed`` — every residual tested zero at tolerance under the
  standard stated assumptions (recorded per report),
* ``Conditional`` — the claim is a measurement (no pass threshold) or
  holds only under a non-standard reading; the report carries the
  measured numbers,
* ``Refuted`` — a residual is nonzero, with a concrete witness,
* ``Inconclusive`` — evaluation could not decide (overflow, unbound).

Dispersion substitutions (p0 = sqrt(p1^2+p2^2+p3^2+m0^2)) are applied
before residual formation and stated in each report's assumptions.

Each claim is stated once, as a row of :data:`REGISTRY` (id, anchor,
must-pass flag, parameters).  A check returns only what it measured;
:func:`run_claim` adds the id, anchor and seed to build the record.

Each parameter is stated once too: its kind of value in
:data:`PARAM_KINDS`, which the command line parses against as well, and
its range check in :func:`read_params`, which reads a claim's or a
command's parameters before anything is computed.
"""
from __future__ import annotations

import cmath
import math
import random
from contextlib import suppress
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from typing import Callable

from .ansatz import (
    ETA4, ETA5, IDX5, dirac_metric, field_strength, fsq, gravity_metric,
    kk_rows, massive_wave_potential, null_wave_potential, onshell_energy,
    photon_metric, proca_metric, scalar_metric, weak_field_block,
    ScalarMode, SpinorMode, _DIRAC_ROWS, _E,
)
from .curvature import einstein, ricci_scalar
from .dynamics import (
    closed_form_deviation, closed_form_exprs, closed_form_state,
    connection_evaluator, integrate, interval_along, two_path_fringes,
    _path_difference, _phase,
)
from .expr import (
    Add, Expr, ExprError, HALF, I, MINUS_ONE, Pow, ZERO, _kids, conj,
    context, contract, coords, derive, exp, mul, num, power, sym,
)
from .oracle import einstein_fd, metric_evaluator
from .parse import ParseError, parse_expression
from .report import (
    CONDITIONAL, CONFIRMED, INCONCLUSIVE, REFUTED, ClaimReport,
)
from .tensor import DIM, Metric6, identity_residual
from .zeros import _check_seed, _check_tol, are_zero, is_zero

__all__ = [
    "Claim", "UnknownClaimError", "ClaimParamError",
    "REGISTRY", "claim_ids", "must_pass_ids",
    "run_claim", "run_suite", "refuted_must_pass",
    "PARAM_KINDS", "GEODESIC_DEFAULTS", "FRINGE_DEFAULTS", "coerce_param",
    "read_params", "scalar_momenta", "fringe_profile", "grade_entries",
]

class UnknownClaimError(ValueError):
    pass


class ClaimParamError(ValueError):
    pass


# ---------------------------------------------------------------------------
# parameters

# Every parameter a claim, an ansatz or a command reads, by the kind of
# value it takes: "param" a number, or ``symbolic`` to leave it unbound;
# "real" a number that fits a float; "int" an integer; "expr" expression
# text; "choice" a potential preset.
PARAM_KINDS = {
    **dict.fromkeys(("p0", "p1", "p2", "p3", "m0", "hbar", "omega", "k3",
                     "gamma", "eps", "kappa"), "param"),
    **dict.fromkeys(("sol", "pol", "phase_factor", "steps", "points"),
                    "int"),
    **dict.fromkeys(("tau_end", "d", "L", "wavelength", "ymax"), "real"),
    "perturb": "expr", "potential": "choice",
}
_POTENTIALS = ("null", "constant", "massive")

# The parameters of the geodesic and fringes commands, with defaults; the
# claims that integrate a geodesic or lay a fringe grid share them.
GEODESIC_DEFAULTS = {"p1": 0, "p2": 0, "p3": 0.75, "m0": 1, "steps": 1000,
                     "tau_end": 1}
FRINGE_DEFAULTS = {"d": 10, "L": 400, "wavelength": 0.5, "ymax": 15,
                   "points": 1201}
# The most integration steps or fringe-grid points a run takes: each one
# holds memory until the report is written, so more is refused up front.
_MOST_SAMPLES = 100_000
# The most sample points of a gravity split: each takes three
# finite-difference Einstein tensors (the background's shared by the three
# families at one eps and seed), 3.4 to 8.4 ms on a 2-core host, so a run
# is bounded at about 9 s.
_MOST_SPLIT_POINTS = 1_000
# The most monomials a perturbation may expand to (``_expanded_terms``):
# the curvature stages expand its powers of sums.  ``ricci.scalar.zero``
# with perturb=(1+x1+x2+x3+x4)^k, C(k + 4, 4) monomials, took 1.2 s at
# k = 3 (35), 4.2 s at k = 4 (70), 9.5 s at k = 5 (126) and 109 s at
# k = 8 (495) on a 2-core host, so a run is bounded at about 5 s.
_MOST_PERTURB_TERMS = 70


def _expanded_terms(e: Expr) -> int:
    """How many monomials expanding ``e`` may give, counted up to one
    above ``_MOST_PERTURB_TERMS``.  A sum adds its terms' counts; a
    product, and a function of its argument, multiplies its parts'; a
    power of a part of t monomials to n has the C(|n| + t - 1, t - 1)
    monomials of degree |n| in t, for a negative n too, as the inverse
    metric raises it back."""
    return _count_terms(e, {})


def _count_terms(node: Expr, memo: dict) -> int:
    # module-level with its memo passed in, so that counting leaves no
    # reference cycle pinning the memo and the expression
    got = memo.get(node)
    if got is None:
        kids = [_count_terms(k, memo) for k in _kids(node)]
        if isinstance(node, Add):
            got = sum(kids)
        elif isinstance(node, Pow):
            got = math.comb(abs(node.n) + kids[0] - 1, kids[0] - 1)
        else:
            got = math.prod(kids)
        got = memo[node] = min(got, _MOST_PERTURB_TERMS + 1)
    return got


def coerce_param(name: str, value, real: bool = False):
    """The typed value of parameter ``name``, by its kind in
    :data:`PARAM_KINDS`: a ``Fraction`` for a "param" or a "real", read
    from its text (so ``3/4``, ``"3/4"``, ``0.75`` and ``Fraction(3, 4)``
    agree); an ``int`` for an "int", which refuses a number that is not
    integral; the text itself for an "expr" or a "choice"; None for
    ``symbolic`` (or None), which only a "param" admits.  With ``real`` a
    "param" is read as a "real": it refuses ``symbolic`` and a number too
    large for a float.  Raises :class:`ClaimParamError`."""
    kind = PARAM_KINDS[name]
    if kind == "param" and real:
        kind = "real"
    if value is None or value == "symbolic":
        if kind == "param":
            return None
        raise ClaimParamError(f"{name} does not admit a symbolic value")
    if kind == "choice":
        if value not in _POTENTIALS:
            raise ClaimParamError(
                f"{name} must be one of {', '.join(_POTENTIALS)}")
        return value
    if kind == "expr":
        try:
            e = parse_expression(str(value))
        except (ParseError, ExprError) as err:
            raise ClaimParamError(f"{name}: {err}") from None
        if _expanded_terms(e) > _MOST_PERTURB_TERMS:
            raise ClaimParamError(f"{name}: expands to more than "
                                  f"{_MOST_PERTURB_TERMS} monomials")
        return str(value)
    try:
        v = Fraction(str(value))
        if kind == "int":
            if v.denominator != 1:
                raise ValueError
            v = int(v)
        elif kind == "real":
            float(v)
    except (ValueError, ZeroDivisionError):
        raise ClaimParamError(f"{name} expects "
                              f"{'an integer' if kind == 'int' else 'a number'}"
                              f", got {value!r}") from None
    except OverflowError:
        raise ClaimParamError(f"{name} is too large for a float") from None
    return v


def read_params(spec: dict, given: dict, reader: str) -> dict:
    """The parameters ``reader`` (a claim id or a command) takes: for each
    name of ``spec``, the value ``given`` binds, coerced by its kind, or
    else the name's default in ``spec`` (None: unbound).  A name with a
    default is numeric and refuses ``symbolic``.  Unbound names are left
    out.  Raises :class:`ClaimParamError` for a value of the wrong kind or
    out of range, integration ``steps`` and fringe-grid ``points`` above
    100,000, gravity-split ``points`` above 1,000 and a ``perturb`` that
    expands to more than 70 monomials among them."""
    out = {}
    for name, default in spec.items():
        if name not in given and default is None:
            continue
        value = given.get(name, default)
        if default is not None and (value is None or value == "symbolic"):
            raise ClaimParamError(f"{reader} requires numeric parameters, "
                                  f"got {name}=symbolic")
        value = coerce_param(name, value, real=default is not None)
        if value is not None:
            out[name] = value
    if "steps" in out and out["steps"] < 2:
        raise ClaimParamError("steps must be at least 2")
    if "tau_end" in out:        # the geodesic command
        if not float(out["tau_end"]) > 0:
            raise ClaimParamError("tau_end must be positive")
        h = float(out["tau_end"]) / out["steps"]
        if h == 0 or not math.isfinite(1 / h):  # integrate's 1/h, finite
            raise ClaimParamError("tau_end/steps must be at least 1/DBL_MAX "
                                  "(about 5.6e-309)")
        if float(out["m0"]) == 0:
            raise ClaimParamError("geodesic integration needs m0 != 0 (the "
                                  "compact phase degenerates otherwise)")
        try:    # the on-shell energy squared, which the connection reads
            float(sum(out[k] ** 2 for k in ("p1", "p2", "p3", "m0")))
        except OverflowError:
            raise ClaimParamError(
                "geodesic momenta overflow a float: p1^2 + p2^2 + p3^2 + "
                "m0^2 must be finite") from None
    if "ymax" in out:
        d, length, lam, ymax = (float(out[k]) for k in
                                ("d", "L", "wavelength", "ymax"))
        if min(d, length, lam, ymax) <= 0:
            raise ClaimParamError("d, L, wavelength and ymax must all be "
                                  "positive")
        far = 2 * math.pi * math.hypot(length, ymax + d / 2) / lam
        if not (math.isfinite(2 * ymax) and math.isfinite(far)):
            raise ClaimParamError(
                "fringe geometry overflows a float: 2*ymax and "
                "2*pi*hypot(L, ymax + d/2)/wavelength must be finite")
    for name, top in (("sol", 4), ("pol", 2)):
        if not 1 <= out.get(name, 1) <= top:
            raise ClaimParamError(f"{name} must be 1..{top}, got {out[name]}")
    # a fringe grid, else a gravity split's sample count
    least, most = (2, _MOST_SAMPLES) if "ymax" in out else \
        (1, _MOST_SPLIT_POINTS)
    if "points" in out and out["points"] < least:
        raise ClaimParamError(f"points must be at least {least}")
    for name, top in (("steps", _MOST_SAMPLES), ("points", most)):
        if out.get(name, 0) > top:
            raise ClaimParamError(f"{name} must be at most {top}, "
                                  f"got {out[name]}")
    return out


def scalar_momenta(params):
    """The scalar mode's momenta (p0, p1, p2, p3) and m0, symbolic where
    unbound, with p0 on shell unless ``params`` gives it; returns
    (p, m0, whether p0 was given)."""
    p1, p2, p3, m0 = (_E(params.get(k), k) for k in ("p1", "p2", "p3",
                                                     "m0"))
    explicit = "p0" in params
    p0 = _E(params["p0"], "p0") if explicit else onshell_energy(p1, p2, p3, m0)
    return (p0, p1, p2, p3), m0, explicit


def _linspace(start: float, stop: float, n: int) -> list:
    # the grid ``numpy.linspace`` lays, bit for bit: i * step + start, the
    # step (i / (n - 1)) * delta where it underflows, and the last point
    # ``stop`` itself
    div = n - 1
    delta = stop - start
    step = delta / div
    grid = [i * step + start if step else i / div * delta + start
            for i in range(n)]
    grid[-1] = stop
    return grid


def fringe_profile(params):
    """The two-path fringe profile on the grid of ``params``, read and
    range-checked through :data:`FRINGE_DEFAULTS`, with its geometry
    (d, L, wavelength as floats, points)."""
    g = read_params(FRINGE_DEFAULTS, params, "fringes")
    d, length, lam, ymax = (float(g[k]) for k in ("d", "L", "wavelength",
                                                  "ymax"))
    grid = _linspace(-ymax, ymax, g["points"])
    return (d, length, lam, g["points"]), two_path_fringes(d, length, lam,
                                                           grid)


# ---------------------------------------------------------------------------
# shared modes

# Each claim reads a mode, and never changes it, so the claims that read
# one mode share one object, built on the first read in the process: these
# memos save building the mode again.  A half-spin mode builds its metric,
# printed inverse and stress tensor on their first read and keeps them, so
# its one memo holds whatever its claims have read, and nothing else.  The
# curvature is shared apart from them, by the metric's grid (``tensor``'s
# grid cache), so a claim that builds its own metric on a mode's grid
# reads the mode's curvature too.
# Each memo is keyed on the values its builder reads: a momentum is a
# number (None: symbolic) or an expression, and equal numbers build one
# node and equal expressions are one object, so equal values share an
# entry and unequal ones never do.

@lru_cache(maxsize=8)
def _scalar_mode(p: tuple, m0) -> ScalarMode:
    return scalar_metric(p=p, m0=m0)


@lru_cache(maxsize=8)
def _dirac_mode(sol: int, p1, p2, p3, m0) -> SpinorMode:
    return dirac_metric(sol, p1, p2, p3, m0)


# ---------------------------------------------------------------------------
# residual grading

@dataclass(frozen=True)
class _Outcome:
    status: str                  # zero | nonzero | inconclusive | measured
    max_residual: float
    samples: int
    structural: int = 0          # residuals that simplified to literal 0
    witness: dict | None = None
    label: str | None = None
    note: str | None = None


def _grade(pairs, seed: int, tol: float, trials: int = 32) -> _Outcome:
    """Grade labelled residual expressions at :func:`is_zero`'s sample
    count (``trials`` sets a sign scan's) through :func:`are_zero`; stop
    at the first nonzero."""
    tested = []             # (label, literally zero residuals before it)
    structural = 0

    def residuals():
        nonlocal structural
        for label, e in pairs:
            if e == ZERO:
                structural += 1
            else:
                tested.append((label, structural))
                yield e
    results = are_zero(residuals(), seed=seed, trials=trials, tol=tol)
    worst, total = 0.0, 0
    for (label, before), v in zip(tested, results):
        total += v.samples
        worst = max(worst, v.max_residual)
        if v.verdict != "zero":
            return _Outcome(v.verdict, worst, total, before, v.witness,
                            label, v.note)
    return _Outcome("zero", worst, total, structural)


def grade_entries(grid, seed: int, tol: float) -> list[_Outcome]:
    """One :func:`_grade` outcome per entry of a 6x6 residual grid, row by
    row: a literally zero entry is structural, every other entry gets its
    own zero test, and an outcome that is not zero carries its entry's
    label ``(a, b)``."""
    return [_grade([((a, b), grid[a][b])], seed, tol)
            for a in range(DIM) for b in range(DIM)]


_VERDICT_OF = {"zero": CONFIRMED, "nonzero": REFUTED,
               "inconclusive": INCONCLUSIVE, "measured": CONDITIONAL}


def _close(out: _Outcome, assumptions=(), notes=()) -> dict:
    """What a check measured: the ``ClaimReport`` fields except the claim
    id, anchor and seed, which :func:`run_claim` adds."""
    notes = tuple(notes)
    if out.status == "nonzero" and out.label:
        notes += (f"residual nonzero: {out.label}",)
    elif out.status == "inconclusive" and out.label:
        notes += (f"undecided: {out.label}" + (f" ({out.note})" if out.note
                                               else ""),)
    return dict(verdict=_VERDICT_OF[out.status],
                max_residual=out.max_residual, samples=out.samples,
                structural=out.structural, assumptions=tuple(assumptions),
                notes=notes, witness=out.witness)


def _div(v, ctx, extra=()) -> Expr:
    """Flat divergence ``eta^ii d_i v_i`` over the first ``len(v)`` of the
    five non-compact indices (four: the 4d divergence), plus the products
    ``extra``, as one contraction."""
    x = coords()
    return contract([*((ETA5[i], derive(e, x[IDX5[i]], ctx))
                       for i, e in enumerate(v)), *extra], ctx)


# ---------------------------------------------------------------------------
# scalar-mode claims

_ONSHELL_NOTE = "p0 = sqrt(p1^2 + p2^2 + p3^2 + m0^2) substituted before " \
    "residual formation"


def check_klein_gordon(seed, tol, params) -> dict:
    x = coords()
    pv, m0, explicit = scalar_momenta(params)
    mode = _scalar_mode(pv, m0)
    ctx = context()

    # phi = exp(-i p.x), its argument expanded so that it is its own
    # simplify result and each derivative stays in the kernel
    phi = exp(contract([(num(0, -1), pv[0], x[0]),
                        *((I, pv[a], x[a]) for a in (1, 2, 3))], ctx))
    m2 = power(m0, 2)
    kg = _div([derive(phi, x[a], ctx) for a in range(4)], ctx, [(m2, phi)])

    g = einstein(mode.metric)
    p_low = mode.grad[:4]        # lower four-momentum = 4d phase gradient
    pairs = [("wave equation: box phi + m0^2 phi", kg)]
    for a in range(4):
        for b in range(a, 4):
            pairs.append((f"4d Einstein block ({a},{b}) minus p_{a} p_{b}",
                          contract([(g[a][b],),
                                    (MINUS_ONE, p_low[a], p_low[b])], ctx)))
    for a in range(4):
        pairs.append((f"mixed extra row (5,{a}) plus m0 p_{a}",
                      contract([(g[5][a],), (m0, p_low[a])], ctx)))
    pairs.append(("extra diagonal (5,5) minus m0^2",
                  contract([(g[5][5],), (MINUS_ONE, m2)], ctx)))
    for a in range(DIM):
        pairs.append((f"compact row (4,{a})", g[4][a]))
    out = _grade(pairs, seed, tol)

    notes = []
    opposite = contract([(g[0][0],), (p_low[0], p_low[0])], ctx)
    if opposite == ZERO:
        notes.append("coupling sign degenerate for this configuration")
    else:
        flip = is_zero(opposite, seed=seed, tol=tol)
        if flip.verdict == "nonzero":
            notes.append("block coupling is +1: the opposite sign leaves "
                         f"residual {flip.max_residual:.3e} at the first "
                         "sample")
        elif flip.verdict == "zero":
            notes.append("opposite coupling sign unexpectedly consistent")
        else:
            notes.append(f"opposite coupling sign undecided ({flip.note})")
    notes.append(
        "hbar-explicit reading: dividing the phase by hbar scales the 4d "
        "block to +p_a p_b / hbar^2, so a unit coupling holds only at "
        "hbar = 1 (conditional, not refuted)")
    assumptions = ["hbar = 1"]
    if explicit:
        assumptions.append("energy component taken from parameters; "
                           "dispersion relation not assumed")
    else:
        assumptions.append(_ONSHELL_NOTE)
    extra = {}    # witness floats: a momentum beyond them is left out
    for name in ("p0", "p1", "p2", "p3"):
        with suppress(KeyError, OverflowError):
            extra[name] = complex(params[name])
    if extra and (out.witness is not None or out.status == "nonzero"):
        out = replace(out, witness={**extra, **(out.witness or {})})
    return _close(out, assumptions, notes)


def check_ricci_scalar_zero(seed, tol, params) -> dict:
    mode = _scalar_mode(*scalar_momenta(params)[:2])
    notes = []
    perturb = params.get("perturb")
    if perturb is None:
        metric = mode.metric
    else:
        factor = parse_expression(perturb)
        rows = [list(r) for r in mode.metric.lower]
        rows[4][4] = contract([(rows[4][4], factor)], context())
        metric = Metric6(rows)
        notes.append(f"compact entry multiplied by {perturb}")
    out = _grade([("scalar curvature", ricci_scalar(metric))], seed, tol)
    return _close(out, ["hbar = 1", _ONSHELL_NOTE], notes)


# ---------------------------------------------------------------------------
# vector-mode claims

def _vector_pairs(f, equation: str, invariant: str, ctx):
    """The five flat field equations of ``f`` and its invariant F^2."""
    pairs = [(f"{equation}, component {IDX5[j]}",
              _div([f[i][j] for i in range(5)], ctx)) for j in range(5)]
    pairs.append((invariant, fsq(f)))
    return pairs


_MAXWELL_ASSUMPTIONS = (
    "null wave vector k = (omega, 0, 0, omega)",
    "transverse polarization (the wave number does not drive the "
    "polarized component)",
)


def _maxwell_potential(params):
    kind = params["potential"]
    if kind == "null":
        return null_wave_potential(params.get("omega")), kind
    if kind == "constant":
        return tuple(sym(f"A{i}") for i in range(4)), kind
    return massive_wave_potential(params.get("k3"), params.get("m0"),
                                  pol=1), kind


def check_maxwell(seed, tol, params) -> dict:
    a4, kind = _maxwell_potential(params)
    pairs = _vector_pairs(field_strength(tuple(a4) + (ZERO,)),
                          "massless field equation",
                          "massless field invariant F^2", context())
    out = _grade(pairs, seed, tol)
    notes = [f"potential preset: {kind}"]
    if kind == "massive" and out.status == "nonzero":
        notes.append("expected: a non-null wave vector breaks the "
                     "massless-field identities")
    assumptions = _MAXWELL_ASSUMPTIONS if kind == "null" else ()
    return _close(out, assumptions, notes)


def check_fsq_null(seed, tol, params) -> dict:
    a4 = null_wave_potential(params.get("omega"))
    f = field_strength(tuple(a4) + (ZERO,))
    out = _grade([("field invariant F^2", fsq(f))], seed, tol)
    notes = ["transverse null wave: electric and magnetic contributions "
             "cancel exactly"]
    return _close(out, _MAXWELL_ASSUMPTIONS, notes)


_PROCA_ASSUMPTIONS = (
    "on-shell frequency k0 = sqrt(k3^2 + m0^2)",
    "transverse polarization",
    "mass term generated by the compact-direction phase exp(i m0 x5)",
)


def check_proca(seed, tol, params) -> dict:
    x = coords()
    m0 = _E(params.get("m0"), "m0")
    a4 = massive_wave_potential(params.get("k3"), m0, pol=params["pol"])
    phase_factor = params["phase_factor"]
    ctx = context()
    twist = exp(mul(num(0, phase_factor), m0, x[5]))
    ahat = tuple(contract([(a, twist)], ctx) for a in a4) + (ZERO,)
    f = field_strength(ahat)

    pairs = _vector_pairs(f, "field equation",
                          "field invariant F^2 over all five indices", ctx)
    # 4d reading: the compact phase turns into the mass term
    m2 = power(m0, 2)
    for b in range(4):
        pairs.append((f"4d divergence plus m0^2 A, component {b}",
                      _div([f[i][b] for i in range(4)], ctx,
                           [(m2, ahat[b])])))
    pairs.append(("quarter F^2 (4d) plus half m0^2 A.A", contract(
        [*((num(Fraction(1, 4)), ETA4[i], ETA4[j], power(f[i][j], 2))
           for i in range(4) for j in range(4)),
         *((HALF, m2, ETA4[i], power(ahat[i], 2)) for i in range(4))],
        ctx)))
    out = _grade(pairs, seed, tol)
    notes = ["4d reading: divergence of F equals -m0^2 A and quarter-F^2 "
             "equals -half m0^2 A.A"]
    if phase_factor != 1:
        notes.append(f"compact phase factor {phase_factor} (mass term "
                     "scales quadratically; mismatch expected)")
    return _close(out, _PROCA_ASSUMPTIONS, notes)


# ---------------------------------------------------------------------------
# half-spin claims

_DIRAC_ASSUMPTIONS = (
    "m0 > 0 and p3 != 0",
    "principal branch for all square roots",
    _ONSHELL_NOTE,
)


_HALFSPIN_PARAMS = ("p1", "p2", "p3", "m0")


def _stress_residuals(mode, s5, coeff, ctx):
    """Labelled residuals T - coeff P_A P_B Phi^2 over ``mode``'s stress
    tensor, for the lower five-momentum P whose extra component is
    ``s5 m0``, each formed only when the consumer asks for it."""
    t = mode.stress[0]
    comps = mode.components
    p1, p2, p3 = comps.p
    p5 = (comps.p0, mul(MINUS_ONE, p1), mul(MINUS_ONE, p2),
          mul(MINUS_ONE, p3), mul(num(s5), comps.m0))
    phase2 = power(mode.phase, 2)
    for i in range(5):
        for j in range(i, 5):
            yield (f"stress component ({IDX5[i]},{IDX5[j]})",
                   contract([(t[i][j],), (num(-coeff), p5[i], p5[j], phase2)],
                            ctx))


def _dirac_row(mode, ctx) -> list:
    """The component equation row of ``mode``'s solution as products, each
    spinor component carrying the mode's full phase."""
    x = coords()
    comps = mode.components
    psi = [contract([(f, mode.phase)], ctx) for f in comps.phi]
    return [(num(c), derive(psi[k], x[a], ctx)) if a is not None
            else (num(c), comps.m0, psi[k])
            for c, k, a in _DIRAC_ROWS[mode.sol]]


def _check_dirac(sol: int):
    def run(seed, tol, params) -> dict:
        x = coords()
        mode = _dirac_mode(sol, *(params.get(k) for k in _HALFSPIN_PARAMS))
        # F^2 read off the stress tensor's own products, which the stress
        # form below reads too.  Formed before the residuals, so that a
        # contraction memo that fills up drops the stress tensor's
        # entries, which the mode keeps, before the residuals' own, which
        # a later pass asks for again (a cold pass of the benchmark's
        # claims and probes forms 969 distinct contractions, 55 under the
        # cap)
        f2 = mode.stress[1]
        comps = mode.components
        ctx = context()

        pairs = [(f"plane-wave condition, component {IDX5[i]}",
                  _div([derive(k, x[j], ctx) for j in IDX5], ctx))
                 for i, k in enumerate(mode.K)]
        div = _div(mode.K, ctx)
        pairs.append(("divergence of the five-component field", div))
        pairs.append(("field invariant F^2", f2))
        # div - C row
        pairs.append(("divergence equals the component equation row",
                      contract([(div,), *((MINUS_ONE, comps.C, *p)
                                          for p in _dirac_row(mode, ctx))],
                               ctx)))
        phi = comps.phi
        nsign = -mode.family_sign
        pairs.append((f"adjoint normalization equals {nsign:+d}", contract(
            [(conj(phi[0]), phi[0]), (conj(phi[1]), phi[1]),
             (MINUS_ONE, conj(phi[2]), phi[2]),
             (MINUS_ONE, conj(phi[3]), phi[3]), (num(-nsign),)], ctx)))
        s5 = mode.family_sign
        pairs.extend(_stress_residuals(mode, s5, -1, ctx))

        out = _grade(pairs, seed, tol)
        notes = [
            f"adjoint normalization {nsign:+d}",
            f"stress form: T = -P_A P_B Phi^2 with extra momentum "
            f"component {'+' if s5 > 0 else '-'}m0 (family sign)",
        ]
        notes.extend(mode.notes)
        return _close(out, _DIRAC_ASSUMPTIONS, notes)
    return run


def check_dirac_stress(seed, tol, params) -> dict:
    samples = 0
    notes = []
    conventions = {}
    ctx = context()
    for sol in (1, 2, 3, 4):
        mode = _dirac_mode(sol, None, None, None, None)
        winners, refuting = [], None
        for s5 in (1, -1):
            for coeff in (1, -1):
                # a wrong candidate stops at its first nonzero residual
                scan = _grade(_stress_residuals(mode, s5, coeff, ctx),
                              seed, tol, trials=6)
                samples += scan.samples
                if scan.status == "zero":
                    winners.append((coeff, s5))
                elif scan.status == "nonzero" and refuting is None:
                    refuting = scan
        if len(winners) != 1:
            # with no survivor, the first refuted candidate's witness
            out = (_Outcome("nonzero", refuting.max_residual, samples,
                            witness=refuting.witness)
                   if refuting is not None and not winners else
                   _Outcome("inconclusive", 0.0, samples))
            return _close(
                out, _DIRAC_ASSUMPTIONS,
                [f"solution {sol}: {len(winners)} candidate conventions "
                 "survive the scan"])
        conventions[sol] = winners[0]

    # full-resolution confirmation of solution 1's convention: its
    # residuals formed again in the scan's context
    mode = _dirac_mode(1, None, None, None, None)
    coeff, s5 = conventions[1]
    out = _grade(_stress_residuals(mode, s5, coeff, ctx), seed, tol)
    for sol, (coeff, s5) in sorted(conventions.items()):
        notes.append(f"solution {sol}: T = {'+' if coeff > 0 else '-'}"
                     f"P_A P_B Phi^2 with extra momentum component "
                     f"{'+' if s5 > 0 else '-'}m0")
    notes.append("the extra momentum component tracks the plane-wave "
                 "family sign")
    return _close(replace(out, samples=samples + out.samples),
                  _DIRAC_ASSUMPTIONS, notes)


# ---------------------------------------------------------------------------
# inverse claims

def check_inverse_photon(seed, tol, params) -> dict:
    mode = photon_metric()
    residual = identity_residual(mode.metric, mode.claimed_upper)
    pairs = [(f"inverse residual entry ({a},{b})", residual[a][b])
             for a in range(DIM) for b in range(DIM)]
    return _close(_grade(pairs, seed, tol))


def check_inverse_halfspin(seed, tol, params) -> dict:
    mode = _dirac_mode(params["sol"], None, None, None, None)
    full = identity_residual(mode.metric, mode.claimed_upper)
    full_exact = all(e == ZERO for row in full for e in row)
    greek = grade_entries(identity_residual(mode.metric,
                                            mode.claimed_upper_greek),
                          seed, tol)
    bad = [o.label for o in greek if o.status != "zero"]
    worst = max(o.max_residual for o in greek)
    notes = [
        "reading A (compact-compact entry carries the trace over all five "
        "field components): " + ("exact — all 36 residual entries vanish "
                                 "at the expression level" if full_exact
                                 else "NOT exact"),
        f"reading B (4d trace only): {len(bad)} of 36 entries nonzero, "
        f"max sampled residual {worst:.3e}, at "
        + (", ".join(f"({a},{b})" for a, b in bad) if bad else "none"),
        "exactness requires the compact-compact entry to subtract the "
        "square of the fifth field component",
    ]
    return _close(_Outcome("measured", worst,
                           sum(o.samples for o in greek),
                           sum(o.structural for o in greek)),
                  _DIRAC_ASSUMPTIONS + (
                      "the printed inverse does not state which indices the "
                      "compact-entry trace runs over; both readings are "
                      "measured",),
                  notes)


# ---------------------------------------------------------------------------
# gravity-coupled claims (numeric measurement)

def _gravity_mode(family: str):
    """The mode each measurement couples to the background: on-shell
    momenta (5/4, 0, 0, 3/4) at m0 = 1, or a Proca wave with k3 = 1/2."""
    if family == "scalar":
        return _scalar_mode((Fraction(5, 4), 0, 0, Fraction(3, 4)), 1)
    if family == "proca":
        return proca_metric(massive_wave_potential(Fraction(1, 2), 1), 1)
    return _dirac_mode(1, 0, 0, Fraction(3, 4), 1)


def _split_einstein(ev, pt):
    """The finite-difference Einstein tensor of ``ev`` at ``pt``, and None;
    or None and why it is undefined there: a metric that rounds to
    singular, or an entry beyond the float range."""
    import numpy as np      # the stencil's arrays

    try:
        g = einstein_fd(ev, pt)
    except np.linalg.LinAlgError as err:
        return None, str(err)
    if np.all(np.isfinite(g)):
        return g, None
    return None, "non-finite entry"


@lru_cache(maxsize=4)
def _split_background(g4: tuple, seed: int) -> tuple:
    # the background part of every family's split at one eps and seed is
    # one metric at the same points (point i depends on the seed and i
    # alone): its evaluator, and the list of its tensors at points 0, 1,
    # ..., each formed by the first split to reach it
    return metric_evaluator(Metric6(kk_rows(g4, (ZERO,) * 4))), []


def _check_gravity_split(family: str):
    def run(seed, tol, params) -> dict:
        import numpy as np      # the stencil's arrays

        eps = float(params["eps"])
        kappa = num(params["kappa"]) if "kappa" in params else None
        npoints = params["points"]
        mode = _gravity_mode(family)
        g4 = weak_field_block(num(params["eps"]))

        gm_full = gravity_metric(mode, g4, kappa)
        gm_q = gravity_metric(mode, None, kappa)
        assumptions = ("separability is asserted without proof; this "
                       "check measures the residual numerically",)
        if kappa is not None:
            assumptions += (f"coupling constant kappa = {params['kappa']}",)

        try:
            evs = {"full": metric_evaluator(gm_full),
                   "field": metric_evaluator(gm_q)}
        except OverflowError as err:     # a constant of order kappa^2
            return _close(_Outcome("inconclusive", 0.0, 0, note=str(err),
                                   label="metric constant beyond the float "
                                   "range"), assumptions)
        background, formed = _split_background(g4, seed)
        rng = random.Random(seed)
        worst = 0.0
        scale_q = 0.0
        cond = 0.0
        for i in range(npoints):
            pt = [complex(rng.uniform(-0.5, 0.5)) for _ in range(DIM)]
            if len(formed) == i:
                formed.append(_split_einstein(background, pt))
            g = {}
            for part in ("full", "field", "background"):
                g[part], cause = (formed[i] if part == "background"
                                  else _split_einstein(evs[part], pt))
                if cause:
                    return _close(_Outcome(
                        "inconclusive", worst, i, note=f"{part} metric: "
                        f"{cause}", label="finite-difference Einstein tensor "
                        f"at sample point {i + 1}"), assumptions)
            worst = max(worst, float(np.max(np.abs(
                g["full"] - g["background"] - g["field"]))))
            scale_q = max(scale_q, float(np.max(np.abs(g["field"]))))
            cond = max(cond, float(np.linalg.cond(evs["full"](pt))))
        notes = [
            f"split residual max |G - G_background - G_field| = {worst:.3e} "
            f"over {npoints} sample points (field-part scale {scale_q:.3e})",
            f"largest condition number of the full metric over the sample "
            f"points: {cond:.3e} (the residual's round-off grows with it)",
            f"background: static weak field with strength {eps:g}; "
            "cross terms of order eps times the field are expected",
            "finite-difference noise floor is about 1e-7; no pass "
            "threshold is asserted — measured and reported only",
        ]
        if family == "scalar":     # the symbolic mode kg.reduction reads
            mode = _scalar_mode(*scalar_momenta({})[:2])
            g55 = einstein(mode.metric)[5][5]
            exact = contract([(g55,), (MINUS_ONE, power(sym("m0"), 2))],
                             context())
            notes.append(
                "field-part extra-diagonal source equals m0^2 "
                + ("(exact at the expression level)" if exact == ZERO
                   else "(NOT exact)"))
        return _close(_Outcome("measured", worst, npoints), assumptions,
                      notes)
    return run


# ---------------------------------------------------------------------------
# dynamics claims

_GEO_P = (1.25, 0.0, 0.0, 0.75)
_GEO_M0 = 1.0
_GEO_CONST = (0.1 + 0.05j, -0.2j, 0.3, 0.02 + 0.01j, 0.0, 0.04 - 0.1j)


@lru_cache(maxsize=4)
def _geodesic_figure(steps: int) -> tuple:
    """The numeric half of ``geodesic.closedform`` at ``steps``, which
    reads no seed: the integrated path's largest deviation from the closed
    form, the largest error of its interval slope, and its state count."""
    mode = _scalar_mode(_GEO_P, _GEO_M0)   # binary-exact floats
    s0 = closed_form_state(0.0, _GEO_P, _GEO_M0, _GEO_CONST)
    path = integrate(s0, 1.0, steps, connection_evaluator(mode.metric))
    dev = closed_form_deviation(path, _GEO_P, _GEO_M0, _GEO_CONST)
    ratio_err = 0.0
    for iv, s_lo, s_hi in zip(interval_along(path, mode.metric),
                              path.states, path.states[1:]):
        xm = [0.5 * (a + b) for a, b in zip(s_lo.x, s_hi.x)]
        ratio_err = max(ratio_err, abs(iv.ds / iv.dx4 - cmath.exp(
            -1j * _phase(xm, _GEO_P, _GEO_M0))))
    return dev, ratio_err, len(path.states)


def check_geodesic_closedform(seed, tol, params) -> dict:
    steps = params["steps"]
    cf = closed_form_exprs()
    pairs = [(f"geodesic equation, component {a}", cf.residual[a])
             for a in range(DIM)]
    out = _grade(pairs, seed, tol)
    notes = []
    if out.status == "zero":
        dev, ratio_err, states = _geodesic_figure(steps)
        notes.append(f"numeric integration at {steps} steps deviates from "
                     f"the closed form by at most {dev:.3e}")
        notes.append("interval slope matches the inverse phase factor: "
                     f"max |ds/dx4 - exp(-i theta)| = {ratio_err:.3e}")
        if max(dev, ratio_err) > 1e-6:
            out = _Outcome("nonzero", max(dev, ratio_err),
                           out.samples + states, out.structural,
                           {"deviation": complex(dev)},
                           "numeric integration disagrees with the closed "
                           "form")
        else:
            out = _Outcome("zero", max(out.max_residual, dev, ratio_err),
                           out.samples + states, out.structural)
    return _close(out,
                  ("real affine parameter", _ONSHELL_NOTE,
                   "the exponential in the compact coordinate uses "
                   "same-parameter coordinates"),
                  notes)


def check_interference_minima(seed, tol, params) -> dict:
    (d, length, lam, _), fp = fringe_profile(params)
    peak = max(fp.density)
    worst = 0.0
    bad = None
    for y, depth in zip(fp.minima, fp.minima_density):
        gap = _path_difference(y, d, length) / lam - 0.5
        phase_resid = abs(gap - round(gap))
        worst = max(worst, depth / peak, phase_resid)
        if depth > tol * peak or phase_resid > 1e-9:
            bad = y
    neg = min(fp.density)
    status = "zero" if bad is None and neg >= 0.0 else "nonzero"
    out = _Outcome(status, worst, len(fp.y) + len(fp.minima), 0,
                   None if status == "zero" else {"y": complex(bad or neg)},
                   None if status == "zero" else "minimum not destructive")
    notes = [
        f"{len(fp.minima)} minima located in closed form where the detector "
        "line meets each half-integer path-difference hyperbola",
        "worst relative density or phase residual at a minimum: "
        f"{worst:.3e} (peak density {peak:.6g})",
        "the extra-coordinate density is dropped (special coordinate "
        "choice) and recorded here",
    ]
    return _close(out,
                  ("straight-ray path lengths (far-field regime)",
                   "unit amplitude per path"),
                  notes)


# ---------------------------------------------------------------------------
# registry

@dataclass(frozen=True)
class Claim:
    claim_id: str
    anchor: str
    must_pass: bool
    runner: Callable
    params: dict                 # accepted name -> default (None: unbound)


def _claim(cid, anchor, must_pass, runner, names=(), **defaults):
    return Claim(cid, anchor, must_pass, runner,
                 {**dict.fromkeys(names), **defaults})


_P4 = ("p0", "p1", "p2", "p3", "m0")

REGISTRY: dict[str, Claim] = {c.claim_id: c for c in [
    _claim("kg.reduction",
           "scalar mode reduces to the free wave equation, with the 4d "
           "Einstein block equal to p_a p_b",
           True, check_klein_gordon, _P4),
    _claim("ricci.scalar.zero",
           "scalar curvature of the scalar-mode metric vanishes",
           True, check_ricci_scalar_zero, _P4 + ("perturb",)),
    _claim("maxwell.reduction",
           "massless vector mode obeys the flat-space field equations",
           True, check_maxwell, ("omega", "k3", "m0"), potential="null"),
    _claim("fsq.null",
           "null transverse wave has vanishing field-strength invariant",
           True, check_fsq_null, ("omega",)),
    _claim("proca.reduction",
           "massive vector mode obeys the field equations with the mass "
           "supplied by the compact phase",
           True, check_proca, ("k3", "m0"), pol=1, phase_factor=1),
    *[_claim(f"dirac.sol{s}",
             f"half-spin solution {s}: plane-wave condition, divergence, "
             "field invariant, component equation, and stress form",
             True, _check_dirac(s), _HALFSPIN_PARAMS)
      for s in (1, 2, 3, 4)],
    _claim("dirac.stress",
           "half-spin stress tensor equals a momentum-product form with a "
           "unique sign convention",
           True, check_dirac_stress, ()),
    _claim("inverse.photon",
           "claimed inverse of the massless vector metric",
           True, check_inverse_photon, ()),
    _claim("inverse.halfspin",
           "claimed inverse of the half-spin metric, measured under both "
           "trace readings",
           False, check_inverse_halfspin, sol=1),
    *[_claim(f"gravity.split.{fam}",
             f"Einstein tensor of the gravity-coupled {fam} metric "
             "separates into background plus field parts",
             False, _check_gravity_split(fam), eps=1e-3, points=3,
             **({} if fam == "scalar" else {"kappa": 1}))
      for fam in ("scalar", "proca", "dirac")],
    _claim("geodesic.closedform",
           "closed-form geodesic of the scalar-mode metric (symbolic "
           "residual and numeric integration)",
           True, check_geodesic_closedform,
           steps=GEODESIC_DEFAULTS["steps"]),
    _claim("interference.minima",
           "two-path density minima sit exactly at half-integer path "
           "differences",
           True, check_interference_minima, **FRINGE_DEFAULTS),
]}


def claim_ids() -> tuple[str, ...]:
    return tuple(sorted(REGISTRY))


def must_pass_ids() -> tuple[str, ...]:
    return tuple(sorted(c.claim_id for c in REGISTRY.values()
                        if c.must_pass))


def run_claim(claim_id: str, seed: int = 0, tol: float = 1e-9,
              params: dict | None = None) -> ClaimReport:
    claim = REGISTRY.get(claim_id)
    if claim is None:
        raise UnknownClaimError(f"unknown claim id {claim_id!r}")
    _check_seed(seed, ClaimParamError)
    _check_tol(tol, ClaimParamError)
    own = read_params(claim.params, params or {}, claim_id)
    return ClaimReport(claim_id=claim_id, anchor=claim.anchor, seed=seed,
                       **claim.runner(seed, tol, own))


def run_suite(claims=None, seed: int = 0, tol: float = 1e-9,
              params: dict | None = None) -> tuple[ClaimReport, ...]:
    """Run a claim selection (default: every must-pass claim), reports
    merged deterministically by claim id."""
    if claims is None:
        selected = list(must_pass_ids())
    else:
        selected = sorted(set(claims))
        for cid in selected:
            if cid not in REGISTRY:
                raise UnknownClaimError(f"unknown claim id {cid!r}")
    params = params or {}
    known = set().union(*(REGISTRY[c].params for c in selected))
    stray = sorted(k for k in params if k not in known)
    if stray:
        raise ClaimParamError(
            f"parameters {stray} not accepted by any selected claim")
    for cid in selected:          # every range check before any claim runs
        read_params(REGISTRY[cid].params, params, cid)
    return tuple(run_claim(cid, seed=seed, tol=tol, params=params)
                 for cid in selected)


def refuted_must_pass(records) -> tuple[str, ...]:
    return tuple(r.claim_id for r in records
                 if r.verdict == REFUTED
                 and r.claim_id in REGISTRY
                 and REGISTRY[r.claim_id].must_pass)
