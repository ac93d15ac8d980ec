"""Metric families built from four-dimensional field configurations.

Each constructor returns the field data, so the verification layer can
form residuals against the same objects.  The scalar mode comes with its
6x6 metric; every other family is one :class:`FieldMode`, which builds
its metric and printed inverse (and a half-spin mode its stress tensor)
from its field on first read, so a reader of the field alone builds
neither.  Every family except the scalar mode is one modified
Kaluza-Klein metric (:func:`kk_rows`): a 4d block ``g4`` with a field
``K`` (lower, over {0,1,2,3}, fifth component ``K5``) mixed into the
compact row at coupling ``kappa``,

    g_ab = g4_ab + kappa^2 K_a K_b      g_a4 = kappa K_a
    g_a5 = kappa^2 K_a K5               g_44 = 1
    g_45 = kappa K5                     g_55 = -1 + kappa^2 K5^2

Families:

* scalar mode -- a unit-modulus phase in the compact slot g_44 of the
  field-free (K = 0) form,
* photon / Proca -- K is the vector potential (K5 = 0), the massive case
  carrying an extra x5 phase,
* half-spin -- K is a five-component field assembled from Dirac spinor
  components, one metric per spinor solution,
* gravity-coupled -- a built mode over a curved 4d block
  (:func:`gravity_metric`): its field ``K`` scaled by a coupling
  constant, or, for the field-free scalar mode, its ``g44``.

Capital indices range over {0,1,2,3,5}; index 4 is the compact direction.
Each entry a builder forms is one :func:`~kk6.expr.contract` call over its
products and each derivative one :func:`~kk6.expr.derive` call, with one
kernel context per builder call.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .expr import (
    Expr, HALF, I, MINUS_ONE, ONE, TWO, ZERO, Num, add, context, contract,
    coords, derive, exp, mul, num, power, sqrt, sym,
)
from .tensor import DIM, Grid, Metric6

__all__ = [
    "IDX5", "ETA4", "ETA5", "AnsatzError",
    "ScalarMode", "scalar_metric",
    "FieldMode", "photon_metric", "proca_metric",
    "null_wave_potential", "massive_wave_potential",
    "SpinorComponents", "dirac_components",
    "SpinorMode", "dirac_metric", "coupled_metric",
    "gravity_metric", "weak_field_block", "kk_rows",
    "field_strength", "fsq", "stress_tensor", "onshell_energy",
]

IDX5 = (0, 1, 2, 3, 5)
ETA4 = (ONE, MINUS_ONE, MINUS_ONE, MINUS_ONE)
ETA5 = (ONE, MINUS_ONE, MINUS_ONE, MINUS_ONE, MINUS_ONE)
_FLAT4 = tuple(tuple(ETA4[a] if a == b else ZERO for b in range(4))
               for a in range(4))
_NO_FIELD = (ZERO,) * 4
_QUARTER = num(Fraction(1, 4))
_MINUS_I = num(0, -1)

class AnsatzError(ValueError):
    """A field configuration outside a constructor's domain."""


def _E(v, name: str | None = None) -> Expr:
    """``v`` as an expression; None, an unbound parameter, is the
    declared symbol ``name``."""
    if v is None:
        return sym(name)
    if isinstance(v, Expr):
        return v
    return num(v)


def onshell_energy(p1: Expr, p2: Expr, p3: Expr, m0: Expr) -> Expr:
    return sqrt(add(power(p1, 2), power(p2, 2), power(p3, 2), power(m0, 2)))


def kk_rows(g4: Grid, K: tuple, K5: Expr = ZERO, kappa: Expr = ONE) -> list:
    """Rows of the modified Kaluza-Klein metric (module docstring) for a
    4d block ``g4`` and a field ``K`` over {0,1,2,3} with fifth component
    ``K5``."""
    ctx = context()
    k2 = power(kappa, 2)
    rows = [[ZERO] * DIM for _ in range(DIM)]
    for a in range(4):
        for b in range(4):
            rows[a][b] = contract([(g4[a][b],), (k2, K[a], K[b])], ctx)
        rows[a][4] = rows[4][a] = contract([(kappa, K[a])], ctx)
        rows[a][5] = rows[5][a] = contract([(k2, K[a], K5)], ctx)
    rows[4][4] = ONE
    rows[4][5] = rows[5][4] = contract([(kappa, K5)], ctx)
    rows[5][5] = contract([(MINUS_ONE,), (k2, power(K5, 2))], ctx)
    return rows


def _claimed_upper(K: tuple, K5: Expr, trace: list) -> Grid:
    """The printed inverse of a flat-block, unit-coupling :func:`kk_rows`
    metric: flat 4d block, -K^alpha mixing, 1 + ``trace`` (a list of
    products) in the compact slot and K5 at (4,5)."""
    ctx = context()
    up = [[ZERO] * DIM for _ in range(DIM)]
    for a in range(4):
        up[a][a] = ETA4[a]
        up[a][4] = up[4][a] = contract([(MINUS_ONE, ETA4[a], K[a])], ctx)
    up[4][4] = contract([(ONE,), *trace], ctx)
    up[4][5] = up[5][4] = K5
    up[5][5] = MINUS_ONE
    return tuple(tuple(r) for r in up)


def _trace4(K: tuple) -> list:
    """K_a K^a over the 4d indices, flat raising, as a list of products."""
    return [(ETA4[a], K[a], K[a]) for a in range(4)]


# ---------------------------------------------------------------------------
# scalar mode

@dataclass(frozen=True)
class ScalarMode:
    g44: Expr                   # exp(-2 i theta), theta = (p.x - m0 x5)/hbar
    grad: tuple[Expr, ...]      # lower phase gradient over IDX5
    metric: Metric6


def scalar_metric(p=None, m0=None, hbar=None) -> ScalarMode:
    x = coords()
    pv = tuple(_E(v) for v in p) if p is not None else tuple(
        sym(f"p{i}") for i in range(4))
    if len(pv) != 4:
        raise AnsatzError("p must have four components")
    m0v = _E(m0, "m0")
    hv = _E(hbar) if hbar is not None else ONE
    if hv is ZERO:
        raise AnsatzError("hbar must be nonzero")
    # theta and the exponent of g44 expanded, so that each is its own
    # simplify result
    ctx, hinv = context(), power(hv, -1)
    theta = contract([(pv[0], x[0], hinv), (MINUS_ONE, pv[1], x[1], hinv),
                      (MINUS_ONE, pv[2], x[2], hinv),
                      (MINUS_ONE, pv[3], x[3], hinv),
                      (MINUS_ONE, m0v, x[5], hinv)], ctx)
    g44 = exp(contract([(num(0, -2), theta)], ctx))
    grad = tuple(derive(theta, x[a].symbol, ctx) for a in IDX5)
    rows = kk_rows(_FLAT4, _NO_FIELD)
    rows[4][4] = g44
    metric = Metric6(rows)
    return ScalarMode(g44=g44, grad=grad, metric=metric)


# ---------------------------------------------------------------------------
# field strength / stress helpers (capital indices, flat raising)

def field_strength(a5: tuple) -> tuple:
    """F_AB = d_A a_B - d_B a_A for a five-component lower field over IDX5."""
    x = coords()
    if len(a5) != 5:
        raise AnsatzError("field must have five components (indices 0..3, 5)")
    ctx = context()
    out = [[ZERO] * 5 for _ in range(5)]
    for i in range(5):
        for j in range(i + 1, 5):
            f = contract([(derive(a5[j], x[IDX5[i]], ctx),),
                          (MINUS_ONE, derive(a5[i], x[IDX5[j]], ctx))], ctx)
            out[i][j] = f
            out[j][i] = contract([(MINUS_ONE, f)], ctx)
    return tuple(tuple(r) for r in out)


def fsq(f: tuple) -> Expr:
    """F_AB F^AB with flat raising."""
    return contract([(ETA5[i], ETA5[j], power(f[i][j], 2))
                     for i in range(5) for j in range(5)], context())


def stress_tensor(f: tuple) -> tuple:
    """``(T, F^2)``: T_AB = (1/4) eta_AB F^2 - F_A^C F_BC, flat raising
    inside, and F^2, the node :func:`fsq` gives, read off T's own
    products.  In one kernel context the 15 products N_AB = -F_A^C F_BC
    are formed first (T is symmetric: (A, B) and (B, A) have the same
    products, so each is formed once), then F^2 = -eta^AA N_AA as one
    contraction over the five formed sums, then the diagonal
    T_AA = N_AA + (1/4) eta_AA F^2."""
    ctx = context()
    out = [[ZERO] * 5 for _ in range(5)]
    for i in range(5):
        for j in range(i, 5):
            out[i][j] = out[j][i] = contract(
                [(MINUS_ONE, ETA5[k], f[i][k], f[j][k]) for k in range(5)],
                ctx)
    f2 = contract([(MINUS_ONE, ETA5[i], out[i][i]) for i in range(5)], ctx)
    for i in range(5):
        out[i][i] = contract([(out[i][i],), (_QUARTER, ETA5[i], f2)], ctx)
    return tuple(tuple(r) for r in out), f2


# ---------------------------------------------------------------------------
# field modes

@dataclass(frozen=True)
class FieldMode:
    """A field ``K`` (five lower components over IDX5); its metric and
    printed inverse are built from ``K`` on first read."""
    K: tuple

    @cached_property
    def metric(self) -> Metric6:
        return Metric6(kk_rows(_FLAT4, self.K[:4], self.K[4]))

    @cached_property
    def claimed_upper(self) -> Grid:
        """The printed inverse with the trace over all capital indices."""
        kk, k55 = self.K[:4], self.K[4]
        return _claimed_upper(kk, k55,
                              _trace4(kk) + [(MINUS_ONE, power(k55, 2))])


def _vector_mode(a4, m0v) -> FieldMode:
    """The photon (``m0v`` None) or Proca mode of the potential ``a4``
    (None: the symbols A0..A3), the latter with an x5 phase."""
    if a4 is None:
        a4 = tuple(sym(f"A{i}") for i in range(4))
    a4 = tuple(_E(v) for v in a4)
    if len(a4) != 4:
        raise AnsatzError("potential must have four components")
    if m0v is not None:
        x5phase = exp(mul(I, m0v, coords()[5]))
        ctx = context()
        a4 = tuple(contract([(v, x5phase)], ctx) for v in a4)
    return FieldMode(K=a4 + (ZERO,))


def photon_metric(a4=None) -> FieldMode:
    return _vector_mode(a4, None)


def proca_metric(a4=None, m0=None) -> FieldMode:
    return _vector_mode(a4, _E(m0, "m0"))


def null_wave_potential(omega=None, pol: int = 2) -> tuple:
    """Transverse plane wave on a null wave vector k = (w, 0, 0, w)."""
    x = coords()
    w = _E(omega, "omega")
    if pol not in (1, 2):
        raise AnsatzError("transverse polarization must be along x1 or x2")
    phase = exp(contract([(_MINUS_I, w, x[0]), (I, w, x[3])], context()))
    return tuple(phase if a == pol else ZERO for a in range(4))


def massive_wave_potential(k3=None, m0=None, pol: int = 1) -> tuple:
    """Transverse wave on k = (sqrt(k3^2 + m0^2), 0, 0, k3)."""
    x = coords()
    k3v, m0v = _E(k3, "k3"), _E(m0, "m0")
    if pol not in (1, 2):
        raise AnsatzError("transverse polarization must be along x1 or x2")
    k0 = sqrt(add(power(k3v, 2), power(m0v, 2)))
    phase = exp(contract([(_MINUS_I, k0, x[0]), (I, k3v, x[3])], context()))
    return tuple(phase if a == pol else ZERO for a in range(4))


# ---------------------------------------------------------------------------
# half-spin modes

@dataclass(frozen=True)
class SpinorComponents:
    phi: tuple                  # four spinor components, no phase
    C: Expr                     # field normalization
    p0: Expr                    # on-shell energy expression
    p: tuple                    # (p1, p2, p3)
    m0: Expr


def dirac_components(p1=None, p2=None, p3=None, m0=None, sol: int = 1
                     ) -> SpinorComponents:
    """Spinor components of one plane-wave solution, energy on shell.

    Requires m0 > 0 and p3 != 0 (the normalization C carries 1/p3; a
    vanishing p3 is reported, never patched); a numeric m0 that is not a
    positive real is refused, a symbolic m0 is accepted."""
    if sol not in (1, 2, 3, 4):
        raise AnsatzError(f"solution index must be 1..4, got {sol}")
    p1v, p2v, p3v = _E(p1, "p1"), _E(p2, "p2"), _E(p3, "p3")
    m0v = _E(m0, "m0")
    if p3v == ZERO:
        raise AnsatzError("normalization C is undefined at p3 = 0")
    if isinstance(m0v, Num) and (m0v.im or m0v.re <= 0):
        raise AnsatzError("rest mass must be positive")
    p0v = onshell_energy(p1v, p2v, p3v, m0v)
    dd = add(m0v, p0v)
    inv_d = power(dd, -1)
    nn = sqrt(mul(HALF, power(m0v, -1), dd))
    plus = add(p1v, mul(I, p2v))     # p1 + i p2
    minus = add(p1v, mul(_MINUS_I, p2v))
    tables = {
        1: ((nn,), (ZERO,), (nn, p3v, inv_d), (nn, plus, inv_d)),
        2: ((ZERO,), (nn,), (nn, minus, inv_d), (MINUS_ONE, nn, p3v, inv_d)),
        3: ((nn, p3v, inv_d), (nn, plus, inv_d), (nn,), (ZERO,)),
        4: ((nn, minus, inv_d), (MINUS_ONE, nn, p3v, inv_d), (ZERO,), (nn,)),
    }
    ctx = context()
    phi = tuple(contract([c], ctx) for c in tables[sol])
    cnorm = contract([(sqrt(mul(TWO, m0v, dd)), power(p3v, -1))], ctx)
    return SpinorComponents(phi=phi, C=cnorm, p0=p0v,
                            p=(p1v, p2v, p3v), m0=m0v)


# The five-component field, one row per solution: each entry
# (coefficient, spinor component k) over IDX5 is coefficient * C * phi_k *
# the family phase; the anchor component (the solution's own unit entry)
# rides the 0 and 5 slots.
_FIELDS = {
    1: ((1, 0), (-1, 3), (1j, 3), (-1, 2), (-1, 0)),
    2: ((1, 1), (-1, 2), (-1j, 2), (1, 3), (-1, 1)),
    3: ((1, 2), (-1, 1), (1j, 1), (-1, 0), (1, 2)),
    4: ((1, 3), (-1, 0), (-1j, 0), (1, 1), (1, 3)),
}

# The coupled first-order component equations, one row per solution: each
# term (coefficient, spinor component k, coordinate a) is coefficient *
# d_a psi_k, or coefficient * m0 * psi_k where the coordinate is None.
_DIRAC_ROWS = {
    1: ((1, 0, 0), (1, 3, 1), (-1j, 3, 2), (1, 2, 3), (1j, 0, None)),
    2: ((1, 1, 0), (1, 2, 1), (1j, 2, 2), (-1, 3, 3), (1j, 1, None)),
    3: ((1, 2, 0), (1, 1, 1), (-1j, 1, 2), (1, 0, 3), (-1j, 2, None)),
    4: ((1, 3, 0), (1, 0, 1), (1j, 0, 2), (-1, 1, 3), (-1j, 3, None)),
}


@dataclass(frozen=True)
class SpinorMode(FieldMode):
    """A half-spin solution's field; its stress tensor, like its metric
    and the two readings of the printed inverse, is built from ``K`` on
    first read."""
    sol: int
    components: SpinorComponents
    family_sign: int            # -1: plane wave e^{-i p.x}; +1: conjugate
    phase: Expr                 # full scalar factor on the K pattern
    notes: tuple[str, ...]

    @cached_property
    def stress(self) -> tuple:
        """``(T, F^2)`` of the field, as :func:`stress_tensor` gives them."""
        return stress_tensor(field_strength(self.K))

    @cached_property
    def claimed_upper_greek(self) -> Grid:
        """The printed inverse with the trace over the 4d indices only."""
        kk = self.K[:4]
        return _claimed_upper(kk, self.K[4], _trace4(kk))


_SPINOR_NOTES_NEG = (
    "negative-energy family: conjugate plane-wave phase exp(+i p.x)",
    "anchor component is the solution's own unit entry",
)


def dirac_metric(sol: int = 1, p1=None, p2=None, p3=None, m0=None) -> SpinorMode:
    comps = dirac_components(p1, p2, p3, m0, sol=sol)
    x = coords()
    s = -1 if sol in (1, 2) else 1
    p1v, p2v, p3v = comps.p
    px = add(mul(comps.p0, x[0]), mul(MINUS_ONE, p1v, x[1]),
             mul(MINUS_ONE, p2v, x[2]), mul(MINUS_ONE, p3v, x[3]))
    phase = exp(add(mul(num(0, s), px), mul(I, comps.m0, x[5])))
    ctx = context()
    k5 = tuple(contract([(comps.C, num(c), comps.phi[k], phase)], ctx)
               for c, k in _FIELDS[sol])
    notes = _SPINOR_NOTES_NEG if s == 1 else ()
    return SpinorMode(sol=sol, components=comps, family_sign=s, phase=phase,
                      K=k5, notes=notes)


def coupled_metric(sol: int = 1, p1=None, p2=None, p3=None, m0=None,
                   gamma=None) -> FieldMode:
    """Half-spin field carrying an extra compact-direction phase
    exp(-i gamma x4); gamma -> 0 reduces to the plain half-spin case."""
    base = dirac_metric(sol, p1, p2, p3, m0)
    twist = exp(mul(_MINUS_I, _E(gamma, "gamma"), coords()[4]))
    ctx = context()
    return FieldMode(K=tuple(contract([(k, twist)], ctx) for k in base.K))


# ---------------------------------------------------------------------------
# gravity-coupled families

def weak_field_block(eps=None) -> Grid:
    """Static weak-field 4d block: g_00 = 1 + 2 eps x1, spatial part flat."""
    x = coords()
    g00 = add(ONE, mul(TWO, _E(eps, "eps"), x[1]))
    rows = [[ZERO] * 4 for _ in range(4)]
    diag = (g00, MINUS_ONE, MINUS_ONE, MINUS_ONE)
    for a in range(4):
        rows[a][a] = diag[a]
    return tuple(tuple(r) for r in rows)


def gravity_metric(mode, g4: Grid | None = None, kappa=None) -> Metric6:
    """The metric of a built mode over the 4d block ``g4`` (default flat).

    A field mode's ``K`` goes into
    :func:`kk_rows` at coupling ``kappa`` (default the symbol).  The scalar
    mode has no field: its ``g44`` goes into the field-free rows, and a
    ``kappa`` is refused.  With a flat block and kappa = 1 this is the
    mode's own metric, node for node."""
    g4v = tuple(tuple(_E(e) for e in row) for row in g4) if g4 is not None \
        else _FLAT4
    if len(g4v) != 4 or any(len(r) != 4 for r in g4v):
        raise AnsatzError("g4 must be a 4x4 block")
    if isinstance(mode, ScalarMode):
        if kappa is not None:
            raise AnsatzError("the scalar mode has no field for kappa to "
                              "couple")
        rows = kk_rows(g4v, _NO_FIELD)
        rows[4][4] = mode.g44
    else:
        rows = kk_rows(g4v, mode.K[:4], mode.K[4], _E(kappa, "kappa"))
    return Metric6(rows)
