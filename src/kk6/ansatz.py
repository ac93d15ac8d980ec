"""Metric families built from four-dimensional field configurations.

Each constructor returns the 6x6 metric together with the field data it
was built from, so the verification layer can form residuals against the
same objects.  Every family except the scalar mode is one modified
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
* gravity-coupled -- any of the above over a curved 4d block with the
  field scaled by a coupling constant.

Capital indices range over {0,1,2,3,5}; index 4 is the compact direction.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .expr import (
    Expr, HALF, I, MINUS_ONE, ONE, TWO, ZERO, add, coords, diff,
    exp, mul, num, power, simplify, sqrt, sym,
)
from .symbols import DEFAULT_TABLE
from .tensor import DIM, Grid, Metric6

__all__ = [
    "IDX5", "ETA4", "ETA5", "AnsatzError",
    "ScalarMode", "scalar_metric",
    "VectorMode", "photon_metric", "proca_metric",
    "null_wave_potential", "massive_wave_potential",
    "SpinorComponents", "dirac_components",
    "SpinorMode", "dirac_metric", "CoupledMode", "coupled_metric",
    "GravityMode", "gravity_metric", "weak_field_block", "kk_rows",
    "field_strength", "fsq", "stress_tensor", "momentum_product",
    "onshell_energy",
]

IDX5 = (0, 1, 2, 3, 5)
ETA4 = (ONE, MINUS_ONE, MINUS_ONE, MINUS_ONE)
ETA5 = (ONE, MINUS_ONE, MINUS_ONE, MINUS_ONE, MINUS_ONE)
_FLAT4 = tuple(tuple(ETA4[a] if a == b else ZERO for b in range(4))
               for a in range(4))
_NO_FIELD = (ZERO,) * 4

# parameters introduced by the families
for _name in ("omega", "k0", "k1", "k2", "k3", "eps"):
    DEFAULT_TABLE.register(_name, real=True)
for _name in ("A0", "A1", "A2", "A3", "K0", "K1", "K2", "K3", "K5",
              "e0", "e1", "e2", "e3"):
    DEFAULT_TABLE.register(_name, real=False)


class AnsatzError(ValueError):
    """A field configuration outside a constructor's domain."""


def _E(v) -> Expr:
    if isinstance(v, Expr):
        return v
    return num(v)


def onshell_energy(p1: Expr, p2: Expr, p3: Expr, m0: Expr) -> Expr:
    return sqrt(add(power(p1, 2), power(p2, 2), power(p3, 2), power(m0, 2)))


def kk_rows(g4: Grid, K: tuple, K5: Expr = ZERO, kappa: Expr = ONE) -> list:
    """Rows of the modified Kaluza-Klein metric (module docstring) for a
    4d block ``g4`` and a field ``K`` over {0,1,2,3} with fifth component
    ``K5``."""
    k2 = power(kappa, 2)
    rows = [[ZERO] * DIM for _ in range(DIM)]
    for a in range(4):
        for b in range(4):
            rows[a][b] = simplify(add(g4[a][b], mul(k2, K[a], K[b])))
        rows[a][4] = rows[4][a] = simplify(mul(kappa, K[a]))
        rows[a][5] = rows[5][a] = simplify(mul(k2, K[a], K5))
    rows[4][4] = ONE
    rows[4][5] = rows[5][4] = simplify(mul(kappa, K5))
    rows[5][5] = simplify(add(MINUS_ONE, mul(k2, power(K5, 2))))
    return rows


def _claimed_upper(K: tuple, K5: Expr, trace: Expr) -> Grid:
    """The printed inverse of a flat-block, unit-coupling :func:`kk_rows`
    metric: flat 4d block, -K^alpha mixing, 1 + ``trace`` in the compact
    slot and K5 at (4,5)."""
    up = [[ZERO] * DIM for _ in range(DIM)]
    for a in range(4):
        up[a][a] = ETA4[a]
        up[a][4] = up[4][a] = simplify(mul(MINUS_ONE, ETA4[a], K[a]))
    up[4][4] = simplify(add(ONE, trace))
    up[4][5] = up[5][4] = K5
    up[5][5] = MINUS_ONE
    return tuple(tuple(r) for r in up)


def _trace4(K: tuple) -> Expr:
    """K_a K^a over the 4d indices, flat raising."""
    return add(*(mul(ETA4[a], K[a], K[a]) for a in range(4)))


# ---------------------------------------------------------------------------
# scalar mode

@dataclass(frozen=True)
class ScalarMode:
    p: tuple[Expr, Expr, Expr, Expr]
    m0: Expr
    hbar: Expr
    phase: Expr                 # (p.x - m0 x5) / hbar
    g44: Expr
    grad: tuple[Expr, ...]      # lower phase gradient over IDX5
    metric: Metric6


def scalar_metric(p=None, m0=None, hbar=None) -> ScalarMode:
    x = coords()
    pv = tuple(_E(v) for v in p) if p is not None else tuple(
        sym(f"p{i}") for i in range(4))
    if len(pv) != 4:
        raise AnsatzError("p must have four components")
    m0v = _E(m0) if m0 is not None else sym("m0")
    hv = _E(hbar) if hbar is not None else ONE
    theta = mul(add(mul(pv[0], x[0]), mul(MINUS_ONE, pv[1], x[1]),
                    mul(MINUS_ONE, pv[2], x[2]), mul(MINUS_ONE, pv[3], x[3]),
                    mul(MINUS_ONE, m0v, x[5])),
                power(hv, -1) if hv != ONE else ONE)
    g44 = exp(mul(num(0, -2), theta))
    grad = tuple(simplify(diff(theta, x[a].symbol)) for a in IDX5)
    rows = kk_rows(_FLAT4, _NO_FIELD)
    rows[4][4] = g44
    metric = Metric6(rows, name="scalar")
    return ScalarMode(p=pv, m0=m0v, hbar=hv, phase=theta, g44=g44,
                      grad=grad, metric=metric)


# ---------------------------------------------------------------------------
# field strength / stress helpers (capital indices, flat raising)

def field_strength(a5: tuple) -> tuple:
    """F_AB = d_A a_B - d_B a_A for a five-component lower field over IDX5."""
    x = coords()
    if len(a5) != 5:
        raise AnsatzError("field must have five components (indices 0..3, 5)")
    out = [[ZERO] * 5 for _ in range(5)]
    for i in range(5):
        for j in range(i + 1, 5):
            f = simplify(add(diff(a5[j], x[IDX5[i]].symbol),
                             mul(MINUS_ONE, diff(a5[i], x[IDX5[j]].symbol))))
            out[i][j] = f
            out[j][i] = simplify(mul(MINUS_ONE, f))
    return tuple(tuple(r) for r in out)


def fsq(f: tuple) -> Expr:
    """F_AB F^AB with flat raising."""
    parts = []
    for i in range(5):
        for j in range(5):
            if f[i][j] == ZERO:
                continue
            parts.append(mul(ETA5[i], ETA5[j], power(f[i][j], 2)))
    return simplify(add(*parts))


def stress_tensor(f: tuple, f2: Expr) -> tuple:
    """T_AB = (1/4) eta_AB F^2 - F_A^C F_BC, flat raising inside; ``f2``
    is ``fsq(f)``, which the caller forms once and keeps."""
    out = []
    for i in range(5):
        row = []
        for j in range(5):
            parts = []
            if i == j and f2 != ZERO:
                parts.append(mul(num(Fraction(1, 4)), ETA5[i], f2))
            for k in range(5):
                if f[i][k] == ZERO or f[j][k] == ZERO:
                    continue
                parts.append(mul(MINUS_ONE, ETA5[k], f[i][k], f[j][k]))
            row.append(simplify(add(*parts)))
        out.append(tuple(row))
    return tuple(out)


def momentum_product(p5: tuple, phase2: Expr) -> tuple:
    """T_AB = P_A P_B * phase2 for a lower five-momentum over IDX5."""
    return tuple(tuple(simplify(mul(p5[i], p5[j], phase2)) for j in range(5))
                 for i in range(5))


# ---------------------------------------------------------------------------
# vector modes

@dataclass(frozen=True)
class VectorMode:
    A: tuple                    # four lower potential components
    m0: Expr | None             # None for the massless case
    Ahat: tuple                 # five components over IDX5 (index 5 absent: 0)
    F: tuple                    # 5x5 field strength of Ahat
    metric: Metric6
    claimed_upper: Grid


def _vector_mode(a4, m0v, name: str) -> VectorMode:
    x = coords()
    a4 = tuple(_E(v) for v in a4)
    if len(a4) != 4:
        raise AnsatzError("potential must have four components")
    if m0v is None:
        ahat4 = a4
    else:
        x5phase = exp(mul(I, m0v, x[5]))
        ahat4 = tuple(simplify(mul(v, x5phase)) for v in a4)
    ahat5 = ahat4 + (ZERO,)
    return VectorMode(A=a4, m0=m0v, Ahat=ahat5,
                      F=field_strength(ahat5),
                      metric=Metric6(kk_rows(_FLAT4, ahat4), name=name),
                      claimed_upper=_claimed_upper(ahat4, ZERO,
                                                   _trace4(ahat4)))


def photon_metric(a4=None) -> VectorMode:
    if a4 is None:
        a4 = tuple(sym(f"A{i}") for i in range(4))
    return _vector_mode(a4, None, "photon")


def proca_metric(a4=None, m0=None) -> VectorMode:
    if a4 is None:
        a4 = tuple(sym(f"A{i}") for i in range(4))
    m0v = _E(m0) if m0 is not None else sym("m0")
    return _vector_mode(a4, m0v, "proca")


def null_wave_potential(omega=None, pol: int = 2) -> tuple:
    """Transverse plane wave on a null wave vector k = (w, 0, 0, w)."""
    x = coords()
    w = _E(omega) if omega is not None else sym("omega")
    if pol not in (1, 2):
        raise AnsatzError("transverse polarization must be along x1 or x2")
    phase = exp(simplify(mul(num(0, -1), w,
                             add(x[0], mul(MINUS_ONE, x[3])))))
    return tuple(phase if a == pol else ZERO for a in range(4))


def massive_wave_potential(k3=None, m0=None, pol: int = 1) -> tuple:
    """Transverse wave on k = (sqrt(k3^2 + m0^2), 0, 0, k3)."""
    x = coords()
    k3v = _E(k3) if k3 is not None else sym("k3")
    m0v = _E(m0) if m0 is not None else sym("m0")
    if pol not in (1, 2):
        raise AnsatzError("transverse polarization must be along x1 or x2")
    k0 = sqrt(add(power(k3v, 2), power(m0v, 2)))
    phase = exp(simplify(mul(num(0, -1),
                             add(mul(k0, x[0]),
                                 mul(MINUS_ONE, k3v, x[3])))))
    return tuple(phase if a == pol else ZERO for a in range(4))


# ---------------------------------------------------------------------------
# half-spin modes

@dataclass(frozen=True)
class SpinorComponents:
    sol: int
    phi: tuple                  # four spinor components, no phase
    C: Expr                     # field normalization
    p0: Expr                    # on-shell energy expression
    p: tuple                    # (p1, p2, p3)
    m0: Expr


def dirac_components(p1=None, p2=None, p3=None, m0=None, sol: int = 1
                     ) -> SpinorComponents:
    """Spinor components of one plane-wave solution, energy on shell.

    Requires m0 > 0 and p3 != 0 (the normalization C carries 1/p3; a
    vanishing p3 is reported, never patched)."""
    if sol not in (1, 2, 3, 4):
        raise AnsatzError(f"solution index must be 1..4, got {sol}")
    p1v = _E(p1) if p1 is not None else sym("p1")
    p2v = _E(p2) if p2 is not None else sym("p2")
    p3v = _E(p3) if p3 is not None else sym("p3")
    m0v = _E(m0) if m0 is not None else sym("m0")
    if p3v == ZERO:
        raise AnsatzError("normalization C is undefined at p3 = 0")
    if m0v == ZERO:
        raise AnsatzError("rest mass must be positive")
    p0v = onshell_energy(p1v, p2v, p3v, m0v)
    dd = add(m0v, p0v)
    inv_d = power(dd, -1)
    nn = sqrt(mul(HALF, power(m0v, -1), dd))
    plus = add(p1v, mul(I, p2v))     # p1 + i p2
    minus = add(p1v, mul(num(0, -1), p2v))
    tables = {
        1: (nn, ZERO, mul(nn, p3v, inv_d), mul(nn, plus, inv_d)),
        2: (ZERO, nn, mul(nn, minus, inv_d), mul(MINUS_ONE, nn, p3v, inv_d)),
        3: (mul(nn, p3v, inv_d), mul(nn, plus, inv_d), nn, ZERO),
        4: (mul(nn, minus, inv_d), mul(MINUS_ONE, nn, p3v, inv_d), ZERO, nn),
    }
    phi = tuple(simplify(c) for c in tables[sol])
    cnorm = simplify(mul(sqrt(mul(TWO, m0v, dd)), power(p3v, -1)))
    return SpinorComponents(sol=sol, phi=phi, C=cnorm, p0=p0v,
                            p=(p1v, p2v, p3v), m0=m0v)


# coefficient pattern of the five-component field, one row per solution:
# entries multiply (phi_j, C, family phase); the anchor component (the
# solution's own unit entry) rides the 0 and 5 slots.
def _k_coefficients(phi: tuple, sol: int) -> tuple:
    f0, f1, f2, f3 = phi
    if sol == 1:
        return (f0, mul(MINUS_ONE, f3), mul(I, f3), mul(MINUS_ONE, f2),
                mul(MINUS_ONE, f0))
    if sol == 2:
        return (f1, mul(MINUS_ONE, f2), mul(num(0, -1), f2), f3,
                mul(MINUS_ONE, f1))
    if sol == 3:
        return (f2, mul(MINUS_ONE, f1), mul(I, f1), mul(MINUS_ONE, f0), f2)
    return (f3, mul(MINUS_ONE, f0), mul(num(0, -1), f0), f1, f3)


@dataclass(frozen=True)
class SpinorMode:
    sol: int
    components: SpinorComponents
    family_sign: int            # -1: plane wave e^{-i p.x}; +1: conjugate
    phase: Expr                 # full scalar factor on the K pattern
    K: tuple                    # five lower components over IDX5
    metric: Metric6
    claimed_upper: Grid         # trace over all capital indices
    claimed_upper_greek: Grid   # trace over the 4d indices only
    notes: tuple[str, ...]


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
    coeff = _k_coefficients(comps.phi, sol)
    k5 = tuple(simplify(mul(comps.C, c, phase)) for c in coeff)
    kk, k55 = k5[:4], k5[4]
    greek = _trace4(kk)
    full = add(greek, mul(MINUS_ONE, power(k55, 2)))
    notes = _SPINOR_NOTES_NEG if s == 1 else ()
    return SpinorMode(sol=sol, components=comps, family_sign=s, phase=phase,
                      K=k5, metric=Metric6(kk_rows(_FLAT4, kk, k55),
                                           name=f"halfspin{sol}"),
                      claimed_upper=_claimed_upper(kk, k55, full),
                      claimed_upper_greek=_claimed_upper(kk, k55, greek),
                      notes=notes)


@dataclass(frozen=True)
class CoupledMode:
    base: SpinorMode
    gamma: Expr
    K: tuple
    metric: Metric6


def coupled_metric(sol: int = 1, p1=None, p2=None, p3=None, m0=None,
                   gamma=None) -> CoupledMode:
    """Half-spin metric with the field carrying an extra compact-direction
    phase exp(-i gamma x4); gamma -> 0 reduces to the plain half-spin case."""
    base = dirac_metric(sol, p1, p2, p3, m0)
    x = coords()
    gv = _E(gamma) if gamma is not None else sym("gamma")
    twist = exp(mul(num(0, -1), gv, x[4]))
    k5 = tuple(simplify(mul(k, twist)) for k in base.K)
    return CoupledMode(base=base, gamma=gv, K=k5,
                       metric=Metric6(kk_rows(_FLAT4, k5[:4], k5[4]),
                                      name=f"coupled{sol}"))


# ---------------------------------------------------------------------------
# gravity-coupled families

def weak_field_block(eps=None) -> Grid:
    """Static weak-field 4d block: g_00 = 1 + 2 eps x1, spatial part flat."""
    x = coords()
    ev = _E(eps) if eps is not None else sym("eps")
    g00 = add(ONE, mul(TWO, ev, x[1]))
    rows = [[ZERO] * 4 for _ in range(4)]
    diag = (g00, MINUS_ONE, MINUS_ONE, MINUS_ONE)
    for a in range(4):
        rows[a][a] = diag[a]
    return tuple(tuple(r) for r in rows)


@dataclass(frozen=True)
class GravityMode:
    family: str
    kappa: Expr
    g4: Grid
    base: object
    metric: Metric6


def gravity_metric(family: str, g4: Grid | None = None, kappa=None,
                   **params) -> GravityMode:
    """Curved-4d-block version of a field family.

    With a flat block and kappa = 1 this reproduces the plain family
    metric exactly."""
    g4v = tuple(tuple(_E(e) for e in row) for row in g4) if g4 is not None \
        else _FLAT4
    if len(g4v) != 4 or any(len(r) != 4 for r in g4v):
        raise AnsatzError("g4 must be a 4x4 block")
    kv = _E(kappa) if kappa is not None else sym("kappa")

    if family == "scalar":
        base = scalar_metric(p=params.get("p"), m0=params.get("m0"),
                             hbar=params.get("hbar"))
        rows = kk_rows(g4v, _NO_FIELD)
        rows[4][4] = base.g44
    elif family == "proca":
        base = proca_metric(params.get("A"), params.get("m0"))
        rows = kk_rows(g4v, base.Ahat[:4], kappa=kv)
    elif family == "dirac":
        base = dirac_metric(params.get("sol", 1), params.get("p1"),
                            params.get("p2"), params.get("p3"),
                            params.get("m0"))
        rows = kk_rows(g4v, base.K[:4], base.K[4], kv)
    else:
        raise AnsatzError(f"unknown family {family!r}")

    return GravityMode(family=family, kappa=kv, g4=g4v, base=base,
                       metric=Metric6(rows, name=f"gravity-{family}"))
