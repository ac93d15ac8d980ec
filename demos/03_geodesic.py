#!/usr/bin/env python3
"""The closed-form geodesic, checked three different ways.

1. Symbolically: substituting the closed-form trajectory into the geodesic
   equation of the scalar-mode metric collapses every component to zero at
   the expression level.
2. Numerically: a fixed-step fourth-order integrator started on the
   closed-form initial state reproduces it to roundoff, and converges at
   fourth order once the start state is nudged off the closed-form family.
3. Geometrically: along the trajectory, the interval accumulates as the
   inverse of the mode's phase factor: ds/dx4 = exp(-i theta).
"""
import cmath
import math

from kk6 import closed_form_exprs, closed_form_state, integrate, \
    interval_along, scalar_metric
from kk6.dynamics import (
    GeodesicState, closed_form_deviation, connection_evaluator,
)
from kk6.expr import ZERO, to_text

P = (1.25, 0.0, 0.0, 0.75)          # on shell with m0 = 1: p0^2 = p3^2 + 1
M0 = 1.0
CONST = (0.0,) * 6


def main():
    cf = closed_form_exprs()
    print("symbolic geodesic residuals (one per coordinate):")
    for a in range(6):
        print(f"  component {a}: {to_text(cf.residual[a])}")
    assert all(r == ZERO for r in cf.residual)
    print("  (the compact velocity itself: dx4/dtau = "
          f"{to_text(cf.v[4])}, constant on shell)\n")

    metric = scalar_metric(p=("5/4", 0, 0, "3/4"), m0=1).metric
    gamma = connection_evaluator(metric)
    s0 = closed_form_state(0.0, P, M0, CONST)

    path = integrate(s0, 1.0, 1000, gamma)
    dev = closed_form_deviation(path, P, M0, CONST)
    print(f"integrator vs closed form, 1000 steps: max deviation {dev:.3e}")

    v = list(s0.v)
    v[0] += 0.2
    v[4] += 0.2
    seed = GeodesicState(s0.x, tuple(v), 0.0)
    ref = integrate(seed, 2.0, 6400, gamma).states[-1]
    print("\nconvergence on a perturbed start state (reference: 6400 "
          "steps):")
    prev = None
    for steps in (25, 50, 100, 200):
        end = integrate(seed, 2.0, steps, gamma).states[-1]
        err = max(abs(a - b) for a, b in zip(end.x, ref.x))
        order = f"   order {math.log(prev / err, 2):.2f}" if prev else ""
        print(f"  {steps:5d} steps: error {err:.3e}{order}")
        prev = err

    worst = 0.0
    for iv, lo, hi in zip(interval_along(path, metric), path.states,
                          path.states[1:]):
        xm = [(a + b) / 2 for a, b in zip(lo.x, hi.x)]
        theta = (P[0] * xm[0] - P[1] * xm[1] - P[2] * xm[2] - P[3] * xm[3]
                 - M0 * xm[5])
        worst = max(worst, abs(iv.ds / iv.dx4 - cmath.exp(-1j * theta)))
    print("\ninterval against compact coordinate, per step: "
          f"max |ds/dx4 - exp(-i theta)| = {worst:.3e}")


if __name__ == "__main__":
    main()
