#!/usr/bin/env python3
"""Two-path interference along the compact direction.

Superposes two point sources (slit separation d, screen distance L,
wavelength lambda), samples the resulting density on a screen grid,
places each interference minimum in closed form where the detector line
meets a half-integer path-difference hyperbola, and draws the profile as an
ASCII strip chart.
"""
from kk6 import two_path_fringes

import numpy as np

D, L, LAM, YMAX, POINTS = 10.0, 400.0, 0.5, 15.0, 121


def main():
    grid = np.linspace(-YMAX, YMAX, POINTS)
    fp = two_path_fringes(D, L, LAM, grid)
    peak = max(fp.density)

    print(f"slits d = {D}, screen distance L = {L}, wavelength = {LAM}")
    print(f"far-field fringe spacing lambda L / d = {LAM * L / D}\n")

    width = 56
    for y, rho in zip(fp.y, fp.density):
        bar = "#" * int(round(width * rho / peak))
        print(f"  y = {y:7.2f}  |{bar}")

    print("\nclosed-form minima (half-integer path difference):")
    for ym in fp.minima:
        k = 2.0 * np.pi / LAM
        r1 = np.hypot(L, ym - 0.5 * D)
        r2 = np.hypot(L, ym + 0.5 * D)
        depth = abs(np.exp(1j * k * r1) + np.exp(1j * k * r2)) ** 2
        print(f"  y = {ym:+.6f}   density {depth:.3e}  "
              f"({depth / peak:.1e} of peak)")


if __name__ == "__main__":
    main()
