#!/usr/bin/env python3
"""Solve for the gain-bandwidth constant baked into device defaults.

The default device, pump, and filter are coupled: the dimensionless constant
c in  sqrt(G0) * B = c * kappa  is chosen so that the default filter pair
(raised-cosine-notch, 4 MHz wide, centered 5 MHz off the half-pump) applied
to the default operating point (peak gain 100) yields a predicted squeezing
parameter of exactly 1.75.  Run this after touching any of those defaults and
paste the printed value into device.GAIN_BANDWIDTH_CONST.

It root-finds with scipy's brentq, so it needs the `test` extra
(pip install -e ".[test]"); the package itself runs on numpy alone.
"""

import dataclasses

import numpy as np
from scipy.optimize import brentq

from jpatomo.detection import design_filter, predicted_r
from jpatomo.device import (
    DEFAULT_DEVICE,
    DEFAULT_GAIN_ANCHOR,
    DEFAULT_PUMP,
    gain_profile,
)

TARGET_R = 1.75


def r_for_constant(c: float) -> float:
    device = dataclasses.replace(DEFAULT_DEVICE, gain_bandwidth_const=c)
    profile = gain_profile(DEFAULT_PUMP, device, DEFAULT_GAIN_ANCHOR)
    filt = design_filter(
        offset=2.0 * np.pi * 5.0e6,
        shape="raised-cosine-notch",
        width=2.0 * np.pi * 4.0e6,
        grid_points=2001,
    )
    return predicted_r(filt, profile)


def main() -> None:
    lo, hi = 0.2, 20.0
    c = brentq(lambda x: r_for_constant(x) - TARGET_R, lo, hi, xtol=1e-15, rtol=1e-15)
    r = r_for_constant(c)
    print(f"gain_bandwidth_const = {c!r}")
    print(f"predicted_r at that constant = {r!r} (target {TARGET_R})")
    print(f"residual = {r - TARGET_R:.3e}")


if __name__ == "__main__":
    main()
