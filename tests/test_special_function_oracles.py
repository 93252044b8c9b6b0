"""lambert_w0 and tower_limit_via_lambert against mpmath at 50 digits and scipy.

Near the branch point -1/e the principal branch has a square-root
singularity, so one rounding of the input moves W by about
eps * |x| / (e^W * |1 + W|): the tolerances scale with that condition
term, plus a few ulps of the value itself.  Each test lists every
argument outside its tolerance.
"""

import math

import mpmath
import numpy as np
from scipy.special import lambertw

from ddeosc import BRANCH_POINT, EULER_LOWER, EULER_UPPER, lambert_w0, tower_limit_via_lambert

EPS = 2.0 ** -52


def _arguments() -> list[float]:
    rng = np.random.default_rng(7)
    near_branch = [BRANCH_POINT + 10.0 ** -k for k in range(1, 16)]
    near_branch += (BRANCH_POINT + 10.0 ** -rng.uniform(1.0, 15.0, 100)).tolist()
    negative = rng.uniform(BRANCH_POINT, 0.0, 100).tolist()
    positive = (10.0 ** rng.uniform(-300.0, 308.0, 300)).tolist()
    return near_branch + negative + positive + [-1e-300, 0.0, 5e-324, 1.0, math.e, 1e308, 1.7976931348623157e308]


def _condition(x: float, w: float) -> float:
    """The change of W(x) under a relative change eps of x."""
    return EPS * abs(x) / (math.exp(w) * abs(1.0 + w))


def test_lambert_w0_matches_mpmath():
    outside = []
    with mpmath.workdps(50):
        for x in _arguments():
            exact = mpmath.lambertw(mpmath.mpf(x))
            w = float(exact.real)
            error = abs(mpmath.mpf(lambert_w0(x)) - exact.real)
            if exact.imag != 0 or not error <= 4.0 * (EPS * abs(w) + _condition(x, w)):
                outside.append((x, float(error)))
    assert outside == []


def test_lambert_w0_matches_scipy():
    outside = []
    for x in _arguments():
        ours = lambert_w0(x)
        theirs = lambertw(x, 0)
        tol = 8.0 * (EPS * abs(ours) + _condition(x, ours))
        if not (abs(theirs.imag) <= tol and abs(ours - theirs.real) <= tol):
            outside.append((x, ours, theirs))
    assert outside == []


def test_tower_limit_via_lambert_matches_mpmath():
    # y = W(u)/u with u = -ln(base); one rounding of u moves y by about eps / (e^W * |1 + W|)
    rng = np.random.default_rng(11)
    bases = rng.uniform(EULER_LOWER, EULER_UPPER, 300).tolist()
    bases += [EULER_UPPER - 10.0 ** -k for k in range(1, 15)]
    bases += [EULER_LOWER + 1e-12, 1.0 - 1e-15, 1.0 + 1e-15, math.sqrt(2.0)]
    outside = []
    with mpmath.workdps(50):
        for base in bases:
            u = -mpmath.log(mpmath.mpf(base))
            w = mpmath.lambertw(u).real
            exact = w / u
            error = abs(mpmath.mpf(tower_limit_via_lambert(base)) - exact)
            tol = 4.0 * EPS * (abs(float(exact)) + 1.0 / (math.exp(float(w)) * abs(1.0 + float(w))))
            if not error <= tol:
                outside.append((base, float(error), tol))
    assert outside == []
