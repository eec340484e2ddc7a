"""Correctness checks of the benchmark, written apart from the program.

Every check takes plain numbers or arrays that the program produced and
returns a list of problems; an empty list means the output passed.  The
references are closed-form solutions and properties the methods must have
(strict mesh ordering, soliton amplitude 3c and mass 12 sqrt(c), bounded
total variation, invariance to round-off), never a stored copy of an
earlier run.
"""

from __future__ import annotations

import math

import numpy as np


# ---------------------------------------------------------------------------
# closed forms evaluated by the benchmark itself
# ---------------------------------------------------------------------------

def soliton(x, t, c, x0):
    """One KdV soliton 3 c sech^2(sqrt(c)/2 (x - x0 - c t)) of u_t + u u_x + u_xxx = 0."""
    y = 0.5 * math.sqrt(c) * (np.asarray(x, dtype=float) - x0 - c * t)
    return 3.0 * c / np.cosh(np.minimum(np.abs(y), 350.0)) ** 2


def two_soliton_mass(c1, c2):
    """Integral of u over the line: each soliton carries 12 sqrt(c)."""
    return 12.0 * (math.sqrt(c1) + math.sqrt(c2))


def viscous_shock(x, t, nu, c):
    """-sinh(x/2nu) / (cosh(x/2nu) + exp(-(c+t)/4nu)) of u_t + u u_x = nu u_xx.

    Numerator and denominator are divided by exp(max(|y|, e)) so that no
    exponential overflows for small nu.
    """
    y = np.asarray(x, dtype=float) / (2.0 * nu)
    e = -(c + t) / (4.0 * nu) + math.log(2.0)
    m = np.maximum(np.abs(y), e)
    num = np.exp(y - m) - np.exp(-y - m)
    den = np.exp(y - m) + np.exp(-y - m) + np.exp(e - m)
    return -num / den


def total_variation(u):
    return float(np.sum(np.abs(np.diff(np.asarray(u, dtype=float)))))


def trapezoid(x, u):
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    return float(np.sum(0.5 * (u[1:] + u[:-1]) * np.diff(x)))


def local_maxima(x, u, floor_frac=0.05):
    """Strict local maxima above floor_frac of the global maximum, as (x, u)."""
    u = np.asarray(u, dtype=float)
    floor = floor_frac * float(np.max(u))
    return [(float(x[i]), float(u[i])) for i in range(1, u.size - 1)
            if u[i] > u[i - 1] and u[i] >= u[i + 1] and u[i] > floor]


def cross_ratio(a, b, c, d):
    return (b - a) * (d - c) / ((c - a) * (d - b))


# ---------------------------------------------------------------------------
# KdV collision
# ---------------------------------------------------------------------------

def check_completed(name, status):
    return [] if status == "completed" else [f"{name}: status {status!r}, not completed"]


def check_meshes_ordered(name, meshes):
    for m, x in enumerate(meshes):
        dx = np.diff(np.asarray(x, dtype=float))
        if not np.all(np.isfinite(x)) or np.any(dx <= 0.0):
            return [f"{name}: mesh of snapshot {m} not strictly increasing"]
    return []


def check_equidistributed(name, step_statuses):
    """Every adaptive step reported an equidistribution residual <= 1e-10."""
    loose = [s for s in step_statuses if s != "ok"]
    if loose:
        return [f"{name}: {len(loose)} steps with status other than ok ({loose[0]!r})"]
    return []


def check_two_solitons(name, x, u):
    """Two peaks after the collision, the taller one ahead."""
    peaks = local_maxima(x, u)
    if len(peaks) != 2:
        return [f"{name}: {len(peaks)} peaks at the final time, expected 2"]
    (xa, ua), (xb, ub) = peaks
    if not (ub > ua and xb > xa):
        return [f"{name}: taller peak not ahead: {peaks}"]
    return []


def check_tall_amplitude(name, u, c1, rel=0.1):
    tall = float(np.max(u))
    if not abs(tall - 3.0 * c1) <= rel * 3.0 * c1:
        return [f"{name}: taller peak {tall:.4f}, closed form {3.0 * c1:.4f} +- {rel:.0%}"]
    return []


def check_mass(name, x, u, c1, c2, rel):
    mass = trapezoid(x, u)
    ref = two_soliton_mass(c1, c2)
    if not abs(mass - ref) <= rel * ref:
        return [f"{name}: mass {mass:.4f}, closed form {ref:.4f} +- {rel:.0%}"]
    return []


def observed_orders(hs, errors):
    return [math.log2(errors[m - 1] / errors[m]) / math.log2(hs[m - 1] / hs[m])
            for m in range(1, len(hs))]


def check_order(name, hs, errors, order, tol):
    if not all(e > 0.0 and math.isfinite(e) for e in errors):
        return [f"{name}: non-positive or non-finite errors {errors}"]
    orders = observed_orders(hs, errors)
    if not all(abs(o - order) <= tol for o in orders):
        return [f"{name}: observed orders {[round(o, 3) for o in orders]}, "
                f"expected {order} +- {tol}"]
    return []


def nonfinite_run_reported(exit_code, status_line):
    """A run whose state went non-finite must say so: exit 3, status not completed."""
    return exit_code == 3 and status_line.strip() != "status: completed"


# ---------------------------------------------------------------------------
# Burgers shock
# ---------------------------------------------------------------------------

def check_tv_bounded(name, tv0, tvs, slack=1e-8):
    worst = max(tvs) - tv0
    if not worst <= slack:
        return [f"{name}: total variation rose {worst:.3e} above its initial value"]
    return []


def check_far_field(name, x, u, t, nu, c, h, tol=0.1):
    x = np.asarray(x, dtype=float)
    far = np.abs(x) > 10.0 * h
    err = float(np.max(np.abs(np.asarray(u) - viscous_shock(x, t, nu, c))[far]))
    if not err <= tol:
        return [f"{name}: far-field error {err:.3e} above {tol}"]
    return []


def check_mass_zero(name, x, u, tol):
    mass = trapezoid(x, u)
    if not abs(mass) <= tol:
        return [f"{name}: mass {mass:.3e}, odd data needs 0 +- {tol}"]
    return []


# ---------------------------------------------------------------------------
# audits and toolkit
# ---------------------------------------------------------------------------

def check_at_most(name, value, bound):
    if not (math.isfinite(value) and value <= bound):
        return [f"{name}: {value:.3e} above {bound:g}"]
    return []


def check_above(name, value, bound):
    if not value > bound:
        return [f"{name}: {value:.3e} not above {bound:g}"]
    return []


def naive_boost_defect(u0, v, h):
    """Galilean defect of the naive residual: v (u_{i+1} - u_{i-1}) / (2h), periodic."""
    return v * (np.roll(u0, -1) - np.roll(u0, 1)) / (2.0 * h)


def check_ranks(name, ranks, expected):
    bad = sorted({r for r in ranks if r != expected})
    if bad:
        return [f"{name}: ranks {bad} where {expected} is required"]
    return []
