"""Acceptance suite: one test per exit criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS/FAIL lines.  Tolerances are pinned here, not configurable.

Criterion 6 note: the evolution-projection run at N = 128 completes and ends
in the correct two-soliton configuration, but the "peak amplitudes
non-increasing" clause fails, and no faithful scheme can pass it on this
data.  The exact (Hirota) two-soliton with c1 = 1, c2 = 0.5, a1 = 20,
a2 = 5, u = 12 d^2/dx^2 log(1 + e^n1 + e^n2 + A e^(n1 + n2)) with
k = sqrt(c), A = ((k1 - k2)/(k1 + k2))^2, n1 = k1 (x + a1 - c1 t) and
n2 = k2 (x + a2 - c2 t) - log A (phases that put the humps at -a1 and -a2,
within 1.2e-3 of the test's initial data), has a domain maximum of 3.00
at t = 0 that dips to about 2.09 (2.094 at the test's snapshot times, near
t = 21.5) while the taller soliton overtakes the shorter one, and recovers
to 3.00 by t = 40.  This is the exchange-type interaction Lax predicts for
c1/c2 < (3 + sqrt(5))/2 (Lax, CPAM 21 (1968) 467): the two humps trade
mass and never merge into one.  The numerical run dips and recovers the
same way, so its series of maxima must rise; the assertion is kept
faithful rather than loosened.
"""

import math

import numpy as np
import pytest

from symfd.groups import (
    affine_5d_generators,
    apply_sl2,
    burgers_generators,
    check_difference_symmetry,
    dpkdv_generators,
    kdv_generators,
    lie_matrix_rank,
    make_field,
    prolonged_directional_derivative,
)
from symfd.frames import (
    BurgersFrameInput,
    SL2DiscreteFrameInput,
    apply_burgers_jet,
    apply_kdv_jet,
    apply_sl2_window,
    burgers_discrete_frame,
    burgers_normalization_residuals,
    invariantize_sl2_discrete,
    kdv_discrete_frame,
    kdv_normalization_residuals,
    sl2_discrete_frame,
    sl2_discrete_normalization_residuals,
    sl2_projectively_equal,
)
from symfd.invariants import (
    BURGERS_INVARIANT_NAMES,
    KDV_INVARIANT_NAMES,
    BurgersStencil,
    KdVStencil,
    burgers_invariants,
    cross_ratio,
    kdv_invariants,
)
from symfd.rng import DeterministicRng
from symfd.runner import (
    convergence_study,
    exact_burgers,
    invariance_audit,
    run_experiment,
    schwarzian_rhs,
    total_variation,
    validate_config,
)
from symfd.schemes import rk_adaptive_solve

from _helpers import (
    rand_admissible_window,
    rand_burgers_element,
    rand_burgers_stencil,
    rand_kdv_element,
    rand_kdv_stencil,
    rand_mesh_row,
    rand_sl2_safe,
    rand_window,
)

# exact taller-soliton amplitude for u_t + u u_x + u_xxx = 0: a speed-c
# soliton has amplitude 3c, so c1 = 1 gives 3.0
TALL_SOLITON_AMPLITUDE = 3.0


def _report(num: int, name: str, ok: bool, detail: str = ""):
    verdict = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {verdict} - {name}" + (f" ({detail})" if detail else ""))


def _local_maxima(x, u, floor_frac=0.05):
    """Strict local maxima above a noise floor relative to the global max."""
    floor = floor_frac * float(np.max(u))
    out = []
    for i in range(1, len(u) - 1):
        if u[i] > u[i - 1] and u[i] >= u[i + 1] and u[i] > floor:
            out.append((float(x[i]), float(u[i])))
    return out


# ---------------------------------------------------------------------------
# 1. invariance suite
# ---------------------------------------------------------------------------

def test_c01_invariance_suite():
    tol = 1e-9
    reports = {}
    for scheme in ("schwarzian_invariant", "schwarzian_invariantized",
                   "kdv_6pt", "kdv_10pt", "burgers_fv", "uxx"):
        reports[scheme] = invariance_audit(scheme, n_elements=100,
                                           n_configs=20, seed=2026, tol=tol)
    naive = invariance_audit("kdv_naive", n_elements=100, n_configs=20,
                             seed=2026, tol=tol)
    worst = max(max(r.strong_max, r.weak_max) for r in reports.values())
    ok = (all(r.passed for r in reports.values())
          and naive.passed and naive.strong_max > tol
          and naive.formula_match_error <= 1e-10)
    _report(1, "invariance suite", ok,
            f"invariant schemes worst dev {worst:.2e}; naive boost defect "
            f"{naive.strong_max:.2e} matches formula to {naive.formula_match_error:.2e}")
    for scheme, r in reports.items():
        assert r.passed, (scheme, r.strong_max, r.weak_max)
    assert naive.strong_max > tol
    assert naive.formula_match_error <= 1e-10


# ---------------------------------------------------------------------------
# 2. frame suite
# ---------------------------------------------------------------------------

def test_c02_frame_suite():
    rng = DeterministicRng(2)
    worst_norm = 0.0
    # 500 normalization samples per family
    count = 0
    while count < 500:
        u = rand_window(rng)
        try:
            inp = SL2DiscreteFrameInput(*u, rng.uniform(0.1, 2.0))
            worst_norm = max(worst_norm, float(np.max(np.abs(
                sl2_discrete_normalization_residuals(inp)))))
        except Exception:
            continue
        count += 1
    from symfd.frames import KdVFrameInput

    for _ in range(500):
        inp = KdVFrameInput(rng.uniform(-1, 1), rng.uniform(-2, 2),
                            rng.uniform(-2, 2), rng.uniform(0.05, 3.0))
        worst_norm = max(worst_norm, float(np.max(np.abs(
            kdv_normalization_residuals(inp)))))
    count = 0
    while count < 500:
        inp = BurgersFrameInput(rng.uniform(-1, 1), rng.uniform(-2, 2),
                                rng.uniform(-2, 2), rng.uniform(-2, 2),
                                rng.uniform(-2, 2), rng.uniform(-2, 2),
                                rng.uniform(0.1, 2.0))
        if inp.cube_argument <= 0.05:
            continue
        worst_norm = max(worst_norm, float(np.max(np.abs(
            burgers_normalization_residuals(inp)))))
        count += 1

    # equivariance rho(g.z) = rho(z) g^{-1}, 500 samples per family
    worst_eq = 0.0
    count = 0
    while count < 500:
        u = rand_window(rng)
        try:
            inp = SL2DiscreteFrameInput(*u, rng.uniform(0.1, 2.0))
            g = rand_sl2_safe(rng, inp.window)
            lhs = sl2_discrete_frame(apply_sl2_window(g, inp))
            rhs = sl2_discrete_frame(inp).compose(g.inverse())
        except Exception:
            continue
        assert sl2_projectively_equal(lhs, rhs, 1e-9)
        count += 1
    for _ in range(500):
        inp = KdVFrameInput(rng.uniform(-1, 1), rng.uniform(-2, 2),
                            rng.uniform(-2, 2), rng.uniform(0.05, 3.0))
        g = rand_kdv_element(rng)
        lhs = np.array(kdv_discrete_frame(apply_kdv_jet(g, inp)).params())
        rhs = np.array(kdv_discrete_frame(inp).compose(g.inverse()).params())
        worst_eq = max(worst_eq, float(np.max(np.abs(lhs - rhs) / (1.0 + np.abs(rhs)))))
    count = 0
    while count < 500:
        inp = BurgersFrameInput(rng.uniform(-1, 1), rng.uniform(-2, 2),
                                rng.uniform(-2, 2), rng.uniform(-2, 2),
                                rng.uniform(-2, 2), rng.uniform(-2, 2),
                                rng.uniform(0.1, 2.0))
        if inp.cube_argument <= 0.05:
            continue
        g = rand_burgers_element(rng)
        gi = apply_burgers_jet(g, inp)
        if gi.cube_argument <= 1e-6:
            continue
        lhs = np.array(burgers_discrete_frame(gi).params())
        rhs = np.array(burgers_discrete_frame(inp).compose(g.inverse()).params())
        worst_eq = max(worst_eq, float(np.max(np.abs(lhs - rhs) / (1.0 + np.abs(rhs)))))
        count += 1

    # replacement principle: iota(R) = R through the discrete Mobius frame
    worst_rep = 0.0
    F = lambda w: cross_ratio(*w.window)
    count = 0
    while count < 200:
        u = rand_admissible_window(rng)
        try:
            inp = SL2DiscreteFrameInput(*u, 1.0)
            v = invariantize_sl2_discrete(F, inp)
        except Exception:
            continue
        r = cross_ratio(*u)
        worst_rep = max(worst_rep, abs(v - r) / (1.0 + abs(r)))
        count += 1

    ok = worst_norm <= 1e-10 and worst_eq <= 1e-9 and worst_rep <= 1e-11
    _report(2, "frame suite", ok,
            f"normalization {worst_norm:.2e}, equivariance {worst_eq:.2e}, "
            f"replacement {worst_rep:.2e}")
    assert worst_norm <= 1e-10
    assert worst_eq <= 1e-9
    assert worst_rep <= 1e-11


# ---------------------------------------------------------------------------
# 3. difference-invariant suite
# ---------------------------------------------------------------------------

def test_c03_difference_invariant_suite():
    rng = DeterministicRng(3)
    worst_kdv = 0.0
    kgens = kdv_generators()
    for _ in range(100):
        z = rand_kdv_stencil(rng).to_stencil()
        for name in KDV_INVARIANT_NAMES:
            F = lambda s, nm=name: kdv_invariants(KdVStencil.from_stencil(s))[nm]
            for f in kgens:
                worst_kdv = max(worst_kdv, abs(prolonged_directional_derivative(F, f, z)))
    worst_b = 0.0
    bgens = burgers_generators()
    for _ in range(100):
        z = rand_burgers_stencil(rng).to_stencil()
        for name in BURGERS_INVARIANT_NAMES:
            F = lambda s, nm=name: burgers_invariants(BurgersStencil.from_stencil(s))[nm]
            for f in bgens:
                worst_b = max(worst_b, abs(prolonged_directional_derivative(F, f, z)))
    worst_cr = 0.0
    for _ in range(1000):
        u = rand_admissible_window(rng)
        g = rand_sl2_safe(rng, u)
        r = cross_ratio(*u)
        worst_cr = max(worst_cr, abs(cross_ratio(*(apply_sl2(g, v) for v in u)) - r)
                       / (1.0 + abs(r)))
    ok = worst_kdv <= 1e-7 and worst_b <= 1e-7 and worst_cr <= 1e-11
    _report(3, "difference invariants", ok,
            f"18 KdV derivs {worst_kdv:.2e}, 9 Burgers derivs {worst_b:.2e}, "
            f"cross-ratio {worst_cr:.2e}")
    assert worst_kdv <= 1e-7
    assert worst_b <= 1e-7
    assert worst_cr <= 1e-11


# ---------------------------------------------------------------------------
# 4. Schwarzian experiment
# ---------------------------------------------------------------------------

def test_c04_schwarzian_experiment():
    cfg = validate_config({
        "equation": "schwarzian", "scheme": "schwarzian_invariant",
        "domain_a": 0.0, "domain_b": 2.5, "n_points": 251, "source_f": 2.0,
    })
    out = run_experiment(cfg)
    _t, x, u = out.snapshots[-1]
    completed = out.status == "completed" and x[-1] > math.pi / 2.0
    i1 = int(np.argmin(np.abs(x - 1.0)))
    i2 = int(np.argmin(np.abs(x - 2.0)))
    e1 = abs(u[i1] - math.tan(1.0)) / abs(math.tan(1.0))
    e2 = abs(u[i2] - math.tan(2.0)) / abs(math.tan(2.0))

    tr = rk_adaptive_solve(schwarzian_rhs(lambda _x: 2.0),
                           [0.0, 1.0, 0.0], (0.0, 2.5), 1e-12)
    baseline_diverges = tr.diverged and tr.final()[0] < 1.6

    ok = completed and e1 < 1e-2 and e2 < 1e-2 and baseline_diverges
    _report(4, "Schwarzian experiment", ok,
            f"rel err {e1:.2e} @x=1, {e2:.2e} @x=2; baseline diverged at "
            f"x={tr.final()[0]:.4f}")
    assert completed
    assert e1 < 1e-2 and e2 < 1e-2
    assert baseline_diverges


# ---------------------------------------------------------------------------
# 5. KdV Lagrangian failure reproduction
# ---------------------------------------------------------------------------

def test_c05_kdv_lagrangian_tangling():
    cfg = validate_config({
        "equation": "kdv", "scheme": "kdv_6pt", "mesh": "lagrangian",
        "domain_a": -30.0, "domain_b": 30.0, "n_points": 128,
        "t_final": 0.75, "dt_constant": 0.5,
    })
    out = run_experiment(cfg)
    fired = out.status == "mesh_tangling"
    t_fire = out.diagnostics[-1].t
    spacings = [r.min_spacing for r in out.diagnostics if r.status == "ok"]
    tail = spacings[max(0, len(spacings) - max(2, len(spacings) // 5)):]
    monotone = all(b < a for a, b in zip(tail, tail[1:]))
    ok = fired and t_fire <= 0.75 and monotone
    _report(5, "KdV Lagrangian tangling", ok,
            f"fired at t={t_fire:.3f}, min spacing fell "
            f"{spacings[0]:.3f} -> {spacings[-1]:.3f}")
    assert fired and t_fire <= 0.75
    assert monotone


# ---------------------------------------------------------------------------
# 6. KdV evolution-projection
# ---------------------------------------------------------------------------

def test_c06_kdv_evolution_projection():
    cfg = validate_config({
        "equation": "kdv", "scheme": "kdv_10pt", "mesh": "projection",
        "domain_a": -30.0, "domain_b": 30.0, "n_points": 128,
        "t_final": 40.0, "dt_constant": 0.0625,
    })
    out = run_experiment(cfg)
    completes = out.status == "completed"
    t, x, u = out.snapshots[-1]
    peaks = _local_maxima(x, u)
    two_ordered = (len(peaks) == 2 and peaks[1][1] > peaks[0][1]
                   and peaks[1][0] > peaks[0][0])
    maxima = [float(np.max(su)) for _st, _sx, su in out.snapshots]
    non_increasing = all(b <= a * (1.0 + 1e-9) for a, b in zip(maxima, maxima[1:]))
    ok = completes and two_ordered and non_increasing
    _report(6, "KdV evolution-projection", ok,
            f"completes={completes}, peaks={[(round(a,1), round(b,2)) for a, b in peaks]}, "
            f"amplitude {maxima[0]:.3f} -> {max(maxima):.3f} -> {maxima[-1]:.3f}, "
            f"non-increasing={non_increasing}")
    assert completes
    assert two_ordered, peaks
    # Known-red clause: the exact two-soliton's maximum itself dips and
    # recovers during the exchange-type collision (see the module
    # docstring), so no faithful scheme keeps it non-increasing; kept as is.
    assert non_increasing, (
        "peak amplitude series increases under per-step spline projection: "
        f"{maxima[0]:.3f} up to {max(maxima):.3f}")


# ---------------------------------------------------------------------------
# 7. KdV adaptive
# ---------------------------------------------------------------------------

def test_c07_kdv_adaptive():
    cfg = validate_config({
        "equation": "kdv", "scheme": "kdv_10pt", "mesh": "adaptive",
        "domain_a": -30.0, "domain_b": 30.0, "n_points": 128,
        "t_final": 40.0, "dt_constant": 0.125, "alpha": 10.0,
    })
    out = run_experiment(cfg)
    completes = out.status == "completed"
    equi_ok = all(r.status == "ok" for r in out.diagnostics)
    t, x, u = out.snapshots[-1]
    peaks = _local_maxima(x, u)
    tall = max(b for _a, b in peaks)
    amp_ok = abs(tall - TALL_SOLITON_AMPLITUDE) <= 0.1 * TALL_SOLITON_AMPLITUDE
    ok = completes and equi_ok and amp_ok
    _report(7, "KdV adaptive", ok,
            f"completes={completes}, equidistribution residuals <= 1e-10: {equi_ok}, "
            f"taller peak {tall:.3f} vs exact {TALL_SOLITON_AMPLITUDE}")
    assert completes
    assert equi_ok
    assert amp_ok


# ---------------------------------------------------------------------------
# 8. Burgers experiment
# ---------------------------------------------------------------------------

def test_c08_burgers_experiment():
    cfg = validate_config({
        "equation": "burgers", "scheme": "burgers_fv",
        "domain_a": -0.5, "domain_b": 0.5, "n_points": 128,
        "t_final": 0.5, "dt_constant": 0.4, "nu": 0.001, "alpha": 0.5,
    })
    out = run_experiment(cfg)
    completes = out.status == "completed"
    tv0 = total_variation(out.snapshots[0][2])
    tv_excess = max(r.tv for r in out.diagnostics) - tv0
    t, x, u = out.snapshots[-1]
    ue = np.asarray(exact_burgers(t, x, 0.001, 0.25))
    h = 1.0 / 127.0
    err_far = float(np.max(np.abs(u - ue)[np.abs(x) > 10 * h]))
    ok = completes and tv_excess <= 1e-8 and err_far <= 0.1
    _report(8, "Burgers shock experiment", ok,
            f"completes={completes}, TV excess {tv_excess:.2e}, "
            f"far-field error {err_far:.2e}")
    assert completes
    assert tv_excess <= 1e-8
    assert err_far <= 0.1


# ---------------------------------------------------------------------------
# 9. convergence orders
# ---------------------------------------------------------------------------

def test_c09_convergence_orders():
    rows_s = convergence_study("schwarzian_invariant", [0.04, 0.02, 0.01])
    orders_s = [r.observed_order for r in rows_s[1:]]
    rows_n = convergence_study("kdv_naive", [0.5, 0.25, 0.125])
    orders_n = [r.observed_order for r in rows_n[1:]]
    ok_s = all(abs(o - 1.0) <= 0.3 for o in orders_s)
    ok_n = all(abs(o - 2.0) <= 0.3 for o in orders_n)
    _report(9, "convergence orders", ok_s and ok_n,
            f"Schwarzian {[f'{o:.2f}' for o in orders_s]}, "
            f"naive KdV {[f'{o:.2f}' for o in orders_n]}")
    assert ok_s, orders_s
    assert ok_n, orders_n


# ---------------------------------------------------------------------------
# 10. weak-invariance rank probe
# ---------------------------------------------------------------------------

def test_c10_rank_probe():
    rng = DeterministicRng(10)
    gens = affine_5d_generators()

    def draw(on_locus):
        from symfd.groups import Stencil

        x = rand_mesh_row(rng, 3)
        u0, u1 = rng.uniform(-2, 2), rng.uniform(-2, 2)
        if on_locus:
            u2 = u1 + (x[2] - x[1]) / (x[1] - x[0]) * (u1 - u0)
        else:
            u2 = rng.uniform(-2, 2)
        return Stencil.from_dict({
            (0, -1): (0.0, x[0], u0), (0, 0): (0.0, x[1], u1),
            (0, 1): (0.0, x[2], u2)})

    generic = [lie_matrix_rank(gens, draw(False)) for _ in range(50)]
    on_w = [lie_matrix_rank(gens, draw(True)) for _ in range(50)]
    ok = all(r == 5 for r in generic) and all(r == 4 for r in on_w)
    _report(10, "Lie-matrix rank probe", ok,
            f"generic ranks {sorted(set(generic))}, on the locus {sorted(set(on_w))}")
    assert all(r == 5 for r in generic)
    assert all(r == 4 for r in on_w)


# ---------------------------------------------------------------------------
# 11. dpKdV symmetry check
# ---------------------------------------------------------------------------

def test_c11_dpkdv_symmetry():
    E = lambda z: z.u(1, 1) - z.u(0, 0) - 1.0 / (z.u(0, 1) - z.u(1, 0))
    offsets = [(0, 0), (0, 1), (1, 0), (1, 1)]
    adm = lambda z: abs(z.u(0, 1) - z.u(1, 0)) > 0.3
    results = {}
    for f in dpkdv_generators():
        rep = check_difference_symmetry(
            E, f, 100, 1e-7, offsets=offsets, solve_offset=(1, 1),
            admissible=adm, seed=11)
        results[f.name] = rep
    perturbed = make_field(phi=lambda t, x, u: u, name="unweighted")
    bad = check_difference_symmetry(
        E, perturbed, 100, 1e-7, offsets=offsets, solve_offset=(1, 1),
        admissible=adm, seed=11)
    ok = all(r.passed for r in results.values()) and not bad.passed
    worst = max(r.max_abs_derivative for r in results.values())
    _report(11, "dpKdV symmetry check", ok,
            f"three generators max deriv {worst:.2e}; perturbed generator "
            f"deviates by {bad.max_abs_derivative:.2e}")
    for name, r in results.items():
        assert r.passed, (name, r.max_abs_derivative)
    assert not bad.passed
