"""Tests of the benchmark's own checks and span tracer.

    python3 -m pytest -q bench/test_checks.py      (from the repository root)

Each check must pass the closed-form answer and reject a deliberately wrong
one: a soliton shifted by one node spacing, a total-variation rise of 1e-6,
an audit deviation above its tolerance, and so on.
"""

import math
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402

C1, C2 = 1.0, 0.5


def _two_solitons(x):
    """Taller soliton ahead at x = 8, smaller behind at x = -6."""
    return checks.soliton(x, 0.0, C1, 8.0) + checks.soliton(x, 0.0, C2, -6.0)


def test_two_separated_solitons_pass():
    x = np.linspace(-30.0, 30.0, 601)
    u = _two_solitons(x)
    assert checks.check_two_solitons("s", x, u) == []
    assert checks.check_tall_amplitude("s", u, C1) == []
    assert checks.check_mass("s", x, u, C1, C2, rel=1e-3) == []


def test_taller_soliton_behind_is_rejected():
    x = np.linspace(-30.0, 30.0, 601)
    u = checks.soliton(x, 0.0, C1, -6.0) + checks.soliton(x, 0.0, C2, 8.0)
    assert checks.check_two_solitons("s", x, u)


def test_merged_or_extra_peaks_are_rejected():
    x = np.linspace(-30.0, 30.0, 601)
    assert checks.check_two_solitons("s", x, checks.soliton(x, 0.0, C1, 0.0))
    wiggly = _two_solitons(x) + 0.5 * (np.abs(x - 20.0) < 0.2)
    assert checks.check_two_solitons("s", x, wiggly)


def test_amplitude_off_by_more_than_ten_percent_is_rejected():
    x = np.linspace(-30.0, 30.0, 601)
    assert checks.check_tall_amplitude("s", 1.11 * _two_solitons(x), C1)
    assert checks.check_tall_amplitude("s", 0.89 * _two_solitons(x), C1)
    assert checks.check_tall_amplitude("s", 1.09 * _two_solitons(x), C1) == []


def test_mass_drift_is_rejected():
    x = np.linspace(-30.0, 30.0, 601)
    assert checks.check_mass("s", x, _two_solitons(x) + 0.03, C1, C2, rel=0.05)


def test_soliton_shifted_by_one_node_spacing_fails_the_order_check():
    hs = (0.5, 0.25, 0.125)

    def error(h, shift_nodes, noise_order):
        x = np.arange(-20.0, 20.0, h)
        exact = checks.soliton(x, 0.1, 1.0, 0.0)
        computed = checks.soliton(x + shift_nodes * h, 0.1, 1.0, 0.0) + 0.05 * h**noise_order
        return float(np.max(np.abs(computed - exact)))

    good = [error(h, 0, 2) for h in hs]
    assert checks.check_order("study", hs, good, 2.0, 0.3) == []
    shifted = [error(h, 1, 2) for h in hs]
    assert checks.check_order("study", hs, shifted, 2.0, 0.3)
    assert checks.check_order("study", hs, [1e-2, 0.0, 1e-4], 2.0, 0.3)
    assert checks.check_order("study", hs, [1e-2, math.nan, 1e-4], 2.0, 0.3)


def test_unordered_or_nonfinite_mesh_is_rejected():
    x = np.linspace(0.0, 1.0, 11)
    assert checks.check_meshes_ordered("m", [x, x]) == []
    bad = x.copy()
    bad[4], bad[5] = bad[5], bad[4]
    assert checks.check_meshes_ordered("m", [x, bad])
    assert checks.check_meshes_ordered("m", [x, x.copy().clip(0.0, 0.5)])
    nan = x.copy()
    nan[3] = math.nan
    assert checks.check_meshes_ordered("m", [nan])


def test_loose_equidistribution_step_is_rejected():
    assert checks.check_equidistributed("a", ["ok"] * 10) == []
    assert checks.check_equidistributed("a", ["ok"] * 9 + ["equi_loose"])


def test_status_other_than_completed_is_rejected():
    assert checks.check_completed("r", "completed") == []
    assert checks.check_completed("r", "mesh_tangling")


def test_nonfinite_run_must_exit_3_and_say_so():
    assert not checks.nonfinite_run_reported(0, "status: completed")
    assert not checks.nonfinite_run_reported(3, "status: completed")
    assert checks.nonfinite_run_reported(3, "status: nonfinite")


def test_total_variation_rise_of_1e_6_is_rejected():
    x = np.linspace(-0.5, 0.5, 128)
    u = checks.viscous_shock(x, 0.0, 0.001, 0.25)
    tv0 = checks.total_variation(u)
    assert checks.check_tv_bounded("b", tv0, [tv0, tv0 - 1e-3, tv0 + 5e-9]) == []
    assert checks.check_tv_bounded("b", tv0, [tv0, tv0 + 1e-6])


def test_viscous_shock_formula_matches_its_limits():
    x = np.array([-0.4, -0.1, 0.0, 0.1, 0.4])
    u = checks.viscous_shock(x, 0.5, 0.001, 0.25)
    assert np.allclose(u, [1.0, 1.0, 0.0, -1.0, -1.0], atol=1e-12)
    assert np.all(np.isfinite(checks.viscous_shock(x, 0.0, 1e-5, 0.25)))


def test_far_field_error_is_rejected_for_a_displaced_shock():
    x = np.linspace(-0.5, 0.5, 128)
    h = 1.0 / 127.0
    u = checks.viscous_shock(x, 0.5, 0.001, 0.25)
    assert checks.check_far_field("b", x, u, 0.5, 0.001, 0.25, h) == []
    moved = checks.viscous_shock(x - 12.0 * h, 0.5, 0.001, 0.25)
    assert checks.check_far_field("b", x, moved, 0.5, 0.001, 0.25, h)


def test_nonzero_mass_of_odd_data_is_rejected():
    x = np.linspace(-0.5, 0.5, 128)
    u = checks.viscous_shock(x, 0.5, 0.001, 0.25)
    assert checks.check_mass_zero("b", x, u, tol=1e-6) == []
    assert checks.check_mass_zero("b", x, u + 1e-5, tol=1e-6)


def test_audit_deviation_above_tolerance_is_rejected():
    assert checks.check_at_most("audit", 5e-10, 1e-9) == []
    assert checks.check_at_most("audit", 2e-9, 1e-9)
    assert checks.check_at_most("audit", math.nan, 1e-9)
    assert checks.check_above("defect", 0.2, 1e-9) == []
    assert checks.check_above("defect", 1e-12, 1e-9)


def test_naive_boost_defect_formula():
    from symfd import schemes

    rng = np.random.default_rng(0)
    u0, u1 = rng.uniform(-2.0, 2.0, 9), rng.uniform(-2.0, 2.0, 9)
    base = schemes.naive_kdv_residual(u0, u1, 0.1, 0.5)
    img = schemes.naive_kdv_residual(u0 + 0.3, u1 + 0.3, 0.1, 0.5)
    defect = checks.naive_boost_defect(u0, 0.3, 0.5)
    assert np.max(np.abs(img - base - defect)) <= 1e-10
    assert np.max(np.abs(img - base - 1.01 * defect)) > 1e-10


def test_rank_check():
    assert checks.check_ranks("r", [5, 5, 5], 5) == []
    assert checks.check_ranks("r", [5, 4, 5], 5)


def test_cross_ratio_is_mobius_invariant():
    u = (0.3, 1.1, -0.4, 2.0)
    a, b, c, d = 1.2, 0.3, -0.2, (1.0 + 0.3 * -0.2) / 1.2
    g = [(a * v + b) / (c * v + d) for v in u]
    assert checks.cross_ratio(*g) == pytest.approx(checks.cross_ratio(*u), rel=1e-12)


def test_tracer_self_times_add_up_and_wrappers_come_off():
    import spans
    from symfd import mesh, schemes
    from symfd.runner import exact_kdv_double_soliton

    x = np.linspace(-30.0, 30.0, 64)
    state = schemes.GridState(0.0, x, exact_kdv_double_soliton(0.0, x))
    original = schemes.equidistribute
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert schemes.equidistribute is not original
        assert mesh.equidistribute is schemes.equidistribute
        schemes.kdv_step_detailed(state, 1e-3, "adaptive", "10pt",
                                  monitor=mesh.MonitorParams(10.0))
    finally:
        tracer.uninstall()
    assert schemes.equidistribute is original
    sm = tracer.take()
    assert sm.calls("schemes.kdv_step_detailed") == 1
    assert sm.calls("mesh.equidistribute") == 1
    assert sm.calls("mesh.monitor_arclength") == 1
    assert sm.calls("schemes.kdv_residual_10pt") >= 7
    assert sm.extra("schemes.kdv_step_detailed") >= 1
    assert sm.gridstate_validations >= sm.calls("schemes.kdv_residual_10pt")
    layers = sum(sm.layer_self(lay) for lay in spans.LAYERS)
    assert layers == pytest.approx(sm.top_level_total(), rel=1e-9)
    assert sm.self_excluding("schemes.kdv_step_detailed", ["mesh"]) < sm.total(
        "schemes.kdv_step_detailed")
    assert tracer.take().calls("schemes.kdv_step_detailed") == 0
