"""Invariance audits: the row-batched audit against a per-trial reference.

``oracle_audit`` is the trial-by-trial loop the batched audit replaced: for
each element index and each configuration it draws an element, redraws at
once when ``draw_element`` would reject it, and evaluates the strong and
weak comparisons on single states.  The batched audit must reproduce its
report exactly.  A step of a transformed configuration that fails is an
infinite weak deviation, never a redraw: ``resampled`` counts only the
rejected element draws.
"""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symfd import runner, schemes
from symfd.cli import main as cli_main
from symfd.errors import ConfigError, MeshTangling, SchemeSingularity, SymfdError
from symfd.groups import (
    BurgersGroupElement,
    KdVGroupElement,
    SL2Element,
    apply_burgers,
    apply_kdv,
    apply_sl2,
)
from symfd.mesh import MonitorParams
from symfd.rng import DeterministicRng
from symfd.runner import AUDIT_SCHEMES, AuditReport, invariance_audit
from symfd.schemes import GridState


# ---------------------------------------------------------------------------
# the per-trial reference
# ---------------------------------------------------------------------------

class _Reject(Exception):
    pass


def _rel(a, b) -> float:
    a = np.atleast_1d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    scale = max(1.0, float(np.max(np.abs(a))), float(np.max(np.abs(b))))
    return float(np.max(np.abs(a - b))) / scale


# The reference draws its KdV, Burgers and affine elements on its own, so
# that it checks the audit's coordinate tables for ``runner._draw``.

def _draw_kdv(rng: DeterministicRng, direction: str) -> KdVGroupElement:
    if direction == "shift_x":
        return KdVGroupElement(1.0, 0.0, rng.uniform(-1.0, 1.0), 0.0)
    if direction == "shift_t":
        return KdVGroupElement(1.0, 0.0, 0.0, rng.uniform(-1.0, 1.0))
    if direction == "boost":
        return KdVGroupElement(1.0, rng.uniform(-1.0, 1.0), 0.0, 0.0)
    if direction == "scale":
        return KdVGroupElement(math.exp(rng.uniform(-0.6, 0.6)), 0.0, 0.0, 0.0)
    return KdVGroupElement(
        math.exp(rng.uniform(-0.6, 0.6)),
        rng.uniform(-1.0, 1.0),
        rng.uniform(-1.0, 1.0),
        rng.uniform(-1.0, 1.0),
    )


def _draw_burgers(rng: DeterministicRng, direction: str) -> BurgersGroupElement:
    if direction == "shift_x":
        return BurgersGroupElement(eps1=rng.uniform(-1.0, 1.0))
    if direction == "shift_t":
        return BurgersGroupElement(eps2=rng.uniform(-1.0, 1.0))
    if direction == "boost":
        return BurgersGroupElement(eps3=rng.uniform(-1.0, 1.0))
    if direction == "scale":
        return BurgersGroupElement(eps4=rng.uniform(-0.6, 0.6))
    return BurgersGroupElement(
        rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0),
        rng.uniform(-1.0, 1.0), rng.uniform(-0.6, 0.6),
    )


def _draw_affine5(rng: DeterministicRng, direction: str):
    """(lam, alpha, a, b, beta) for X = lam x + a, U = alpha u + beta x + b."""
    lam = alpha = 1.0
    a = b = beta = 0.0
    if direction in ("shift_x", "mixed"):
        a = rng.uniform(-1.0, 1.0)
    if direction in ("shift_u", "mixed"):
        b = rng.uniform(-1.0, 1.0)
    if direction in ("scale_x", "mixed"):
        lam = math.exp(rng.uniform(-0.7, 0.7))
    if direction in ("shear", "mixed"):
        beta = rng.uniform(-1.0, 1.0)
    if direction in ("scale_u", "mixed"):
        alpha = math.exp(rng.uniform(-0.7, 0.7))
    return (lam, alpha, a, b, beta)


def _kdv_state(g, s):
    return GridState(*apply_kdv(g, (s.t, s.x, s.u)))


def _burgers_state(g, s):
    return GridState(*apply_burgers(g, (s.t, s.x, s.u)))


def _schwarzian_trial(invariantized):
    res = (schemes.schwarzian_invariantized_residual if invariantized
           else schemes.schwarzian_invariant_residual)
    step = (schemes.schwarzian_invariantized_step if invariantized
            else schemes.schwarzian_step)

    def trial(g, config):
        u, h, f = config
        if any(abs(g.c * v + g.d) < 0.2 for v in u):
            raise _Reject
        gu = [apply_sl2(g, v) for v in u]
        if (min(abs(gu[m + 1] - gu[m]) for m in range(3)) < 1e-3
                or abs(gu[2] - gu[0]) < 1e-3 or abs(gu[3] - gu[1]) < 1e-3):
            raise _Reject
        strong = _rel(res(*u, h, f), res(*gu, h, f))
        w = step(*u[:3], h, f)
        if abs(g.c * w + g.d) < 0.2:
            raise _Reject
        gw = step(*gu[:3], h, f)
        return strong, _rel(apply_sl2(g, w), gw)

    return trial


def _kdv_trial(scheme):
    residual = schemes.kdv_residual_6pt if scheme == "6pt" else schemes.kdv_residual_10pt

    def trial(g, config):
        prev, nxt, k = config
        base = residual(prev, nxt, k) * schemes.kdv_invariant_normalizer(prev, k)
        gp, gn = _kdv_state(g, prev), _kdv_state(g, nxt)
        gk = gn.t - gp.t
        img = residual(gp, gn, gk) * schemes.kdv_invariant_normalizer(gp, gk)
        strong = _rel(base, img)
        stepped = schemes.kdv_step_detailed(prev, k, "lagrangian", scheme)[0]
        try:
            gstepped = schemes.kdv_step_detailed(gp, g.lam**3 * k, "lagrangian", scheme)[0]
        except SymfdError:
            return strong, math.inf
        img = _kdv_state(g, stepped)
        return strong, max(_rel(img.x, gstepped.x), _rel(img.u, gstepped.u))

    return trial


def _burgers_trial(g, config):
    prev, nxt, k, nu, alpha = config
    gp, gn = _burgers_state(g, prev), _burgers_state(g, nxt)
    strong = _rel(schemes.burgers_fv_residual(prev, nxt, k, nu),
                  schemes.burgers_fv_residual(gp, gn, gn.t - gp.t, nu))
    s = math.exp(g.eps4)
    monitor = MonitorParams(alpha)
    stepped = schemes.burgers_fv_step_detailed(prev, k, nu, monitor)[0]
    try:
        gstepped = schemes.burgers_fv_step_detailed(gp, s**2 * k, nu, monitor,
                                                    drift=g.eps3 / s)[0]
    except SymfdError:
        return strong, math.inf
    img = _burgers_state(g, stepped)
    return strong, max(_rel(img.x, gstepped.x), _rel(img.u, gstepped.u))


def _uxx_trial(g, config):
    lam, alpha, a, b, beta = g
    x, u, f = config
    gx, gu = lam * x + a, alpha * u + beta * x + b
    w = schemes.uxx_w_residual(gx[0], gx[1], gx[2], gu[0], gu[1], gu[2])
    scale = max(1.0, abs((gx[1] - gx[0]) * (gu[2] - gu[1])),
                abs((gx[2] - gx[1]) * (gu[1] - gu[0])))
    x_next, u_next = schemes.uxx_step(x[0], x[1], u[0], u[1], f)
    gx_next, gu_next = schemes.uxx_step(gx[0], gx[1], gu[0], gu[1], f)
    ix, iu = lam * np.array([x_next]) + a, alpha * np.array([u_next]) + beta * x_next + b
    return abs(w) / scale, max(_rel(ix, [gx_next]), _rel(iu, [gu_next]))


_ORACLES = {
    "schwarzian_invariant": (
        lambda: runner._SchwarzianAudit(schemes.schwarzian_invariant_residual,
                                        schemes.schwarzian_step),
        runner._draw_sl2, _schwarzian_trial(False)),
    "schwarzian_invariantized": (
        lambda: runner._SchwarzianAudit(schemes.schwarzian_invariantized_residual,
                                        schemes.schwarzian_invariantized_step),
        runner._draw_sl2, _schwarzian_trial(True)),
    "kdv_6pt": (lambda: runner._KdVAudit("6pt"), _draw_kdv, _kdv_trial("6pt")),
    "kdv_10pt": (lambda: runner._KdVAudit("10pt"), _draw_kdv, _kdv_trial("10pt")),
    "burgers_fv": (runner._BurgersAudit, _draw_burgers, _burgers_trial),
    "uxx": (runner._UxxAudit, _draw_affine5, _uxx_trial),
}


def _naive_oracle(n_elements, n_configs, seed, tol):
    rng = DeterministicRng(seed)
    worst_dev = worst_formula = 0.0
    for _ in range(n_configs):
        h = rng.uniform(0.1, 2.0)
        k = rng.uniform(0.01, 0.5)
        u0 = runner._random_u(rng, 9)
        u1 = runner._random_u(rng, 9)
        base = schemes.naive_kdv_residual(u0, u1, k, h)
        for _ in range(n_elements):
            v = rng.uniform(-1.0, 1.0)
            img = schemes.naive_kdv_residual(u0 + v, u1 + v, k, h)
            predicted = v * (np.roll(u0, -1) - np.roll(u0, 1)) / (2.0 * h)
            worst_dev = max(worst_dev, _rel(base, img))
            worst_formula = max(worst_formula, float(np.max(np.abs(img - base - predicted))))
    return AuditReport("kdv_naive", tol, n_elements, n_configs, worst_dev, 0.0,
                       {"boost": worst_dev}, 0, worst_dev > tol and worst_formula <= 1e-10,
                       expected_to_fail=True, formula_match_error=worst_formula)


def oracle_audit(scheme, n_elements, n_configs, seed, tol=1e-9) -> AuditReport:
    if scheme == "kdv_naive":
        return _naive_oracle(n_elements, n_configs, seed, tol)
    make, draw, trial = _ORACLES[scheme]
    audit = make()
    rng = DeterministicRng(seed)
    configs = [audit.draw_config(rng) for _ in range(n_configs)]
    per_direction = {d: 0.0 for d in audit.directions[:n_elements]}
    strong_max = weak_max = 0.0
    resampled = 0
    for e in range(n_elements):
        direction = audit.directions[e % len(audit.directions)]
        for config in configs:
            guard = 0
            while True:
                g = draw(rng, direction)
                try:
                    s_dev, w_dev = trial(g, config)
                    break
                except _Reject:
                    resampled += 1
                    guard += 1
                    if guard > 500:
                        raise ConfigError("audit sampling stuck on degenerate draws")
            per_direction[direction] = max(per_direction[direction], s_dev, w_dev)
            strong_max = max(strong_max, s_dev)
            weak_max = max(weak_max, w_dev)
    return AuditReport(scheme, tol, n_elements, n_configs, strong_max, weak_max,
                       per_direction, resampled, strong_max <= tol and weak_max <= tol)


def _fields(rep: AuditReport):
    """The report's figures, floats as repr, so equality is bit for bit."""
    return (repr(float(rep.strong_max)), repr(float(rep.weak_max)),
            sorted((d, repr(float(v))) for d, v in rep.per_direction.items()),
            rep.resampled, repr(float(rep.formula_match_error)), rep.passed)


# ---------------------------------------------------------------------------
# the batched audit equals the reference
# ---------------------------------------------------------------------------

@settings(max_examples=60)
@given(
    scheme=st.sampled_from(AUDIT_SCHEMES),
    seed=st.integers(0, 2**63),
    n_elements=st.integers(1, 12),
    n_configs=st.integers(1, 5),
)
def test_batched_audit_equals_per_trial_reference(scheme, seed, n_elements, n_configs):
    rep = invariance_audit(scheme, n_elements, n_configs, seed=seed)
    assert _fields(rep) == _fields(oracle_audit(scheme, n_elements, n_configs, seed))


_STEPS = {"kdv_6pt": "kdv_step_detailed", "kdv_10pt": "kdv_step_detailed",
          "burgers_fv": "burgers_fv_step_detailed"}


@pytest.mark.parametrize("scheme", list(_STEPS))
@pytest.mark.parametrize("exc", [MeshTangling, SchemeSingularity])
@pytest.mark.parametrize("row", [0, 1, -1])
def test_failing_image_step_fails_the_audit(monkeypatch, scheme, exc, row):
    n_elements, n_configs = 8, 4
    ref = invariance_audit(scheme, n_elements, n_configs, seed=3)
    real = getattr(schemes, _STEPS[scheme])
    forced = row % n_elements
    batches = []

    def failing(prev, k, *args, **kwargs):
        batches.append(np.shape(prev.x))
        # call 0 steps the configurations, call 1 + e the images of row e
        if len(batches) == 2 + forced:
            raise exc("forced")
        return real(prev, k, *args, **kwargs)

    monkeypatch.setattr(schemes, _STEPS[scheme], failing)
    rep = invariance_audit(scheme, n_elements, n_configs, seed=3)
    directions = list(ref.per_direction)
    hit = directions[forced % len(directions)]
    assert len(batches) == 1 + n_elements
    assert len(set(batches)) == 1 and batches[0][0] == n_configs
    assert rep.per_direction[hit] == math.inf
    assert rep.weak_max == math.inf
    others = {d: repr(v) for d, v in rep.per_direction.items() if d != hit}
    assert others == {d: repr(v) for d, v in ref.per_direction.items() if d != hit}
    assert repr(rep.strong_max) == repr(ref.strong_max)
    assert rep.resampled == ref.resampled
    assert not rep.passed
    assert rep.lines()[-1] == "  verdict: FAIL"


# each batched audit's step kernel, and the shape of its first argument's
# nodes on 5 configurations: a state's x, or the u_xx step's x_{i-1}
_BATCHED = {"kdv_6pt": ("kdv_step_detailed", (5, 9)), "kdv_10pt": ("kdv_step_detailed", (5, 9)),
            "burgers_fv": ("burgers_fv_step_detailed", (5, 8)), "uxx": ("uxx_step", (5,))}


@pytest.mark.parametrize("scheme", list(_BATCHED))
def test_audit_rows_reuse_the_per_config_terms(monkeypatch, scheme):
    calls = Counter()
    name, shape = _BATCHED[scheme]
    real = getattr(schemes, name)

    def counted(first, *args, **kwargs):
        calls[np.shape(getattr(first, "x", first))] += 1
        return real(first, *args, **kwargs)

    monkeypatch.setattr(schemes, name, counted)
    invariance_audit(scheme, 7, 5, seed=11)
    # one step of the 5 configs, then one batch of 5 trials per element row
    assert calls == {shape: 1 + 7}


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("scheme, name, make", [
    ("kdv_6pt", "kdv_step_detailed", lambda: runner._KdVAudit("6pt")),
    ("burgers_fv", "burgers_fv_step_detailed", runner._BurgersAudit),
])
@pytest.mark.parametrize("first_config_only", [False, True])
def test_nonfinite_deviation_fails_the_audit(monkeypatch, scheme, name, make, first_config_only):
    real = getattr(schemes, name)
    # config 0 is the first draw of the audit's generator
    k0 = make().draw_config(DeterministicRng(1))[2]

    def nan_step(prev, k, *args, **kwargs):
        s, info = real(prev, k, *args, **kwargs)
        hit = np.asarray(k) == k0 if first_config_only else True
        return GridState(s.t, s.x, np.where(hit, math.nan, s.u)), info

    monkeypatch.setattr(schemes, name, nan_step)
    rep = invariance_audit(scheme, 10, 4, seed=1)
    assert math.isnan(rep.weak_max)
    assert all(math.isnan(v) for v in rep.per_direction.values())
    assert not rep.passed
    assert rep.lines()[-1] == "  verdict: FAIL"


def test_audit_gives_up_on_a_trial_that_never_draws_admissibly(monkeypatch):
    # an element that collapses every stencil onto one value
    monkeypatch.setattr(runner, "_draw_sl2", lambda rng, direction: SL2Element(1e-8, 0.0, 0.0, 1e8))
    with pytest.raises(ConfigError, match="stuck"):
        invariance_audit("schwarzian_invariant", 2, 3, seed=5)


def test_audit_fails_when_every_image_step_degenerates(monkeypatch):
    real = schemes.kdv_step_detailed
    calls = []

    def first_call_only(prev, k, *args, **kwargs):
        calls.append(1)
        if len(calls) > 1:  # the configs' own step passes, no image step does
            raise MeshTangling("forced")
        return real(prev, k, *args, **kwargs)

    monkeypatch.setattr(schemes, "kdv_step_detailed", first_call_only)
    rep = invariance_audit("kdv_10pt", 2, 3, seed=5)
    assert len(calls) == 1 + 2  # the configs, then one batch per element row
    assert rep.weak_max == math.inf
    assert rep.per_direction == {"shift_x": math.inf, "shift_t": math.inf}
    assert rep.resampled == 0
    assert rep.lines()[-1] == "  verdict: FAIL"


@pytest.mark.parametrize("scheme", ["kdv_6pt", "burgers_fv"])
@pytest.mark.parametrize("exc", [MeshTangling, SchemeSingularity])
def test_failing_config_step_is_a_config_error(monkeypatch, capsys, scheme, exc):
    def failing(*args, **kwargs):
        raise exc("forced")

    monkeypatch.setattr(schemes, _STEPS[scheme], failing)
    with pytest.raises(ConfigError, match="own step fails: forced"):
        invariance_audit(scheme, 3, 2, seed=5)
    assert cli_main(["audit", "--scheme", scheme, "--trials", "3", "--configs", "2"]) == 2
    out = capsys.readouterr()
    assert "config error" in out.err
    assert "verdict" not in out.out


@pytest.mark.parametrize("n_elements, n_configs", [(10, 4), (3, 20), (7, 3)])
def test_naive_audit_applies_every_boost_to_every_config(monkeypatch, n_elements, n_configs):
    rows = []
    residual = schemes.naive_kdv_residual

    def counting(u0, u1, k, h):
        rows.append(np.atleast_2d(u0).shape[0])
        return residual(u0, u1, k, h)

    monkeypatch.setattr(schemes, "naive_kdv_residual", counting)
    rep = invariance_audit("kdv_naive", n_elements, n_configs, seed=5)
    # one base residual per config, then every boost on every config
    assert sum(rows) == n_configs + n_elements * n_configs
    assert len(rows) == 2 * n_configs
    assert f"{n_elements} elements x {n_configs} configs" in rep.lines()[0]


@pytest.mark.parametrize("scheme", AUDIT_SCHEMES)
@pytest.mark.parametrize("n_elements, n_configs", [(0, 5), (5, 0), (5, -2)])
def test_audit_without_trials_is_a_config_error(scheme, n_elements, n_configs):
    with pytest.raises(ConfigError):
        invariance_audit(scheme, n_elements, n_configs)


@pytest.mark.parametrize("scheme", ["kdv_naive", "burgers_fv"])
@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
def test_audit_tolerance_must_be_positive_and_finite(scheme, tol):
    # inf would pass every audit, and NaN or a nonpositive bound fail it
    with pytest.raises(ConfigError, match="audit tolerance must be positive and finite"):
        invariance_audit(scheme, 4, 2, tol=tol)


@pytest.mark.parametrize("tol", ["inf", "nan", "-1", "0"])
def test_cli_audit_with_a_meaningless_tolerance_exits_2(capsys, tol):
    assert cli_main(["audit", "--scheme", "uxx", "--trials", "4", "--tol", tol]) == 2
    out = capsys.readouterr()
    assert out.err.startswith("config error: audit tolerance must be positive and finite")
    assert "verdict" not in out.out


@pytest.mark.parametrize("flags", [["--trials", "0", "--configs", "5"],
                                   ["--trials", "4", "--configs", "-2"]])
def test_cli_audit_without_trials_exits_2(capsys, flags):
    assert cli_main(["audit", "--scheme", "kdv_10pt", *flags]) == 2
    out = capsys.readouterr()
    assert "config error" in out.err
    assert "verdict" not in out.out
