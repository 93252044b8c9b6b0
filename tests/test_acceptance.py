"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one `ACCEPTANCE n PASS` line on success (pytest itself
prints the FAILED line otherwise), so `pytest -v tests/test_acceptance.py`
yields a per-criterion pass/fail listing.
"""

import json
import math
import time

import numpy as np
import pytest

from ddeosc import (
    EULER_LOWER,
    EULER_UPPER,
    INV_E,
    HistoryFunction,
    SimulationConfig,
    SolutionClassification,
    TowerOutcome,
    VerdictOutcome,
    audit_sign_bound,
    classify,
    integrate,
    lambert_w0,
    make_discrete_delay,
    random_history,
    tetration_proof_trace,
    theorem_verdict,
    tower_limit,
    tower_limit_via_lambert,
)
from ddeosc.specfile import KERNEL_CATALOG

from _cli import run_cli
from _oracles import characteristic_root


def _ok(capsys, n, message):
    with capsys.disabled():
        print(f"ACCEPTANCE {n} PASS: {message}")


def test_criterion_1_lambert_identity_suite(capsys):
    start = time.perf_counter()
    offsets = np.geomspace(1e-9, 1e3 + 1.0 / math.e, 1000)
    worst = 0.0
    for off in offsets:
        x = -1.0 / math.e + float(off)
        w = lambert_w0(x)
        err = abs(w * math.exp(w) - x) / max(1.0, abs(x))
        worst = max(worst, err)
        assert err <= 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _ok(capsys, 1, f"1000 log-spaced points, worst identity error {worst:.2e}, {elapsed:.3f}s")


def test_criterion_2_euler_interval_boundary(capsys):
    start = time.perf_counter()
    inside = np.linspace(EULER_LOWER + 1e-3, EULER_UPPER - 1e-3, 200)
    worst_fp = 0.0
    worst_agree = 0.0
    for base in inside:
        base = float(base)
        res = tower_limit(base, tol=1e-12, max_iter=30_000)
        assert res.outcome is TowerOutcome.CONVERGED, f"no convergence at base {base}"
        y = res.limit
        fp_err = abs(y - base ** y)
        agree = abs(y - tower_limit_via_lambert(base))
        worst_fp = max(worst_fp, fp_err)
        worst_agree = max(worst_agree, agree)
        assert fp_err <= 1e-9
        assert agree <= 1e-9
    for base in np.linspace(EULER_UPPER + 1e-3, 3.0, 50):
        assert tower_limit(float(base)).outcome is TowerOutcome.DIVERGED
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _ok(
        capsys,
        2,
        f"200 interior bases converge (worst residual {worst_fp:.2e}, worst closed-form gap "
        f"{worst_agree:.2e}); 50 exterior bases diverge; {elapsed:.2f}s",
    )


def test_criterion_3_threshold_three_way_agreement(capsys):
    for k in range(1, 501):
        w = 2.0 * k / 500.0
        trace = tetration_proof_trace(w)  # raises on any route disagreement
        tower_diverged = trace.tower_result.outcome is TowerOutcome.DIVERGED
        assert trace.tower_result.outcome is not TowerOutcome.MAX_ITER_REACHED
        assert tower_diverged == (math.exp(w) > EULER_UPPER) == (w > INV_E)
    assert theorem_verdict(INV_E).outcome is VerdictOutcome.INCONCLUSIVE
    assert theorem_verdict(INV_E + 1e-12).outcome is VerdictOutcome.GUARANTEED
    _ok(capsys, 3, "500 rates agree three ways; verdict flips exactly above 1/e")


def test_criterion_4_classical_sanity_case(capsys):
    # p*tau = 1: every seeded history oscillates
    op = make_discrete_delay([(1.0, 1.0)])
    config = SimulationConfig(t_end=60.0, step=0.01)
    for seed in range(20):
        hist = random_history(seed, -1.000001)
        cls = classify(integrate(op, hist, config))
        assert cls.classification is SolutionClassification.OSCILLATORY, f"seed {seed}"

    # p*tau = 0.1 with the reproducing exponential history decays monotonically
    lam = characteristic_root(0.1, 1.0)
    op_small = make_discrete_delay([(0.1, 1.0)])
    traj = integrate(op_small, HistoryFunction.exponential(lam, -1.000001), SimulationConfig(t_end=200.0, step=0.01))
    cls = classify(traj)
    assert cls.classification is SolutionClassification.MONOTONE_TO_ZERO
    k20 = int(round(20.0 / 0.01))
    exact = math.exp(lam * traj.times[k20])
    rel = abs(traj.values[k20] - exact) / exact
    assert rel <= 1e-4
    _ok(capsys, 4, f"20/20 oscillatory at p*tau=1; exponential case monotone-to-zero, rel err {rel:.2e} at t=20")


def test_criterion_5_rk4_order_check(capsys):
    lam = characteristic_root(0.1, 1.0)
    op = make_discrete_delay([(0.1, 1.0)])
    hist = HistoryFunction.exponential(lam, -1.000001)
    errs = {}
    for h in (0.02, 0.01):
        traj = integrate(op, hist, SimulationConfig(t_end=20.0, step=h))
        errs[h] = float(np.max(np.abs(traj.values - np.exp(lam * traj.times))))
    ratio = errs[0.02] / errs[0.01]
    assert ratio >= 12.0
    _ok(capsys, 5, f"halving 0.02 -> 0.01 shrinks max error by {ratio:.1f}x ({errs[0.02]:.2e} -> {errs[0.01]:.2e})")


def test_criterion_6_application_reproductions(tmp_path, capsys):
    start = time.perf_counter()

    # scenario 2: w = e(e-1), verdict guaranteed, concordant ensemble
    out2 = tmp_path / "rep2"
    rep2 = run_cli("reproduce", "--app", 2, "--out", out2, "--seed", 0, "--n-histories", 10)
    assert rep2.exit_code == 0
    bundle2 = out2 / "app2_a1=1_a2=1_a3=1"
    report2 = json.loads((bundle2 / "report.json").read_text())
    assert report2["w_hat"] == pytest.approx(math.e * (math.e - 1.0), abs=1e-6)
    assert report2["verdict"] == "guaranteed"
    conc2 = json.loads((bundle2 / "concordance.json").read_text())
    assert len(conc2["classes"]) == 10
    assert set(conc2["classes"]) <= {"oscillatory", "monotone_to_zero"}

    # scenario 1: defaults run q = 10 and q = 20; discrepancy banner printed
    out1 = tmp_path / "rep1"
    rep1 = run_cli("reproduce", "--app", 1, "--out", out1, "--seed", 0, "--n-histories", 10)
    assert rep1.exit_code == 0
    report_q10 = json.loads((out1 / "app1_q=10" / "report.json").read_text())
    report_q20 = json.loads((out1 / "app1_q=20" / "report.json").read_text())
    assert report_q10["w_hat"] == pytest.approx(0.6, abs=1e-9)
    assert report_q10["verdict"] == "guaranteed"
    assert report_q20["w_hat"] == pytest.approx(0.3, abs=1e-9)
    assert report_q20["verdict"] == "inconclusive"

    # scenario 3 with (a, b, m, l) = (3, 0.1, 1, 2): derived bound gives w = 1.5
    out3 = tmp_path / "rep3"
    rep3 = run_cli("reproduce", "--app", 3, "--set", "a=3.0", "--set", "b=0.1", "--set", "m=1.0", "--set", "l=2",
                   "--out", out3, "--seed", 0, "--n-histories", 10)
    assert rep3.exit_code == 0
    report3 = json.loads((out3 / "app3_a=3_b=0.1_m=1_l=2" / "report.json").read_text())
    assert report3["w_hat"] == pytest.approx(1.5, abs=1e-6)
    assert report3["verdict"] == "guaranteed"

    stdout = rep2.stdout + rep1.stdout + rep3.stdout
    assert "discrepancy" in stdout

    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _ok(
        capsys,
        6,
        f"scenario 2 w={report2['w_hat']:.9f} concordant; scenario 1 verdicts split at q=6e with banner; "
        f"scenario 3 w=1.5; total {elapsed:.1f}s",
    )


def test_criterion_7_amnesia_property(capsys):
    rng = np.random.default_rng(202406)
    checked = 0

    def perturbed_pair(op, t, pad=2.0):
        lo = op.sigma(t) - pad
        base = random_history(int(rng.integers(0, 2 ** 31)), lo, t, amplitude=0.4)
        tau = op.tau(t)
        sigma = op.sigma(t)

        def bump(s):
            # supported strictly outside [sigma(t), tau(t)]: after tau and before sigma
            if tau + 0.1 * (t - tau) < s <= t:
                return 0.7 * math.sin((s - tau) * 2.0) ** 2
            if lo <= s < sigma - 0.05 * pad:
                return 0.5
            return 0.0

        return base, HistoryFunction(lambda s: base(s) + bump(s), lo, t)

    # 30 random discrete operators
    for _ in range(30):
        n_terms = int(rng.integers(1, 4))
        terms = [(float(rng.uniform(-2, 2)), float(rng.uniform(0.5, 4.0))) for _ in range(n_terms)]
        op = make_discrete_delay(terms)
        t = float(rng.uniform(8.0, 30.0))
        a, b = perturbed_pair(op, t)
        assert abs(op.evaluate(t, a) - op.evaluate(t, b)) <= 1e-12
        checked += 1

    # 20 distributed operators from the catalog with varied parameters
    for k in range(20):
        if k % 2:
            op = KERNEL_CATALOG["app2"].build({"a2": 1.0 + 0.1 * k, "a3": 1.0 + 0.05 * k})
        else:
            op = KERNEL_CATALOG["app3"].build({"l": 2 + (k % 4 // 2)})
        t = float(rng.uniform(15.0, 30.0))
        a, b = perturbed_pair(op, t)
        assert abs(op.evaluate(t, a) - op.evaluate(t, b)) <= 1e-9
        checked += 1

    assert checked == 50
    _ok(capsys, 7, "50 operator/history pairs ignore perturbations outside [sigma(t), tau(t)]")


def test_criterion_8_sign_bound_audit(capsys):
    op = make_discrete_delay([(lambda t: 1.0 / t, 6.0), (lambda t: (t - 1.0) / t, 8.0)])
    report = audit_sign_bound(op, t_samples=np.linspace(9.0, 99.0, 25), trials=20, seed=7)
    assert report.checked == 1000
    assert report.satisfied == 1000
    assert not report.violations
    assert report.worst_margin >= 0.0

    flipped = make_discrete_delay([(-1.0, 1.0)], bound_b=lambda t: 1.0)
    bad = audit_sign_bound(
        flipped,
        t_samples=[5.0],
        trials=1,
        history_factory=lambda t, k: HistoryFunction.constant(1.0, t - 2.0, t),
    )
    assert len(bad.violations) >= 1
    _ok(
        capsys,
        8,
        f"positive linear operator: 1000/1000 pairs clean (worst margin {report.worst_margin:.3g}); "
        f"sign-flipped counterexample reports {len(bad.violations)} violations",
    )
