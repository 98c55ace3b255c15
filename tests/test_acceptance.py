"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside pytest's own verdicts.

Deliberately not covered here because the underlying inputs are not
reproducible at desk scale: refitting the published coefficient tables from
raw experiment logs (not released), the reported ~8% small-model planning
gain (per-model base performances unpublished), and any actual model
compression or recovery fine-tuning.  The property-based and fixture-based
criteria below stand in for those.
"""

import json
import math
import time

import numpy as np
import pytest

from compresslaw.cli import run
from compresslaw.documents import builtin_registry, report_from_json, report_to_json, save_law
from compresslaw.io import build_fit_report, read_records, write_records
from compresslaw.laws import CompressionLaw, MetricKind, RuntimeLaw, check_feasibility, evaluate
from compresslaw.planner import predict_speedup
from compresslaw.recovery import (
    RecoveryQuery,
    Regime,
    classify_regime,
    critical_ratio,
    min_rft_size,
    recoverable,
)
from compresslaw.regression import DesignForm, fit_law
from compresslaw.synth import SyntheticConfig, generate

INTRINSIC = CompressionLaw(0.63, 1.72, 1.16, MetricKind.LOSS)
EXTRINSIC = CompressionLaw(0.98, -1.03, -0.14, MetricKind.ACCURACY)

NOISY_GRID = dict(
    l0_values=(1.2, 2.0, 3.3, 5.0, 8.0),
    r_values=(0.1, 0.3, 0.5, 0.7, 0.9),
    d_values=(0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 25.0, 50.0, 100.0, 250.0,
              500.0, 1000.0, 2500.0, 5000.0, 10000.0, 25000.0, 50000.0, 1e5, 5e5, 1e6),
)


def _passed(criterion: str, detail: str) -> None:
    print(f"\nACCEPTANCE criterion {criterion}: PASS ({detail})")


def test_criterion_1_worked_example_via_cli(capsys):
    start = time.perf_counter()
    code = run(["critical", "--beta", "-1.18", "--sigma", "0.8", "--metric", "accuracy"])
    out = capsys.readouterr().out
    elapsed = time.perf_counter() - start
    assert code == 0
    doc = json.loads(out)
    assert doc["r_critical"] == pytest.approx(0.208, abs=0.002)
    assert doc["boundary"] == pytest.approx(0.441, abs=0.002)
    assert elapsed < 1.0
    with capsys.disabled():
        _passed("1", f"r_critical={doc['r_critical']:.4f}, boundary={doc['boundary']:.4f}, {elapsed*1e3:.0f} ms")


def test_criterion_2_speedup_range_endpoints():
    start = time.perf_counter()
    law = RuntimeLaw(c=1.0, beta=-0.67)
    at_half = predict_speedup(law, 0.5)
    at_ninety = predict_speedup(law, 0.9)
    elapsed = time.perf_counter() - start
    assert at_half == pytest.approx(0.238, abs=0.005)
    assert at_ninety == pytest.approx(0.349, abs=0.005)
    assert elapsed < 1.0
    _passed("2", f"speedup(0.5)={at_half:.4f}, speedup(0.9)={at_ninety:.4f}")


def test_criterion_3_fit_recovery_oracle():
    start = time.perf_counter()

    noiseless = SyntheticConfig(
        truth=INTRINSIC,
        l0_values=NOISY_GRID["l0_values"],
        r_values=NOISY_GRID["r_values"],
        d_values=(0.0, 1.0, 4.0, 25.0, 100.0, 1000.0, 10000.0, 25000.0),
    )
    records = generate(noiseless)
    assert len(records) == 200
    law = fit_law(records)
    for name, truth in (("alpha", 0.63), ("beta", 1.72), ("gamma", 1.16)):
        assert getattr(law, name) == pytest.approx(truth, abs=1e-8)

    successes = 0
    for seed in range(20):
        config = SyntheticConfig(truth=INTRINSIC, noise_std=0.05, seed=seed, **NOISY_GRID)
        noisy_records = generate(config)
        assert len(noisy_records) == 500
        fitted = fit_law(noisy_records)
        if all(
            abs(getattr(fitted, name) - truth) <= 0.05
            for name, truth in (("alpha", 0.63), ("beta", 1.72), ("gamma", 1.16))
        ):
            successes += 1
    elapsed = time.perf_counter() - start
    assert successes >= 19
    assert elapsed < 5.0
    _passed("3", f"noiseless within 1e-8; noisy {successes}/20 within 0.05; {elapsed:.2f} s")


def _scan_and_compare(law, sigma, r, d_grid):
    """Brute-force oracle: first grid point passing the direct inequality."""
    ratio = np.exp(law.beta * np.log1p(r) + law.gamma * np.log1p(1.0 / (d_grid + law.epsilon)))
    ok = ratio >= sigma if law.metric is MetricKind.ACCURACY else ratio <= sigma
    hits = np.nonzero(ok)[0]
    d_oracle = None if len(hits) == 0 else float(d_grid[hits[0]])

    d_min = min_rft_size(RecoveryQuery(law, sigma, r))
    if d_min > 100.0:
        assert d_oracle is None, (law, sigma, r, d_min, d_oracle)
    else:
        assert d_oracle is not None, (law, sigma, r, d_min)
        assert -1e-6 <= d_oracle - d_min <= 1e-3 + 1e-6, (law, sigma, r, d_min, d_oracle)
    if math.isfinite(d_min):
        assert recoverable(law, sigma, r, d_min)
        if d_min > 0.0:
            assert not recoverable(law, sigma, r, d_min - min(d_min, 0.01))


def test_criterion_4_theorem_vs_bruteforce():
    start = time.perf_counter()
    d_grid = np.arange(0.0, 100.0 + 1e-3, 1e-3)

    rng = np.random.default_rng(2024)
    for _ in range(100):
        law = CompressionLaw(1.0, rng.uniform(-3, -0.05), rng.uniform(-3, -0.05), MetricKind.ACCURACY)
        _scan_and_compare(law, rng.uniform(0.05, 0.95), rng.uniform(0.01, 0.95), d_grid)

    rng = np.random.default_rng(2025)
    for _ in range(100):
        law = CompressionLaw(1.0, rng.uniform(0.05, 3.0), rng.uniform(0.05, 3.0), MetricKind.LOSS)
        _scan_and_compare(law, rng.uniform(1.05, 6.0), rng.uniform(0.01, 0.95), d_grid)

    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _passed("4", f"100 accuracy + 100 loss draws agree with the 1e-3 grid scan; {elapsed:.2f} s")


def test_criterion_5_regime_dichotomy():
    start = time.perf_counter()
    for metric, seed in ((MetricKind.ACCURACY, 7), (MetricKind.LOSS, 8)):
        rng = np.random.default_rng(seed)
        always = conditional = 0
        for _ in range(200):
            if metric is MetricKind.ACCURACY:
                beta, gamma = rng.uniform(-3, -0.05, 2)
                sigma = rng.uniform(0.05, 0.95)
            else:
                beta, gamma = rng.uniform(0.05, 3.0, 2)
                sigma = rng.uniform(1.05, 6.0)
            law = CompressionLaw(1.0, beta, gamma, metric)
            regime, _ = classify_regime(beta, sigma, metric)
            if regime is Regime.ALWAYS_RECOVERABLE:
                always += 1
                for r in rng.uniform(0.01, 0.99, 4):
                    assert math.isfinite(min_rft_size(RecoveryQuery(law, sigma, r)))
            else:
                conditional += 1
                r_crit = critical_ratio(beta, sigma, metric)
                assert 0.0 < r_crit <= 1.0
                for r in rng.uniform(0.01, 0.99, 6):
                    d_min = min_rft_size(RecoveryQuery(law, sigma, r))
                    assert math.isfinite(d_min) == (r < r_crit)
        assert always > 0 and conditional > 0
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _passed("5", f"200 draws per metric variant; both regimes exercised; {elapsed:.2f} s")


def test_criterion_6_law_evaluation_invariants():
    start = time.perf_counter()

    rng = np.random.default_rng(99)
    for _ in range(200):
        k = rng.uniform(0.01, 100.0)
        l0 = rng.uniform(0.05, 50.0)
        r = rng.uniform(0.0, 0.99)
        d = rng.uniform(0.0, 1e6)
        lhs = evaluate(INTRINSIC, k * l0, r, d)
        rhs = k**INTRINSIC.alpha * evaluate(INTRINSIC, l0, r, d)
        assert abs(lhs - rhs) <= 1e-9 * abs(rhs)

    rs = np.linspace(0.0, 0.99, 50)
    ds = np.linspace(0.0, 5e4, 50)
    for law, l0, increasing_in_r in ((INTRINSIC, 2.0, True), (EXTRINSIC, 0.6, False)):
        for d in ds:
            along_r = [evaluate(law, l0, r, d) for r in rs]
            diffs = np.diff(along_r)
            assert (diffs > 0).all() if increasing_in_r else (diffs < 0).all()
        for r in rs:
            along_d = [evaluate(law, l0, r, d) for d in ds]
            diffs = np.diff(along_d)
            assert (diffs < 0).all() if increasing_in_r else (diffs > 0).all()

    for law, l0 in ((INTRINSIC, 2.0), (EXTRINSIC, 0.6)):
        assert evaluate(law, l0, 0.0, 1e12) == pytest.approx(l0**law.alpha, rel=1e-6)

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _passed("6", f"homogeneity 1e-9, 50x50 monotonicity, boundary 1e-6; {elapsed:.2f} s")


def test_criterion_7_io_round_trips_and_fixture_registry(tmp_path):
    start = time.perf_counter()

    config = SyntheticConfig(
        truth=EXTRINSIC,
        l0_values=(0.4, 0.55, 0.7),
        r_values=(0.1, 0.5, 0.9),
        d_values=(0.0, 25.0, 1000.0),
        noise_std=0.05,
        seed=3,
    )
    records = generate(config)
    csv_path = tmp_path / "records.csv"
    write_records(records, csv_path)
    assert read_records(csv_path) == records

    report = build_fit_report(records, form=DesignForm.FULL)
    assert report_from_json(report_to_json(report)) == report

    registry = builtin_registry()
    by_table = {}
    for entry in registry:
        by_table[entry.provenance.split(":")[0]] = by_table.get(entry.provenance.split(":")[0], 0) + 1
    assert by_table["table1"] == 6
    assert by_table["table2"] == 16
    assert by_table["table3"] == 4
    assert by_table["table4"] == 9
    assert by_table["table5"] == 8

    fitted_exponents = {
        DesignForm.FULL: ("beta", "gamma"),
        DesignForm.RATIO_ONLY: ("beta",),
        DesignForm.DATA_ONLY: ("gamma",),
        DesignForm.RUNTIME: (),
    }
    for entry in registry:
        if isinstance(entry.law, RuntimeLaw):
            assert entry.law.c > 0.0 and math.isfinite(entry.law.beta)
            continue
        relevant = [v for v in check_feasibility(entry.law) if v.exponent in fitted_exponents[entry.form]]
        assert relevant == [], f"{entry.key} violates its reported signs: {relevant}"

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _passed("7", f"CSV/JSON round trips exact; {len(registry)} fixture laws feasible; {elapsed:.2f} s")


def test_criterion_8_abstract_headline_claims_via_cli(tmp_path, capsys):
    """The abstract's headline claims, derived through the CLI from the bundled Table 1 calibration-free laws: RFT
    improves test loss by up to 55%, and loss rises quadratically while accuracy falls linearly with the ratio."""
    start = time.perf_counter()
    table1 = {entry.metric: entry.law for entry in builtin_registry()
              if entry.provenance.startswith("table1:") and entry.method_tag == "calibration-free"}
    assert set(table1) == {MetricKind.LOSS, MetricKind.ACCURACY}
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"l0_values": [0.5, 2.0, 4.0], "r_values": [0.1, 0.5, 0.9], "d_values": [0, 10, 1000]}))

    def cli(*argv):
        assert run([str(arg) for arg in argv]) == 0
        return capsys.readouterr().out

    betas = {}
    for metric, law in table1.items():
        # noiseless synth -> fit; every prediction below reads the law from the fit report
        law_path, records, report = (tmp_path / f"{metric.value}{ext}" for ext in (".json", ".csv", "-report.json"))
        save_law(law, law_path)
        cli("synth", "--truth", law_path, "--grid", grid, "--seed", 0, "--out", records)
        report.write_text(cli("fit", "--input", records))

        def predict(r, d):
            return json.loads(cli("predict", "--law", report, "--l0", 2.0, "--r", r, "--d", d))["prediction"]

        # at any d, L(r) / L(0) = (1 + r)^beta
        betas[metric] = math.log(predict(0.5, 0.0) / predict(0.0, 0.0)) / math.log(1.5)
        if metric is MetricKind.LOSS:
            # the RFT factor (1 + 1/(d + 1))^gamma falls from 2^gamma at d = 0 to 1 as d grows
            improvement = 1.0 - predict(0.5, 1e15) / predict(0.5, 0.0)
    elapsed = time.perf_counter() - start

    assert improvement == pytest.approx(1.0 - 2.0**-1.16, abs=1e-8)
    assert round(improvement, 2) == 0.55  # 1 - 2^-1.16 = 0.5525: "up to 55%"
    assert betas[MetricKind.LOSS] == pytest.approx(1.72, abs=1e-8) and round(betas[MetricKind.LOSS]) == 2
    assert betas[MetricKind.ACCURACY] == pytest.approx(-1.03, abs=1e-8) and round(betas[MetricKind.ACCURACY]) == -1
    assert elapsed < 5.0
    with capsys.disabled():
        _passed("8", f"RFT loss improvement {improvement:.4f}; beta_loss={betas[MetricKind.LOSS]:.2f} (quadratic), "
                     f"beta_acc={betas[MetricKind.ACCURACY]:.2f} (linear); {elapsed:.2f} s")
