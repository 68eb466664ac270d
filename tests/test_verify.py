import numpy as np
import pytest

from dodiff.verify import (
    SUITES,
    divided_differences,
    run_bound_suite,
    run_decay_suite,
    run_h2_suite,
    run_smoothness_probe,
    run_stability_suite,
)


@pytest.fixture(scope="module")
def decay_report():
    return run_decay_suite()


@pytest.fixture(scope="module")
def bound_report():
    return run_bound_suite()


class TestDecaySuite:
    def test_passes(self, decay_report):
        assert decay_report.passed

    def test_fit_sanity_row(self, decay_report):
        row = next(r for r in decay_report.rows if r.case == "fit-sanity-power-law")
        assert abs(row.value) <= 1e-6

    def test_one_sided_rows_present(self, decay_report):
        cases = {r.case for r in decay_report.rows}
        assert {"smooth-data-graph-norm", "smooth-data-dt-norm",
                "half-smooth-graph-norm"} <= cases

    def test_rows_carry_tolerances(self, decay_report):
        assert all(r.tolerance for r in decay_report.rows)


class TestH2Suite:
    def test_passes(self):
        rep = run_h2_suite()
        assert rep.passed
        band = next(r for r in rep.rows if r.case == "family-ratio-band")
        assert band.value < 10.0

    def test_factorization_consistency(self):
        rep = run_h2_suite()
        row = next(r for r in rep.rows if r.case == "factorization-consistency")
        assert row.value <= 1e-10


class TestStabilitySuite:
    def test_passes(self):
        rep = run_stability_suite()
        assert rep.passed

    def test_ratio_drift_rows(self):
        rep = run_stability_suite()
        for name in ("density", "diffusion", "potential", "joint"):
            row = next(r for r in rep.rows if r.case == f"{name}-ratio-drift")
            assert row.value < 2.0


class TestBoundSuite:
    def test_zero_violations(self, bound_report):
        assert bound_report.passed
        for r in bound_report.rows:
            if r.case.startswith("symbol-"):
                assert r.value >= 0.0

    def test_tail_band(self, bound_report):
        row = next(r for r in bound_report.rows if r.case == "tail-bound-band")
        assert row.value < 10.0


class TestSmoothnessProbe:
    def test_passes(self):
        rep = run_smoothness_probe()
        assert rep.passed

    def test_designed_failure_detected(self):
        rep = run_smoothness_probe()
        row = next(r for r in rep.rows if r.case == "step-path-flagged")
        assert row.value > 100.0

    def test_divided_difference_exactness(self):
        # divided differences of a cubic: order 3 equals the leading
        # coefficient, order 4 vanishes
        ts = np.linspace(0.0, 2.0, 9)
        vals = (2.0 * ts ** 3 - ts + 1.0)[:, None]
        d = divided_differences(ts, vals, 4)
        assert d[2] == pytest.approx(2.0, rel=1e-10)
        assert d[3] <= 1e-10


class TestHarness:
    def test_reports_reproducible(self):
        a = run_decay_suite()
        b = run_decay_suite()
        assert a.csv_rows() == b.csv_rows()
        c = run_bound_suite()
        d = run_bound_suite()
        assert c.csv_rows() == d.csv_rows()

    def test_summary_format(self, decay_report):
        text = decay_report.summary_text()
        assert text.startswith("experiment: decay")
        assert "overall: PASS" in text
        assert all(("[PASS]" in line or "[FAIL]" in line)
                   for line in text.splitlines()
                   if line.startswith("["))

    def test_run_suites_all(self):
        assert set(SUITES) == {"decay", "h2", "stability", "bounds", "smoothness"}
        for name, run in SUITES.items():
            assert callable(run)
            if name == "smoothness":
                assert run().experiment == name
