"""Tests for the closed-form identity checks."""

import math
from fractions import Fraction

import numpy as np
import pytest

from homoeoid import geometry, identities
from homoeoid.mc import derive_stream, rng_stream

from helpers import fd_jacobian

ISOTROPIC_DETS = {
    2: 1.0,
    3: 0.7698003589195010,
    4: 0.5,
    5: 0.28621670111997305,
    6: 0.14814814814814814,
    7: 0.07052398330201325,
    8: 0.03125,
}


class TestRelResidual:
    def test_absolute_regime(self):
        assert identities.rel_residual(0.25, 0.5) == 0.25

    def test_relative_regime(self):
        assert identities.rel_residual(100.0, 101.0) == pytest.approx(1.0 / 101.0)

    def test_elementwise(self):
        out = identities.rel_residual(np.array([0.0, 10.0]), np.array([1.0, 10.0]))
        np.testing.assert_allclose(out, [1.0, 0.0])


class TestCirculantDeterminant:
    def test_two_by_two_closed_form(self):
        # a^2 - 1 = (a - 1)(a + 1)
        assert identities.circulant_closed_form(2.0, 2) == 3.0
        assert np.linalg.det(np.array([[2.0, 1.0], [1.0, 2.0]])) == pytest.approx(3.0)

    def test_three_by_three_value(self):
        assert identities.circulant_closed_form(2.0, 3) == 4.0

    def test_large_dimension_seeded(self):
        report = identities.identity_suite(8, trials=100, seed=0)[0]
        assert report.name == "circulant_determinant"
        assert report.trials == 100
        assert report.max_relative_residual < 1e-9

    def test_explicit_samples(self):
        for a in (2.0, -1.0, 0.5):
            mat = np.full((3, 3), 1.0) + (a - 1.0) * np.eye(3)
            assert identities.rel_residual(np.linalg.det(mat), identities.circulant_closed_form(a, 3)) < 1e-12

    def test_rejects_tiny_dimension(self):
        with pytest.raises(ValueError):
            identities.identity_suite(1)

    def test_exact_determinant_with_integer_pivots(self):
        # a = 0 swaps an all-ones row (plain ints) into the pivot slot
        mats = np.ones((1, 3, 3), dtype=object)
        mats[0, np.arange(3), np.arange(3)] = Fraction(0)
        det = identities._det(mats)[0]
        assert isinstance(det, Fraction)
        assert det == identities.circulant_closed_form(Fraction(0), 3) == 2


class TestContactJacobian:
    def test_exact_jacobian_matches_independent_fd(self):
        rng = rng_stream(0, derive_stream("test-contact-fd"))
        for _ in range(25):
            n = int(rng.integers(2, 7))
            r = rng.uniform(0.8, 2.2, n)
            fd = fd_jacobian(geometry.contact_point, r, 1e-6)
            np.testing.assert_allclose(identities.contact_point_jacobian(r), fd, atol=5e-9)

    def test_variant_diagonal_agrees_only_isotropically(self):
        iso = np.full(4, 1.3)
        np.testing.assert_allclose(
            identities._variant_diagonal_jacobian(iso),
            identities.contact_point_jacobian(iso),
            atol=1e-14,
        )
        generic = np.array([1.0, 1.4, 1.8, 1.2])
        gap = np.max(
            np.abs(identities._variant_diagonal_jacobian(generic) - identities.contact_point_jacobian(generic))
        )
        assert gap > 0.01

    def test_report_passes_at_one_part_per_million(self):
        report = identities.contact_jacobian_check()
        assert report.threshold == 1e-6
        assert report.max_relative_residual < report.threshold, report.worst_case_input

    def test_isotropic_determinants(self):
        report = identities.contact_jacobian_check()
        for n, expected in ISOTROPIC_DETS.items():
            dd = report.details[n]
            assert dd["isotropic_measured"] == pytest.approx(expected, abs=1e-6)
            assert dd["isotropic_closed_form"] == pytest.approx(expected, rel=1e-12)
            assert dd["isotropic_spread"] < 1e-6
            assert abs(dd["det_at_three_halves"]) > 0.01

    def test_alternate_form_discrepancy_is_recorded(self):
        # the alternate closed form exceeds the measurement by n**(3(n-1)/2)
        report = identities.contact_jacobian_check()
        for n in (2, 3, 4):
            assert report.details[n]["alternate_ratio"] == pytest.approx(n ** (1.5 * (n - 1)), rel=1e-6)
        assert report.details[2]["alternate_closed_form"] == pytest.approx(2 * math.sqrt(2), rel=1e-12)

    def test_variant_gap_large_at_generic_radii(self):
        report = identities.contact_jacobian_check()
        assert all(report.details[n]["variant_diagonal_max_gap"] > 0.01 for n in report.details)


class TestIdentitySuite:
    def test_all_families_pass_across_dimensions(self):
        for n in range(2, 9):
            for report in identities.identity_suite(n, trials=300, seed=11):
                assert report.max_relative_residual < 1e-9, (n, report.name, report.worst_case_input)

    def test_family_names(self):
        names = [r.name for r in identities.identity_suite(3, trials=5, seed=0)]
        assert names == [
            "circulant_determinant",
            "minor_syzygy",
            "minor_derivatives",
            "schur_complement",
            "axis_determinant",
            "jacobian_factorisation",
        ]

    def test_syzygy_vacuous_in_dimension_two(self):
        report = identities.identity_suite(2, trials=5, seed=0)[1]
        assert report.name == "minor_syzygy"
        assert report.max_relative_residual == 0.0
        assert report.details == {"pairs": 0}

    def test_schur_split(self):
        report = identities.identity_suite(8, trials=5, seed=0)[3]
        assert report.details["split"] == (3, 5)

    def test_rational_mode_exactly_zero(self):
        for n in (2, 3, 4):
            for report in identities.identity_suite(n, trials=25, seed=7, rational=True):
                assert report.max_relative_residual == 0.0, (n, report.name)
                assert report.details == {"mode": "rational"}

    def test_rational_mode_dimension_cap(self):
        with pytest.raises(ValueError):
            identities.identity_suite(5, trials=5, rational=True)

    def test_validation(self):
        with pytest.raises(ValueError):
            identities.identity_suite(1, trials=5)
        with pytest.raises(ValueError):
            identities.identity_suite(3, trials=0)

    def test_principal_matrix_unit_example(self):
        # n=3, axis=0, w=1, t=1, r=1, d=(0,1,1): determinant exactly 1
        t = np.array([1.0])
        r = np.ones((1, 3))
        d = np.array([[0.0, 1.0, 1.0]])
        w = np.ones((1, 3))
        mat = identities._principal_matrix(t, r, d, w, 0)
        assert np.linalg.det(mat)[0] == pytest.approx(1.0, abs=1e-14)
        assert identities.principal_determinant_closed_form(t, r, d, w, 0)[0] == pytest.approx(1.0)

    def test_principal_closed_form_is_exact_on_fractions(self):
        t = np.array([Fraction(3, 2)], dtype=object)
        r = np.array([[Fraction(1, 2), Fraction(5, 4), Fraction(7, 8)]], dtype=object)
        d = np.array([[Fraction(1, 1 << 17), Fraction(131071, 1 << 17), Fraction(1)]], dtype=object)
        w = np.array([[Fraction(-3, 4), Fraction(2, 5), Fraction(7, 3)]], dtype=object)
        for axis in range(3):
            closed = identities.principal_determinant_closed_form(t, r, d, w, axis)[0]
            assert isinstance(closed, Fraction)
            assert closed == identities._frac_det(identities._principal_matrix(t, r, d, w, axis)[0].tolist())

    def test_geometry_cores_take_per_trial_arrays(self):
        # the suite's stacked (t, d, r, w) trials give, row by row, the bits of
        # geometry's per-configuration functions, and Fractions stay exact
        rng = rng_stream(0, derive_stream("test-suite-tie"))
        for n in range(2, 7):
            axis = int(rng.integers(0, n))
            t = rng.uniform(0.05, 2.0, 6)
            r = rng.uniform(0.5, 2.0, (6, n))
            jitter = rng.uniform(-1, 1, (6, n)) * geometry.default_refinement_cut(n) ** 2 * 0.9
            d = geometry.axis_direction(n, axis) + jitter
            w = rng.uniform(-1.0, 1.0, (6, n))
            minors = geometry._axis_minors_core(t, d, r, w, axis)
            jac = geometry._system_jacobian_core(t, d, r, w, axis)
            pair = geometry._minor_core(t, d, r, w, 0, n - 1)
            for k in range(6):
                cfg = geometry.TangencyConfig(axis, t[k], r[k], dtilde=d[k])
                np.testing.assert_array_equal(minors[k], geometry.axis_minors(cfg, w[k]))
                np.testing.assert_array_equal(jac[k], geometry.tangency_system_jacobian(cfg, w[k]))
                assert pair[k] == geometry.gradient_minor(cfg, w[k], 0, n - 1)
        q = np.array([[Fraction(1, 3), Fraction(-2, 5), Fraction(3, 7)]], dtype=object)
        tq = np.array([Fraction(1, 2)], dtype=object)
        out = geometry._axis_minors_core(tq, q, q + 1, q, 1)
        assert out[0, 1] == 0
        assert all(isinstance(v, Fraction) for v in (out[0, 0], out[0, 2]))
        jac = geometry._system_jacobian_core(tq, q, q + 1, q, 1)
        assert all(isinstance(v, (Fraction, int)) for v in jac.ravel())


class TestNondegScan:
    def test_floor_and_ceiling(self):
        scan = identities.nondeg_bounds_scan(3, 300, seed=1)
        assert scan.accepted == 300
        assert scan.min_scaled_determinant > 1e-4
        assert scan.max_scaled_inverse_norm < 50.0
        assert scan.max_scaled_minor < 10.0

    def test_stability_across_seeds(self):
        a = identities.nondeg_bounds_scan(3, 300, seed=1)
        b = identities.nondeg_bounds_scan(3, 300, seed=2)
        inv_ratio = max(a.max_scaled_inverse_norm, b.max_scaled_inverse_norm) / min(
            a.max_scaled_inverse_norm, b.max_scaled_inverse_norm
        )
        det_ratio = max(a.min_scaled_determinant, b.min_scaled_determinant) / min(
            a.min_scaled_determinant, b.min_scaled_determinant
        )
        assert inv_ratio <= 2.0
        assert det_ratio <= 2.5

    def test_other_dimensions(self):
        for n in (2, 4):
            scan = identities.nondeg_bounds_scan(n, 100, seed=3)
            assert scan.accepted == 100
            assert scan.min_scaled_determinant > 0

    def test_unreachable_region_raises(self, monkeypatch):
        # no tangency point in the refined region: all 50 * trials draws fail
        monkeypatch.setattr(identities, "refinement_indicator", lambda omega, axis: False)
        with pytest.raises(ValueError, match="no samples accepted"):
            identities.nondeg_bounds_scan(3, 2, seed=0)

    def test_validation(self):
        with pytest.raises(ValueError):
            identities.nondeg_bounds_scan(1, 10)
