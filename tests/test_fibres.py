"""Tests for the quadric intersection-curve tracer."""

import math

import numpy as np
import pytest

from homoeoid import fibres

CAL_X = np.zeros(3)
CAL_R = np.array([1.2, 1.0, 1.0])
CAL_U = np.zeros(2)


class TestCalibrationFibre:
    """x=0, r=(1.2,1,1), u=(0,0): the unit circle in the w_1 = 0 plane.

    The gradients of the two constraints are parallel along the whole curve,
    so this exercises the degenerate-tangency fallback and the arc-length
    accuracy at once.
    """

    def test_length_is_two_pi(self):
        trace = fibres.trace_fibre(CAL_X, CAL_R, CAL_U, step=0.01, seed=3)
        np.testing.assert_array_equal(trace.points[0], trace.points[-1])
        assert trace.length == pytest.approx(2 * math.pi, abs=1e-6)

    def test_stays_on_curve_and_plane(self):
        trace = fibres.trace_fibre(CAL_X, CAL_R, CAL_U, step=0.01, seed=3)
        radii_sq = np.sum(trace.points**2, axis=1)
        np.testing.assert_allclose(radii_sq, 1.0, atol=1e-9)
        # the corrector pulls the seed's off-plane residual down geometrically;
        # the closing vertex repeats the seed, so check the interior separately
        assert np.max(np.abs(trace.points[:, 0])) < 1e-5
        assert np.max(np.abs(trace.points[20:-1, 0])) < 1e-6

    def test_length_in_ball_near_pole(self):
        # exact: points within distance rho of (0,0,1) on the unit circle
        # span the arc 4*asin(rho/2) ~ 2*rho
        rho = 0.2
        trace = fibres.trace_fibre(CAL_X, CAL_R, CAL_U, step=0.01, seed=3)
        length = trace.length_in_ball(np.array([0.0, 0.0, 1.0]), rho)
        assert length == pytest.approx(4 * math.asin(rho / 2), rel=5e-3)
        assert length == pytest.approx(2 * rho, rel=0.05)

    def test_degenerate_tangent_direction(self):
        trace = fibres.trace_fibre(CAL_X, CAL_R, CAL_U, step=0.01, seed=3)
        # tangents lie in the w_1 = 0 plane and are orthogonal to position
        dots = np.abs(np.sum(trace.tangents * trace.points, axis=1))
        assert np.max(np.abs(trace.tangents[:, 0])) < 1e-6
        assert np.max(dots) < 1e-6


class TestAxisymmetricOracle:
    """Ellipsoid centre (0.35,0,0), radii (0.3,1,1) against the unit sphere:
    rotational symmetry makes the fibre a pair of circles at w_1 = 0.5 and
    w_1 = 0.35/1.3, with exactly computable lengths."""

    X = np.array([0.35, 0.0, 0.0])
    R = np.array([0.3, 1.0, 1.0])

    def test_outer_component(self):
        w1 = 0.5
        start = np.array([w1, math.sqrt(1 - w1 * w1), 0.0])
        trace = fibres.trace_fibre(self.X, self.R, CAL_U, start=start)
        assert trace.length == pytest.approx(2 * math.pi * math.sqrt(1 - w1 * w1), rel=1e-9)

    def test_inner_component(self):
        w1 = 0.35 / 1.3
        start = np.array([w1, math.sqrt(1 - w1 * w1), 0.0])
        trace = fibres.trace_fibre(self.X, self.R, CAL_U, start=start)
        assert trace.length == pytest.approx(2 * math.pi * math.sqrt(1 - w1 * w1), rel=1e-9)


class TestGenericFibre:
    X = np.array([0.1, -0.05, 0.2])
    R = np.array([1.3, 0.9, 1.1])
    U = np.array([0.05, -0.02])

    def test_closes_and_stays_on_curve(self):
        trace = fibres.trace_fibre(self.X, self.R, self.U, step=0.005, seed=7)
        np.testing.assert_array_equal(trace.points[0], trace.points[-1])
        g1 = np.abs(np.sum(trace.points**2, axis=1) - 1.0 - self.U[0])
        g2 = np.abs(np.sum(((trace.points - self.X) / self.R) ** 2, axis=1) - 1.0 - self.U[1])
        assert np.max(g1) < 1e-8
        assert np.max(g2) < 1e-8

    def test_length_converges_under_step_halving(self):
        coarse = fibres.trace_fibre(self.X, self.R, self.U, step=0.01, seed=7).length
        fine = fibres.trace_fibre(self.X, self.R, self.U, step=0.005, seed=7).length
        assert coarse == pytest.approx(fine, rel=1e-5)

    def test_full_ball_recovers_total_length(self):
        trace = fibres.trace_fibre(self.X, self.R, self.U, step=0.01, seed=7)
        assert trace.length_in_ball(np.zeros(3), 10.0) == pytest.approx(trace.length, rel=1e-12)

    def test_far_ball_is_empty(self):
        trace = fibres.trace_fibre(self.X, self.R, self.U, step=0.01, seed=7)
        assert trace.length_in_ball(np.array([10.0, 0.0, 0.0]), 0.5) == 0.0

    def test_deterministic(self):
        a = fibres.trace_fibre(self.X, self.R, self.U, step=0.01, seed=13)
        b = fibres.trace_fibre(self.X, self.R, self.U, step=0.01, seed=13)
        np.testing.assert_array_equal(a.points, b.points)


class TestValidation:
    def test_dimension_guard(self):
        with pytest.raises(ValueError):
            fibres.trace_fibre(np.zeros(4), np.ones(4), CAL_U)

    def test_positive_step(self):
        with pytest.raises(ValueError):
            fibres.trace_fibre(CAL_X, CAL_R, CAL_U, step=0.0)

    def test_positive_ball_radius(self):
        trace = fibres.trace_fibre(CAL_X, CAL_R, CAL_U, step=0.01, seed=3)
        for radius in (0.0, -0.1, math.nan):
            with pytest.raises(ValueError, match="radius must be positive"):
                trace.length_in_ball(np.zeros(3), radius)

    def test_empty_fibre_reported(self):
        # levels far outside the reachable range: no intersection
        with pytest.raises(ValueError):
            fibres.trace_fibre(np.zeros(3), np.ones(3) * 0.5, np.array([0.0, 50.0]), seed=5)
