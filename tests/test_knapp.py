"""Tests for the slab exponent experiment and the divergent shell series."""

import itertools
import math

import numpy as np
import pytest

from homoeoid import geometry as geo
from homoeoid import knapp
from homoeoid.maximal import annulus_average
from homoeoid.mc import derive_stream, fit_power_law, rng_stream
from homoeoid.volumes import ball_volume, sample_surface

EXACT_L2_NORM_SQ = 32.0 * math.pi * math.log(2.0)  # closed form of the n=3 profile


def tangency_pair(seed=7):
    xs, rs = knapp.sample_tangency_set(1, seed=seed)
    return xs[0], rs[0]


def slab_edge_points(slab, x, r, delta):
    """Points on the edges of ``slab``'s box along its normal: the box
    corners, and where ``F(y) = sum(((y - x)/r)**2) - 1`` crosses ``-+delta``
    (shrunk by 1e-9) on each edge, from the quadratic ``F`` along it."""
    n = slab.n
    half = 0.5 * math.sqrt(slab.delta)
    normal = slab.frame[n - 1]
    found = []
    for signs in itertools.product((-half, half), repeat=n - 1):
        base = np.array(signs) @ slab.frame[: n - 1]
        a, b = (base - x) / r, normal / r  # (y(s) - x)/r = a + s*b
        ends = [-0.5 * slab.delta, 0.5 * slab.delta]
        for level in (-delta, delta):
            c = a @ a - 1.0 - level * (1.0 - 1e-9)
            disc = (a @ b) ** 2 - (b @ b) * c
            if disc >= 0.0:
                ends += [(-(a @ b) + side * math.sqrt(disc)) / (b @ b) for side in (-1.0, 1.0)]
        found += [base + s * normal for s in ends if abs(s) <= 0.5 * slab.delta]
    return np.array(found)


def series_arrays(series):
    """The four per-shell arrays of a :class:`knapp.ShellSeries`."""
    return series.terms, series.std_errors, series.survivors, series.normal_extent


def test_critical_exponent():
    assert [knapp.critical_exponent(n) for n in (2, 3, 4, 5)] == [3.0, 2.0, 5 / 3, 1.5]
    with pytest.raises(ValueError, match="dimension must be >= 2, got 1"):
        knapp.critical_exponent(1)


class TestDiagonalFrame:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_orthogonal_with_diagonal_last_row(self, n):
        U = knapp.diagonal_frame(n)
        assert np.max(np.abs(U @ U.T - np.eye(n))) < 1e-12
        np.testing.assert_allclose(U[n - 1], np.full(n, n**-0.5), rtol=1e-15)

    def test_deterministic(self):
        np.testing.assert_array_equal(knapp.diagonal_frame(5), knapp.diagonal_frame(5))

    def test_validation(self):
        with pytest.raises(ValueError):
            knapp.diagonal_frame(1)


class TestKnappSlab:
    def test_volume_exact(self):
        assert knapp.KnappSlab(0.04, 3).volume == 0.04**2
        assert knapp.KnappSlab(0.25, 4).volume == 0.25**2.5

    def test_membership_examples(self):
        delta = 0.04
        slab = knapp.KnappSlab(delta, 3)
        U = slab.frame
        assert slab.contains(np.zeros(3))
        assert not slab.contains(0.6 * delta * U[2])  # past the thin face
        for v in U[:2]:
            assert slab.contains(0.25 * math.sqrt(delta) * v)
            assert not slab.contains(0.6 * math.sqrt(delta) * v)
        assert slab.contains(0.499 * delta * U[2])

    def test_indicator_field_matches_membership(self):
        slab = knapp.KnappSlab(0.1, 3)
        f = slab.indicator()
        pts = np.random.default_rng(0).uniform(-0.3, 0.3, (500, 3))
        np.testing.assert_array_equal(f(pts), slab.contains(pts).astype(float))
        assert knapp.KnappSlab(0.1).indicator()(np.zeros(3)) == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            knapp.KnappSlab(0.0)
        with pytest.raises(ValueError):
            knapp.KnappSlab(0.6)


class TestSampleTangencySet:
    def test_invariants(self):
        xs, rs = knapp.sample_tangency_set(50, seed=3)
        assert xs.shape == rs.shape == (50, 3)
        assert np.all((rs >= 1.4) & (rs <= 1.6))
        for x, r in zip(xs, rs):
            # surface passes through the origin ...
            assert abs(geo.defining_value(x, r, np.zeros(3))) < 1e-12
            # ... tangent to the diagonal-orthogonal hyperplane
            grad = geo.defining_gradient(x, r, np.zeros(3))
            unit = grad / np.linalg.norm(grad)
            assert np.max(np.abs(np.abs(unit) - 3**-0.5)) < 1e-12
        np.testing.assert_allclose(geo.tangency_radii(xs), rs, atol=1e-12)

    def test_isotropic_point(self):
        x = geo.contact_point(np.full(3, 1.5))
        np.testing.assert_allclose(x, np.full(3, math.sqrt(3) / 2), rtol=1e-15)

    def test_deterministic_and_seeded(self):
        a = knapp.sample_tangency_set(10, seed=1)
        b = knapp.sample_tangency_set(10, seed=1)
        c = knapp.sample_tangency_set(10, seed=2)
        np.testing.assert_array_equal(a[1], b[1])
        assert not np.array_equal(a[1], c[1])

    def test_validation(self):
        with pytest.raises(ValueError):
            knapp.sample_tangency_set(0)


class TestSlabShellAverage:
    @pytest.mark.parametrize("slab_width, delta", [(2**-5, 2**-5), (0.25, 2**-8)])
    def test_agrees_with_uniform_shell_sampling(self, slab_width, delta):
        # a wide slab against a thin shell: a cap sized from the shell width
        # would miss most of the slab's preimage and read about 32x low
        x, r = tangency_pair(seed=2)
        slab = knapp.KnappSlab(slab_width, 3)
        cap_value, cap_se = knapp.slab_shell_average(slab, x, r, delta, 200_000, seed=5)
        plain = annulus_average(
            slab.indicator(), geo.AnnulusSpec(geo.Ellipsoid(x, r), delta), 400_000, seed=5
        )
        assert plain.value > 10.0 * plain.std_error
        z = abs(cap_value - plain.value) / math.hypot(cap_se, plain.std_error)
        assert z < 4.0
        # the whole point of the cap restriction: far smaller variance
        assert cap_se < 0.5 * plain.std_error

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_cap_holds_planted_slab_points(self, n):
        # slab points of the shell on the edges of the slab box along its
        # normal: the box corners and the crossings of the shell's inner and
        # outer ends; every one must have its direction in the cap.  The
        # equal radii 0.57 at widths 1/2, n = 2, need the cap's 0.6*delta
        # term; a thin shell under a wide slab needs the slab's half-diagonal
        widths = [(0.5, 0.5), (0.5, 2**-8), (2**-8, 0.5), (0.25, 2**-4), (2**-4, 0.25)]
        spread = np.random.default_rng(n).uniform(1.1, 1.9, (2, n))  # a wider box than 3/2 +- 1/10
        radii = [np.full(n, 0.57), np.ones(n), *spread]
        planted = 0
        for r in radii:
            x = geo.contact_point(r)
            for slab_width, delta in widths:
                slab = knapp.KnappSlab(slab_width, n)
                cap = knapp._slab_cap(slab, x, r, delta)
                pts = slab_edge_points(slab, x, r, delta)
                pts = pts[slab.contains(pts)]
                pts = pts[geo.annulus_contains(geo.AnnulusSpec(geo.Ellipsoid(x, r), delta), pts)]
                omega = (pts - x) / r
                z = (omega / np.linalg.norm(omega, axis=1, keepdims=True)) @ cap.e
                assert np.all(z >= cap.z_lo)
                planted += pts.shape[0]
        assert planted >= 30

    def test_deterministic(self):
        x, r = tangency_pair()
        slab = knapp.KnappSlab(0.05, 3)
        assert knapp.slab_shell_average(slab, x, r, 0.05, 1000, seed=3) == (
            knapp.slab_shell_average(slab, x, r, 0.05, 1000, seed=3)
        )

    def test_validation(self):
        slab = knapp.KnappSlab(0.05, 3)
        with pytest.raises(ValueError):
            knapp.slab_shell_average(slab, np.ones(3), np.ones(3), 0.05, 100, seed=0)
        x, r = tangency_pair()
        with pytest.raises(ValueError):
            knapp.slab_shell_average(slab, x, r, 0.05, 1, seed=0)
        for delta in (0.0, 0.75, 2.0):  # the shell width is checked like the slab's
            with pytest.raises(ValueError):
                knapp.slab_shell_average(slab, x, r, delta, 100, seed=0)


class TestKnappExponent:
    DELTAS = [2.0**-k for k in range(4, 11)]

    def test_critical_exponent_is_flat(self):
        scan = knapp.knapp_exponent(self.DELTAS, 2.0, 48, 8192, seed=0)
        assert abs(scan.fit.slope) < 0.05
        assert {"delta", "p", "ratio", "std_error"} == set(scan.rows[0])
        assert all(row["ratio"] > 0 for row in scan.rows)

    def test_slopes_increase_and_change_sign(self):
        slopes = [
            knapp.knapp_exponent(self.DELTAS, p, 48, 8192, seed=0).fit.slope
            for p in (1.5, 2.0, 3.0)
        ]
        assert slopes[0] < slopes[1] < slopes[2]
        assert slopes[0] < -0.2 and slopes[2] > 0.2

    def test_deterministic(self):
        a = knapp.knapp_exponent(self.DELTAS[:3], 2.0, 8, 512, seed=4)
        b = knapp.knapp_exponent(self.DELTAS[:3], 2.0, 8, 512, seed=4)
        assert a.fit == b.fit

    def test_zero_ratio_keeps_rows_without_fit(self, monkeypatch):
        # no shell sample hits the slab at the middle width
        average = knapp.slab_shell_average

        def missing_middle(slab, x, r, delta, m, *, seed=0):
            return (0.0, 0.0) if delta == 0.03125 else average(slab, x, r, delta, m, seed=seed)

        monkeypatch.setattr(knapp, "slab_shell_average", missing_middle)
        scan = knapp.knapp_exponent([0.0625, 0.03125, 0.015625], 2.0, 2, 2, seed=0)
        assert scan.fit is None
        assert [row["delta"] for row in scan.rows] == [0.0625, 0.03125, 0.015625]
        assert any(row["ratio"] == 0.0 and row["std_error"] == math.inf for row in scan.rows)

    def test_validation(self):
        with pytest.raises(ValueError):
            knapp.knapp_exponent([0.1, 0.05], 2.0)
        with pytest.raises(ValueError):
            knapp.knapp_exponent([0.05, 0.1, 0.2], 2.0)
        with pytest.raises(ValueError):
            knapp.knapp_exponent([0.2, 0.1, 0.05], 0.5)
        with pytest.raises(ValueError):
            knapp.knapp_exponent([0.2, 0.1, 0.05], 2.0, m_x=1)
        # the shell average it takes needs two points for its standard error
        with pytest.raises(ValueError, match="m_s >= 2"):
            knapp.knapp_exponent([0.2, 0.1, 0.05], 2.0, m_s=1)


class TestCounterexampleField:
    def test_worked_value(self):
        ce = knapp.CounterexampleField()
        U = ce.frame
        y = U.T @ np.array([0.25, 0.0, 0.0])
        assert float(ce(y)) == pytest.approx(16.0 * 2.0**-0.75, rel=1e-12)

    def test_support(self):
        ce = knapp.CounterexampleField()
        U = ce.frame
        assert float(ce(U.T @ np.array([0.6, 0.0, 0.0]))) == 0.0  # |x'| > 1/2
        inside = U.T @ np.array([0.25, 0.0, 0.99 * knapp.OPENING * 0.25**2])
        outside = U.T @ np.array([0.25, 0.0, knapp.OPENING * 0.25**2 + 0.01])
        assert float(ce(inside)) > 0.0
        assert float(ce(outside)) == 0.0

    def test_profile_values(self):
        assert knapp.profile_value(0.0) == 0.0
        assert knapp.profile_value(0.5) == 4.0  # log2(1/t) = 1 exactly
        assert knapp.profile_value(0.75) == 0.0
        vals = knapp.profile_value(np.array([0.1, 0.5, 0.9]))
        assert vals.shape == (3,) and vals[2] == 0.0

    def test_frame_orthogonal(self):
        a = knapp.CounterexampleField()
        assert np.max(np.abs(a.frame @ a.frame.T - np.eye(3))) < 1e-12

    def test_opening_constant_is_shared(self, monkeypatch):
        # the field, its norm and the shell series all read knapp.OPENING
        x, r = tangency_pair(seed=7)
        # |x_n| = 0.2 lies inside the opening 4 * 0.25**2, outside 0.25 * 0.25**2;
        # the narrow opening cuts into the shells' normal extent, about 1/3
        point = knapp.CounterexampleField().frame.T @ np.array([0.25, 0.0, 0.2])
        assert float(knapp.CounterexampleField()(point)) > 0.0
        norm = knapp.g_lp_norm(2.0)
        survivors = knapp.shell_partial_sums(x, r, 16, 64, seed=0).survivors
        monkeypatch.setattr(knapp, "OPENING", 0.25)
        assert float(knapp.CounterexampleField()(point)) == 0.0
        assert knapp.g_lp_norm(2.0) == pytest.approx(0.25 * norm, rel=1e-12)
        narrower = knapp.shell_partial_sums(x, r, 16, 64, seed=0).survivors
        assert np.all(narrower <= survivors) and np.any(narrower < survivors)


class TestGLpNorm:
    def test_critical_norm_matches_closed_form(self):
        assert knapp.g_lp_norm(2.0) == pytest.approx(math.sqrt(EXACT_L2_NORM_SQ), rel=1e-9)

    def test_matches_midpoint_oracle(self):
        # independent route: midpoint rule on the radial integral in the
        # u = log2(1/t) coordinate (the integrand in t has a non-integrable-
        # looking 1/t factor tamed only by the log, so uniform-in-t midpoints
        # never see the mass near 0), truncated at u = 1e4 with the exact
        # pure-power tail appended.
        n, p, C = 3, 2.0, knapp.OPENING
        m = 1_000_000
        beta = n * p / (n + 1.0)
        u_max = 1.0e4
        du = (u_max - 1.0) / m
        u = 1.0 + (np.arange(m) + 0.5) * du
        integral = math.log(2.0) * (
            float(np.sum(u**-beta) * du) + u_max ** (1.0 - beta) / (beta - 1.0)
        )
        oracle = (2.0 * C * 2.0 * math.pi * integral) ** (1.0 / p)
        assert knapp.g_lp_norm(p) == pytest.approx(oracle, rel=0.01)

    def test_divergence_detection(self):
        assert knapp.g_lp_norm(2.5) == math.inf
        assert knapp.g_lp_norm(3.0) == math.inf
        assert knapp.g_lp_norm(2.26) == math.inf  # just past critical + 1/4

    def test_subcritical_finite(self):
        assert 0.0 < knapp.g_lp_norm(1.0) < math.inf
        assert 0.0 < knapp.g_lp_norm(1.9) < math.inf

    def test_other_dimension(self):
        # n = 4: critical exponent 5/3
        assert 0.0 < knapp.g_lp_norm(5.0 / 3.0, n=4) < math.inf
        assert knapp.g_lp_norm(2.0, n=4) == math.inf

    def test_validation(self):
        with pytest.raises(ValueError):
            knapp.g_lp_norm(0.9)


def trailing_axis_shell_terms(x, r, ells, m, seed, surface_measure):
    """Per-shell arrays of the series for shells ``ells``, scored as one block
    of the trailing-axis form (broadcasts and reductions over the last axis)
    that the coordinate-major block replaces; one fresh stream per shell."""
    n = x.shape[0]
    frame = knapp.diagonal_frame(n)
    tangent_rows, normal = frame[: n - 1], frame[n - 1]
    beta = n / (n + 1.0)
    inner = 2.0 ** (-(n - 1) / 2.0)
    prefactor = ball_volume(n - 1) * (1.0 - inner) / surface_measure
    r_sq = r**2
    quad_coeff = float(np.sum(normal**2 / r_sq))
    b0 = -2.0 * float(np.sum(normal * x / r_sq))
    gauss = np.empty((len(ells), m, n - 1))
    uniform = np.empty((len(ells), m))
    for i, ell in enumerate(ells):
        rng = rng_stream(seed, derive_stream("shell-series", ell, x, r))
        gauss[i] = rng.standard_normal((m, n - 1))
        uniform[i] = rng.random(m)
    scale = np.array([2.0 ** (-ell / 2.0) for ell in ells])[:, None]
    scale_sq = np.array([2.0**-ell for ell in ells])[:, None]
    gauss /= np.linalg.norm(gauss, axis=-1, keepdims=True)
    radius = (inner + uniform * (1.0 - inner)) ** (1.0 / (n - 1))
    v_dir = (gauss * radius[..., None]) @ tangent_rows
    curvature = np.sum(v_dir**2 / r_sq, axis=-1)
    b = b0 + scale * 2.0 * np.sum(v_dir * normal / r_sq, axis=-1)
    disc = np.sqrt(b**2 - 4.0 * scale_sq * quad_coeff * curvature)
    s_scaled = 2.0 * curvature / (disc - b)
    level = np.array(ells)[:, None] / 2.0 + np.log2(1.0 / radius)
    in_support = (level >= 1.0) & (np.abs(s_scaled) <= knapp.OPENING * radius**2)
    offset = scale[..., None] * v_dir + (scale_sq * s_scaled)[..., None] * normal - x
    grad = 2.0 * offset / r_sq
    secant = np.linalg.norm(grad, axis=-1) / np.abs(grad @ normal)
    values = np.where(in_support, radius ** (-(n - 1)) * level**-beta * secant, 0.0)
    values *= prefactor
    return (
        np.mean(values, axis=1),
        np.std(values, axis=1, ddof=1) / math.sqrt(m),
        np.count_nonzero(in_support, axis=1),
        np.max(np.abs(s_scaled), axis=1),
    )


class TestShellPartialSums:
    def setup_method(self):
        self.x, self.r = tangency_pair(seed=7)

    def test_first_shell_empty_then_increasing(self):
        s = knapp.shell_partial_sums(self.x, self.r, 64, 256, seed=1)
        assert s.terms[0] == 0.0
        assert s.survivors[0] == 0
        assert bool(s.low_confidence[0])
        assert np.all(s.survivors[1:] == 256)
        sums = s.partial_sums
        assert np.all(np.diff(sums) >= 0.0)
        assert np.all(np.diff(sums[1:]) > 0.0)

    def test_term_decay_rate_is_stable(self):
        s = knapp.shell_partial_sums(self.x, self.r, 256, 256, seed=1)
        ell = np.arange(1, 257, dtype=float)
        scaled = s.terms[15:] * ell[15:] ** 0.75
        assert np.max(scaled) / np.min(scaled) < 1.15

    def test_prefix_stable_under_extension(self):
        short = knapp.shell_partial_sums(self.x, self.r, 64, 64, seed=2)
        long = knapp.shell_partial_sums(self.x, self.r, 128, 64, seed=2)
        np.testing.assert_array_equal(long.terms[:64], short.terms)

    def test_prefix_stable_across_block_boundaries(self):
        # at m = 256 a block holds 256 shells, so the extension crosses two
        # block boundaries and ends its first block at a different shell
        short = knapp.shell_partial_sums(self.x, self.r, 300, 256, seed=2)
        long = knapp.shell_partial_sums(self.x, self.r, 700, 256, seed=2)
        for a, b in zip(series_arrays(short), series_arrays(long)):
            np.testing.assert_array_equal(b[:300], a)

    def test_series_bits_are_frozen(self):
        # frozen values on both sides of the block boundary between shells
        # 256 and 257: a silent change would break seeded reproducibility
        s = knapp.shell_partial_sums(self.x, self.r, 300, 256, seed=2)
        assert s.terms[1] == 0.06475910491119445
        assert s.terms[255] == 0.0019092783208365313
        assert s.terms[256] == 0.0018584387136440905
        assert s.std_errors[299] == 2.138584912728846e-05
        assert s.normal_extent[256] == 0.33815915791834783
        assert int(np.sum(s.survivors)) == 299 * 256
        xs, rs = knapp.sample_tangency_set(1, seed=7, n=4)
        s4 = knapp.shell_partial_sums(xs[0], rs[0], 300, 256, seed=1)
        assert s4.terms[257] == 0.001376407796994676
        assert s4.std_errors[3] == 0.0005700819762996855

    @pytest.mark.parametrize("n", [3, 4])
    def test_bits_independent_of_workers_and_block_size(self, monkeypatch, n):
        xs, rs = knapp.sample_tangency_set(1, seed=7, n=n)
        runs = []
        for workers in ("1", "2"):
            monkeypatch.setenv("HOMOEOID_THREADS", workers)
            runs.append(knapp.shell_partial_sums(xs[0], rs[0], 300, 256, seed=1))
        monkeypatch.setattr(knapp, "DEFAULT_CHUNK", 3 * 256)  # blocks of 3 shells
        runs.append(knapp.shell_partial_sums(xs[0], rs[0], 300, 256, seed=1))
        for other in runs[1:]:
            for a, b in zip(series_arrays(runs[0]), series_arrays(other)):
                np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_trailing_axis_form_across_a_block_boundary(self, n):
        # at m = 256 the first block ends at shell 256
        xs, rs = knapp.sample_tangency_set(1, seed=7, n=n)
        s = knapp.shell_partial_sums(xs[0], rs[0], 270, 256, seed=1)
        ells = range(240, 271)
        want = trailing_axis_shell_terms(xs[0], rs[0], ells, 256, 1, s.surface_measure)
        for a, b in zip(series_arrays(s), want):
            np.testing.assert_array_equal(a[ells[0] - 1 :], b)
        assert np.all(s.survivors[ells[0] - 1 :] > 0)

    def test_blocks_reduce_in_shell_order(self, monkeypatch):
        expected = knapp.shell_partial_sums(self.x, self.r, 700, 256, seed=2)

        def last_first_map(fn, count):  # evaluates the units last to first
            out = [None] * count
            for i in reversed(range(count)):
                out[i] = fn(i)
            return out

        monkeypatch.setattr(knapp, "ordered_map", last_first_map)
        got = knapp.shell_partial_sums(self.x, self.r, 700, 256, seed=2)
        for a, b in zip(series_arrays(expected), series_arrays(got)):
            np.testing.assert_array_equal(a, b)

    def test_matches_filtered_surface_oracle(self):
        m_surface = 1 << 21
        s = knapp.shell_partial_sums(self.x, self.r, 8, 4096, seed=3)
        ce = knapp.CounterexampleField()
        normal = ce.frame[2]
        points, weights = sample_surface(self.r, m_surface, 11, centre=self.x)
        height = points @ normal
        tangential = np.linalg.norm(points - height[:, None] * normal, axis=1)
        f_vals = ce(points)
        for ell in range(2, 7):
            band = (2.0 ** (-(ell + 1) / 2.0) < tangential) & (
                tangential <= 2.0 ** (-ell / 2.0)
            )
            contrib = weights * f_vals * band / s.surface_measure
            literal = float(np.mean(contrib))
            literal_se = float(np.std(contrib, ddof=1) / math.sqrt(m_surface))
            z = abs(literal - s.terms[ell - 1]) / math.hypot(
                literal_se, s.std_errors[ell - 1]
            )
            assert z < 3.5, f"shell {ell}: literal {literal} vs {s.terms[ell - 1]}"

    def test_partial_sum_shape_matches_power_law_tail(self):
        s = knapp.shell_partial_sums(self.x, self.r, 512, 256, seed=1)
        sums = s.partial_sums
        ell = np.arange(1, 513, dtype=float)
        oracle = np.cumsum(np.where(ell >= 2, ell**-0.75, 0.0))
        scale = sums[-1] / oracle[-1]
        rel = np.abs(sums[31:] / (scale * oracle[31:]) - 1.0)
        assert np.max(rel) < 0.05

    def test_normal_extent_bounded(self):
        s = knapp.shell_partial_sums(self.x, self.r, 128, 128, seed=4)
        assert np.max(s.normal_extent) < 2.0  # |<omega,N>| = O(2^-l), small constant

    def test_sphere_surface_measure_is_exact(self):
        radii = np.full(3, 1.5)
        x = geo.contact_point(radii)
        s = knapp.shell_partial_sums(x, radii, 8, 64, seed=0)
        assert s.surface_measure == pytest.approx(4.0 * math.pi * 1.5**2, rel=1e-12)

    def test_deterministic(self):
        a = knapp.shell_partial_sums(self.x, self.r, 16, 64, seed=5)
        b = knapp.shell_partial_sums(self.x, self.r, 16, 64, seed=5)
        np.testing.assert_array_equal(a.terms, b.terms)

    def test_validation(self):
        with pytest.raises(ValueError):
            knapp.shell_partial_sums(self.x, self.r, 3, 64)
        with pytest.raises(ValueError):
            knapp.shell_partial_sums(self.x, self.r, 8, 8)
        with pytest.raises(ValueError):
            knapp.shell_partial_sums(np.ones(3), np.ones(3), 8, 64)
        with pytest.raises(ValueError):
            knapp.shell_partial_sums(self.x, self.r[:2], 8, 64)


def band_expectation(term_exponent, L):
    """Exact mean of the shell term over each band, by Gauss-Legendre quadrature.

    The sampler draws ``radius**2`` uniform on [1/2, 1]; with
    ``t = log2(1/radius**2)`` that law times the weight ``radius**-2`` is
    ``2*ln2*dt`` on [0, 1], so the band mean of ``radius**-2 * level**-q`` is a
    constant times the integral of ``((l + t) / 2)**-q`` over [0, 1].  The
    graph secant, ``1 + O(2**(-l/2))``, is left out.  Shell 1 lies outside the
    support (level < 1).
    """
    nodes, weights = np.polynomial.legendre.leggauss(32)
    t = 0.5 * (nodes + 1.0)
    ell = np.arange(2, L + 1, dtype=float)[:, None]
    means = 0.5 * (((ell + t) / 2.0) ** -term_exponent) @ weights
    return np.concatenate([[0.0], means])


class TestDyadicBlockSlope:
    L = 4096

    def top_window_slope(self, sums):
        sizes = [1024, 2048, 4096]
        return fit_power_law(sizes, [sums[k - 1] for k in sizes]).slope

    def test_offset_cancels(self):
        ell = np.arange(1, self.L + 1, dtype=float)
        sums = ell**0.25 - 4.0
        assert knapp.dyadic_block_slope(sums).slope == pytest.approx(0.25, abs=1e-3)
        assert abs(self.top_window_slope(sums) - 0.25) > 1e-3

    def test_gate_accepts_exact_shell_expectation(self):
        sums = np.cumsum(band_expectation(0.75, self.L))
        assert 0.20 <= knapp.dyadic_block_slope(sums).slope <= 0.30
        assert self.top_window_slope(sums) > 0.30  # the offset-biased estimator

    @pytest.mark.parametrize("term_exponent", [0.5, 0.9, 1.25])
    def test_gate_rejects_wrong_term_exponents(self, term_exponent):
        sums = np.cumsum(band_expectation(term_exponent, self.L))
        slope = knapp.dyadic_block_slope(sums).slope
        assert not 0.20 <= slope <= 0.30
        assert slope == pytest.approx(1.0 - term_exponent, abs=0.01)

    def test_uses_top_blocks_of_non_power_of_two_length(self):
        sums = np.arange(1, 101, dtype=float) ** 0.5
        fit = knapp.dyadic_block_slope(sums)
        np.testing.assert_allclose(np.exp([x for x, _ in fit.points]), [16, 32, 64])
        assert fit.slope == pytest.approx(0.5, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError, match="at least 8 partial sums, got 7"):
            knapp.dyadic_block_slope(np.arange(1.0, 8.0))
        with pytest.raises(ValueError, match="S_64 - S_32 is not positive"):
            knapp.dyadic_block_slope(np.minimum(np.arange(1.0, 65.0), 32.0))
        with pytest.raises(ValueError, match="1-d"):
            knapp.dyadic_block_slope(np.ones((8, 2)))
