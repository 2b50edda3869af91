"""Tests for shell volumes, intersection estimates, bands, and clusters."""

import dataclasses
import math

import numpy as np
import pytest

from helpers import brute_intersection_volume, last_counted
from homoeoid import geometry as geo
from homoeoid import volumes as vol
from homoeoid.mc import DEFAULT_CHUNK, derive_stream, rng_stream

SEED = 20240817


def unit_shell(n, delta):
    return geo.AnnulusSpec(geo.Ellipsoid(np.zeros(n), np.ones(n)), delta)


def brute_cluster_points(cfg, rho, delta, m, seed):
    """Accepted points of ``m`` uniform reference-shell draws, in draw order:
    every draw is made and filtered by the refinement and the Gram norm, in
    batches of ``DEFAULT_CHUNK`` on the streams ``("cluster", rho, t,
    batch)``.  This is the route the tangency cover of
    ``low_jacobian_cluster`` replaces, kept as its oracle."""
    sampler = vol.reference_shell_sampler(delta, 3)
    accepted = []
    for batch in range(math.ceil(m / DEFAULT_CHUNK)):
        rng = rng_stream(seed, derive_stream("cluster", rho, cfg.t, batch))
        omega = sampler(rng, min(DEFAULT_CHUNK, m - batch * DEFAULT_CHUNK))
        ok = geo.refinement_indicator(omega, cfg.axis)
        ok &= geo.jacobian_gram_norm(cfg, omega) < rho
        accepted.append(omega[ok])
    return np.concatenate(accepted)


def in_cover(cover, points, axis):
    """Whether each point's direction lies in a cell of ``cover``."""
    u = points / np.linalg.norm(points, axis=1, keepdims=True)
    z = u[:, axis]
    phi = np.mod(np.arctan2(u[:, (axis + 2) % 3], u[:, (axis + 1) % 3]), 2.0 * np.pi)
    return np.array(
        [
            np.any(
                (cover.z <= zi)
                & (zi <= cover.z + cover.dz)
                & (cover.phi <= fi)
                & (fi <= cover.phi + cover.dphi)
            )
            for zi, fi in zip(z, phi)
        ],
        dtype=bool,
    )


class TestClosedForms:
    def test_ball_and_sphere(self):
        assert vol.ball_volume(2) == pytest.approx(math.pi)
        assert vol.ball_volume(3) == pytest.approx(4 * math.pi / 3)
        assert vol.sphere_area(3) == pytest.approx(4 * math.pi)

    def test_shell_volume_planar(self):
        # n=2: pi * ((1+d) - (1-d)) = 2*pi*d exactly
        assert vol.shell_volume(np.ones(2), 0.25) == pytest.approx(math.pi / 2, rel=1e-14)

    def test_shell_volume_3d(self):
        # (4*pi/3) * (1.1^1.5 - 0.9^1.5), independently evaluated
        assert vol.shell_volume(np.ones(3), 0.1) == pytest.approx(1.256112477212675, rel=1e-12)

    def test_radii_scale_as_product(self):
        r = np.array([2.0, 1.0, 0.5])
        assert vol.shell_volume(r, 0.2) == pytest.approx(
            np.prod(r) * vol.shell_volume(np.ones(3), 0.2), rel=1e-14
        )


class TestShellSampling:
    @staticmethod
    def sample(n, delta, m, seed=SEED, stream=0):
        return vol.reference_shell_sampler(delta, n)(rng_stream(seed, stream), m)

    def test_points_lie_in_shell(self):
        pts = self.sample(3, 0.07, 5000)
        assert pts.shape == (5000, 3)
        assert np.all(geo.annulus_contains(unit_shell(3, 0.07), pts))

    def test_radial_distribution(self):
        # closed form for the fraction of shell volume with |omega| > 1
        n, delta, m = 3, 0.3, 200_000
        pts = self.sample(n, delta, m)
        frac = np.mean(np.sum(pts * pts, axis=1) > 1.0)
        expected = ((1 + delta) ** (n / 2) - 1) / ((1 + delta) ** (n / 2) - (1 - delta) ** (n / 2))
        assert frac == pytest.approx(expected, abs=5 * math.sqrt(0.25 / m))

    def test_anisotropic_shell(self):
        ell = geo.Ellipsoid(np.array([0.5, -1.0, 2.0]), np.array([2.0, 1.0, 0.5]))
        spec = geo.AnnulusSpec(ell, 0.05)
        pts = geo.affine_map(ell.centre, ell.radii, self.sample(3, 0.05, 2000, stream=3))
        assert np.all(geo.annulus_contains(spec, pts))

    def test_deterministic(self):
        a = self.sample(2, 0.1, 100, seed=7, stream=1)
        b = self.sample(2, 0.1, 100, seed=7, stream=1)
        np.testing.assert_array_equal(a, b)


def reference_sample(rng, m, n, delta):
    """The trailing-axis sampler the coordinate-major kernel replaces."""
    lo = (1.0 - delta) ** (n / 2.0)
    hi = (1.0 + delta) ** (n / 2.0)
    v = rng.standard_normal((m, n))
    u = v / np.linalg.norm(v, axis=1, keepdims=True)
    s = (lo + rng.random(m) * (hi - lo)) ** (1.0 / n)
    return s[:, None] * u


class TestSamplerKernel:
    @pytest.mark.parametrize("m", [1, 3, (1 << 16) + 1])
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_matches_trailing_axis_reference(self, n, m):
        delta = 2.0**-5
        got = vol.reference_shell_sampler(delta, n)(rng_stream(SEED, n), m)
        want = reference_sample(rng_stream(SEED, n), m, n, delta)
        assert got.shape == (m, n) and got.flags.c_contiguous
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_block_batches_match_trailing_axis_reference(self, n):
        # the (rows, batch, n) buffers that the multiplicity blocks pass
        delta = 2.0**-5
        rows, batch = 3, 257
        normals = rng_stream(SEED, n).standard_normal((rows, batch, n))
        uniforms = rng_stream(SEED, n + 1).random((rows, batch))
        lo = (1.0 - delta) ** (n / 2.0)
        hi = (1.0 + delta) ** (n / 2.0)
        unit = normals / np.linalg.norm(normals, axis=-1, keepdims=True)
        want = unit * ((lo + uniforms * (hi - lo)) ** (1.0 / n))[..., None]
        got = vol._to_shell(vol._normalise(normals.copy()), uniforms.copy(), (1 - delta, 1 + delta))
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("shell", ["reference", "annulus"])
    def test_keyed_points_match_per_stream_draws(self, d, shell):
        # d = 1 is the n = 2 shell series, whose annulus is two segments;
        # the annulus is the series' 2**(-1/2) < |w| <= 1, the reference
        # shell that of the overlap rows
        delta = 2.0**-5
        lo, hi = {
            "reference": ((1.0 - delta) ** (d / 2.0), (1.0 + delta) ** (d / 2.0)),
            "annulus": (2.0 ** (-d / 2.0), 1.0),
        }[shell]
        bounds = (1.0 - delta, 1.0 + delta) if shell == "reference" else (0.5, 1.0)
        streams = [derive_stream("keyed", d, row) for row in range(4)]
        m = 129
        points, radii = vol.keyed_shell_points(SEED, streams, m, d, bounds)
        assert points.shape == (4, m, d) and radii.shape == (4, m)
        for row, stream in enumerate(streams):
            rng = rng_stream(SEED, stream)
            v = rng.standard_normal((m, d))
            s = (lo + rng.random(m) * (hi - lo)) ** (1.0 / d)
            np.testing.assert_array_equal(radii[row], s)
            np.testing.assert_array_equal(
                points[row], s[:, None] * (v / np.linalg.norm(v, axis=1, keepdims=True))
            )
        square = radii * radii
        assert np.all((square >= bounds[0]) & (square < bounds[1]))

    def test_surface_sampler_matches_reference(self):
        radii = np.array([2.0, 1.0, 0.5])
        points, weights = vol.sample_surface(radii, 1000, SEED)
        v = rng_stream(SEED, derive_stream("surface", 0)).standard_normal((1000, 3))
        theta = v / np.linalg.norm(v, axis=1, keepdims=True)
        np.testing.assert_array_equal(points, radii * theta)
        np.testing.assert_array_equal(
            weights,
            vol.sphere_area(3) * float(np.prod(radii)) * np.sqrt(np.sum((theta / radii) ** 2, axis=1)),
        )


class TestSurfaceSampling:
    def test_unit_sphere_area_is_exact(self):
        # for the unit sphere every weight equals the total area
        _, w = vol.sample_surface(np.ones(3), 100, SEED)
        np.testing.assert_allclose(w, 4 * math.pi, rtol=1e-14)

    def test_prolate_spheroid_area(self):
        # 2*pi + 8*pi^2 / (3*sqrt(3)) for semi-axes (2,1,1), from the
        # classical prolate closed form 2*pi*b^2 + 2*pi*a*b*asin(e)/e
        expected = 2 * math.pi + 8 * math.pi**2 / (3 * math.sqrt(3))
        m = 400_000
        _, w = vol.sample_surface(np.array([2.0, 1.0, 1.0]), m, SEED)
        se = np.std(w) / math.sqrt(m)
        assert np.mean(w) == pytest.approx(expected, abs=4 * se)

    def test_surface_integral_second_moment(self):
        # integral of z^2 over the unit sphere = 4*pi/3
        m = 200_000
        pts, w = vol.sample_surface(np.ones(3), m, SEED, stream=5)
        vals = pts[:, 2] ** 2 * w
        se = np.std(vals) / math.sqrt(m)
        assert np.mean(vals) == pytest.approx(4 * math.pi / 3, abs=4 * se)

    def test_points_on_surface(self):
        r = np.array([1.5, 0.8, 1.1])
        pts, _ = vol.sample_surface(r, 500, SEED, centre=np.array([1.0, 0.0, -2.0]))
        vals = geo.defining_value(np.array([1.0, 0.0, -2.0]), r, pts)
        np.testing.assert_allclose(vals, 0.0, atol=1e-12)


class TestIntersectionVolume:
    def test_self_intersection_is_shell_volume(self):
        spec = unit_shell(3, 0.1)
        est = vol.intersection_volume(spec, spec, 10_000, SEED)
        # every sample is a hit up to radial-boundary rounding (~1 ulp of the
        # inverse CDF), so the estimate is the closed form to ~1e-12 and the
        # standard error is cancellation noise, not statistical error
        assert est.value == pytest.approx(vol.shell_volume(np.ones(3), 0.1), rel=1e-12)
        assert est.std_error < 1e-6

    def test_against_grid_quadrature(self):
        # two unit-circle shells, delta=0.05, centres (0,0) and (1,0);
        # midpoint-grid oracle at 8192^2 cells gives 0.0057777 (converged
        # to ~2e-6 by resolution doubling)
        a = unit_shell(2, 0.05)
        b = geo.AnnulusSpec(geo.Ellipsoid(np.array([1.0, 0.0]), np.ones(2)), 0.05)
        est = vol.intersection_volume(a, b, 400_000, SEED)
        assert est.value == pytest.approx(0.0057777, abs=max(3 * est.std_error, 2e-5))

    def test_refined_below_plain(self):
        plain = unit_shell(3, 0.1)
        refined = dataclasses.replace(plain, axis=0)
        other = geo.AnnulusSpec(geo.Ellipsoid(np.full(3, 0.1), np.ones(3)), 0.1)
        est_plain = vol.intersection_volume(plain, other, 50_000, SEED, stream=1)
        est_ref = vol.intersection_volume(refined, other, 50_000, SEED, stream=1)
        # shared stream: domination is exact, not just statistical
        assert est_ref.value <= est_plain.value

    def test_disjoint_shells(self):
        a = unit_shell(2, 0.05)
        b = geo.AnnulusSpec(geo.Ellipsoid(np.array([5.0, 0.0]), np.ones(2)), 0.05)
        est = vol.intersection_volume(a, b, 10_000, SEED)
        assert est.value == 0.0


def scan_cell(n, delta, t, trial, seed, refined):
    """The ``(spec_a, spec_b)`` of one ``volume_bound_scan`` cell."""
    key = "volscan" if refined else "explore"
    lo, hi = geo.restricted_radii_box(n)
    rng = rng_stream(seed, derive_stream(f"{key}-radii", delta, t, trial))
    r1 = lo + (hi - lo) * rng.random(n)
    r2 = lo + (hi - lo) * rng.random(n)
    axis = 0 if refined else None
    spec_a = geo.AnnulusSpec(geo.Ellipsoid(np.zeros(n), np.ones(n)), delta, axis)
    spec_b = geo.AnnulusSpec(
        geo.Ellipsoid(t * geo.perturbed_axis_direction(0, r1), r2 / r1), delta, axis
    )
    return spec_a, spec_b


def zone_z(zone, points):
    """``u.e`` of each point's direction ``u``."""
    return (points / np.linalg.norm(points, axis=1, keepdims=True)) @ zone.e


def edge_points(spec_a, spec_b, rng, circles=64):
    """Reference points within 1e-9 of both shells' edges: on great circles
    of directions ``v``, the points ``c + r*sqrt(1 -+ delta_b)*v`` of the
    second shell's edges where ``|y|**2`` crosses ``1 -+ delta_a`` (bisected
    to the last bit), each moved by Gaussians of scale 1e-9 and 1e-15 (the
    latter mostly within rounding of the edges).  ``spec_a`` is a shell
    about the unit sphere."""
    ell = spec_b.ellipsoid
    n = ell.n
    theta = np.linspace(0.0, 2.0 * np.pi, 4097)
    found = []
    for _ in range(circles):
        v1, v2 = np.linalg.qr(rng.standard_normal((n, 2)))[0].T
        for side_b in (-1.0, 1.0):
            scale = ell.radii * math.sqrt(1.0 + side_b * spec_b.delta)

            def y(th):
                th = np.asarray(th)[..., None]
                return ell.centre + scale * (np.cos(th) * v1 + np.sin(th) * v2)

            for side_a in (-1.0, 1.0):
                target = 1.0 + side_a * spec_a.delta

                def f(th):
                    return np.sum(y(th) ** 2, axis=-1) - target

                vals = f(theta)
                for i in np.flatnonzero(np.sign(vals[:-1]) != np.sign(vals[1:])):
                    lo, hi = theta[i], theta[i + 1]
                    for _ in range(80):
                        mid = 0.5 * (lo + hi)
                        if np.sign(f(mid)) == np.sign(vals[i]):
                            lo = mid
                        else:
                            hi = mid
                    found.append(y(lo))
    return jittered(np.array(found), rng)


def jittered(points, rng, copies=8):
    """``copies`` copies of each point moved by a Gaussian of scale 1e-9 and
    as many by one of scale 1e-15."""
    base = np.repeat(points, copies, axis=0)
    moved = [base + scale * rng.standard_normal(base.shape) for scale in (1e-9, 1e-15)]
    return np.concatenate(moved)


class TestHitZone:
    """The zone that ``intersection_volume`` draws in, against the brute
    route that draws every base-shell point."""

    @pytest.mark.parametrize("refined", [True, False], ids=["refined", "plain"])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_scan_cells_hit_only_in_zone(self, n, refined):
        # the volume-bound cells at n = 2, 3, 4 and the explore-unrefined
        # offsets below delta, on their own streams
        hits, narrow = 0, 0
        for delta in (2.0**-5, 2.0**-7, 2.0**-9):
            for t in (delta / 2.0, 4.0 * delta, 2.0**-4, 2.0**-2, 1.0):
                spec_a, spec_b = scan_cell(n, delta, t, 0, SEED, refined)
                zone = vol._hit_zone(spec_a, spec_b)
                _, pts = brute_intersection_volume(spec_a, spec_b, 1 << 15, SEED, stream=n)
                z = zone_z(zone, pts)
                assert np.all((zone.z_lo <= z) & (z <= zone.z_hi))
                hits += pts.shape[0]
                narrow += zone.mass < 0.1
        assert hits > 1000
        assert narrow >= 5

    @pytest.mark.parametrize(
        "n,centre,radii",
        [
            (2, [0.3, 0.0], [1.0, 1.0]),
            (3, [0.3, 0.1, 0.0], [1.0, 1.0, 1.0]),
            (4, [0.0, 0.2, 0.2, 0.1], [0.9, 0.9, 0.9, 0.9]),
            (3, [0.0, 0.25, 0.25], [1.0, 0.98, 1.02]),
            (4, [0.0, 0.6, 0.6, 0.6], [1.01, 1.0, 0.99, 1.02]),
        ],
        ids=["n2", "n3", "n4", "n3-aniso", "n4-aniso"],
    )
    def test_edge_points_lie_in_zone(self, n, centre, radii):
        # float-accepted points within 1e-9 of both shells' edges; with equal
        # radii every edge point at one (|y|, F_B) corner has the same
        # u.e, so the zone's ends must sit on the extreme corners
        spec_a = unit_shell(n, 2.0**-5)
        spec_b = geo.AnnulusSpec(geo.Ellipsoid(np.array(centre), np.array(radii)), 2.0**-6)
        zone = vol._hit_zone(spec_a, spec_b)
        pts = edge_points(spec_a, spec_b, np.random.default_rng(n))
        pts = pts[geo.annulus_contains(spec_a, pts) & geo.annulus_contains(spec_b, pts)]
        assert pts.shape[0] > 500
        z = zone_z(zone, pts)
        assert np.all((zone.z_lo <= z) & (z <= zone.z_hi))
        if len(set(radii)) == 1:
            assert z.min() - zone.z_lo < 1e-7
            assert zone.z_hi - z.max() < 1e-7

    def test_interior_extreme_lies_in_zone(self):
        # a second sphere that meets |y| = 1 at right angles: the zone's lower
        # end comes from the radius s* = 1 inside the base shell, on the
        # second shell's outer edge, not from a corner of the two shells
        delta_b = 2.0**-6
        e = np.array([0.6, 0.8, 0.0])
        w = math.sqrt(2.0 + delta_b)
        spec_a = unit_shell(3, 2.0**-5)
        spec_b = geo.AnnulusSpec(geo.Ellipsoid(w * e, np.ones(3)), delta_b)
        zone = vol._hit_zone(spec_a, spec_b)
        z_star = 1.0 / w  # F_B(u) = 1 - 2 w z + w**2 - 1 = delta_b at |u| = 1
        rng = np.random.default_rng(3)
        v = rng.standard_normal((256, 3))
        v -= (v @ e)[:, None] * e
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        pts = jittered(z_star * e + math.sqrt(1.0 - z_star * z_star) * v, rng)
        pts = pts[geo.annulus_contains(spec_a, pts) & geo.annulus_contains(spec_b, pts)]
        assert pts.shape[0] > 500
        z = zone_z(zone, pts)
        assert np.all((zone.z_lo <= z) & (z <= zone.z_hi))
        assert z.min() - zone.z_lo < 1e-7

    def test_far_pair_edge_points_lie_in_zone(self):
        # both shells 2e5 from the origin, off the offset's axis: the affine
        # map rounds each coordinate by up to 2.9e-11 (half the float spacing
        # at 2e5), so the float test accepts edge points about 5e-11 beyond
        # the exact ends, past the end slack (about 1e-11 here).  Only the
        # lim margin, which grows with the squared coordinate sizes, holds them
        n, t, delta, rays = 3, 0.25, 2.0**-5, 256
        e, shift = np.eye(n)[0], 2e5 * np.eye(n)[1]
        spec_a = geo.AnnulusSpec(geo.Ellipsoid(shift, np.ones(n)), delta)
        spec_b = geo.AnnulusSpec(geo.Ellipsoid(shift + t * e, np.ones(n)), delta)
        zone = vol._hit_zone(spec_a, spec_b)
        v = np.random.default_rng(1).standard_normal((rays, n))
        v -= (v @ e)[:, None] * e
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        # F_B(s*u) = s**2 - 2 t s (u.e) + t**2 - 1 is delta at u.e = 0 on the
        # inner edge s0 and -delta at u.e = exact_hi on the outer edge s1;
        # bisect u.e on rays from inside the intersection out past each end
        ends = []
        s0, s1 = math.sqrt(1.0 - delta), math.sqrt(1.0 + delta)
        for s, inside, outside in ((s0, 0.06, -0.9), (s1, 0.18, 0.9)):

            def omega(z, s=s):
                return s * (z[:, None] * e + np.sqrt(1.0 - z * z)[:, None] * v)

            def accepts(z, omega=omega):
                return geo.annulus_contains(spec_b, geo.affine_map(shift, np.ones(n), omega(z)))

            z = last_counted(accepts, np.full(rays, inside), np.full(rays, outside))
            ends.append(zone_z(zone, omega(z)))
        low, high = ends
        exact_hi = (s1 * s1 + t * t - 1.0 + delta) / (2.0 * t * s1)
        assert low.min() < -2e-11 and high.max() > exact_hi + 2e-11
        assert np.all(low >= zone.z_lo) and np.all(high <= zone.z_hi)

    def test_concentric_zone_is_whole_or_empty(self):
        spec = unit_shell(3, 0.1)
        assert vol._hit_zone(spec, spec).mass == 1.0
        assert vol.intersection_volume(spec, spec, 1000, SEED).drawn == 1000
        far = geo.AnnulusSpec(geo.Ellipsoid(np.zeros(3), np.full(3, 2.0)), 0.1)
        assert vol._hit_zone(spec, far).mass == 0.0
        est = vol.intersection_volume(spec, far, 1000, SEED)
        assert est.value == 0.0 and est.drawn == 0

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_zone_mass_against_closed_forms(self, n):
        # the share of S^(n-1) with a <= u.e <= b: the law of u.e has density
        # proportional to (1 - z**2)**((n-3)/2), whose antiderivatives are
        # below (each up to a constant)
        cdf = {
            2: lambda z: math.asin(z) / math.pi,
            3: lambda z: z / 2.0,
            4: lambda z: (z * math.sqrt(1.0 - z * z) + math.asin(z)) / math.pi,
            5: lambda z: (3.0 * z - z**3) / 4.0,
            6: lambda z: (z * (5.0 - 2.0 * z * z) * math.sqrt(1.0 - z * z) + 3.0 * math.asin(z))
            / (3.0 * math.pi),
        }[n]
        e = np.eye(n)[n - 1]
        for a, b in [(-1.0, 1.0), (-0.3, 0.4), (0.9, 0.99), (-1.0, -0.999), (0.5, 0.5)]:
            mass = vol._HitZone(e, a, b).mass
            assert mass == pytest.approx(cdf(b) - cdf(a), rel=1e-12, abs=1e-15)
        assert vol._HitZone(e, 0.4, -0.3).mass == 0.0

    @pytest.mark.parametrize(
        "ends",
        [
            (0.4, -0.3), (-1.0, 1.0), (0.7, 1.0), (-0.3, 0.4), (-1.0, -0.2), (1.0, 1.0),
            (-1.0, -1.0),
        ],
        ids=["empty", "whole", "polar", "band", "south-end", "north-pole", "south-pole"],
    )
    def test_three_dimensional_law_keeps_scipy_bits(self, ends):
        # at n = 3, (1 + u.e)/2 is Beta(1, 1), whose CDF and its inverse are
        # the identity: the closed forms give scipy's betainc and betaincinv
        # values bit for bit
        from scipy.special import betainc, betaincinv

        zone = vol._HitZone(np.full(3, 1.0 / math.sqrt(3.0)), *ends)
        lo, hi = (float(betainc(1.0, 1.0, 0.5 * (1.0 + z))) for z in ends)
        assert zone._cdf() == (lo, hi)
        assert zone._cdf(upper=True) == tuple(
            float(betainc(1.0, 1.0, 0.5 * (1.0 - z))) for z in ends[::-1]
        )
        assert zone.mass == max(hi - lo, 0.0)
        got = zone._z(rng_stream(SEED, 3), 4096)
        want = 2.0 * betaincinv(1.0, 1.0, lo + (hi - lo) * rng_stream(SEED, 3).random(4096)) - 1.0
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 12])
    def test_polar_zone_mass_matches_the_cap_formula(self, n):
        # the share of S^(n-1) with u.e >= c in the closed form the Knapp cap
        # once used; at n >= 4 the zone mass is taken on the upper tails near
        # the pole, where 1 - betainc(...) would keep only ~1e-6 of it at n = 6
        from scipy.special import betainc

        e = np.eye(n)[0]
        for height in (1e-4, 3e-4, 1e-3, 1e-2, 0.1, 0.5, 1.0):
            c = 1.0 - height
            cap = 0.5 * float(betainc(0.5 * (n - 1), 0.5, 1.0 - c * c))
            assert vol._HitZone(e, c, 1.0).mass == pytest.approx(cap, rel=1e-8)

    @pytest.mark.parametrize(
        "ends", [(-0.2, 0.6), (0.9998, 1.0), (-1.0, 1.0)], ids=["band", "polar", "whole"]
    )
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 12])
    def test_zone_directions_follow_the_sphere_law(self, n, ends):
        # unit vectors of the zone whose u.e follows the conditioned law and
        # whose remaining component is symmetric about e: the inverse CDF at
        # n = 2, 3 and rejection at n >= 4.  The polar zone is the size of a
        # Knapp cap; at n = 12 its mass is ~1e-20, below the resolution of an
        # inverse CDF taken on the lower tails
        from scipy.stats import kstest

        e = np.full(n, 1.0 / math.sqrt(n))
        zone = vol._HitZone(e, *ends)
        u = zone.directions(rng_stream(SEED, n), 20_000)
        np.testing.assert_allclose(np.linalg.norm(u, axis=1), 1.0, rtol=1e-15)
        z = u @ e
        assert np.all((zone.z_lo <= z + 1e-15) & (z - 1e-15 <= zone.z_hi))
        law = np.vectorize(lambda x: vol._HitZone(e, zone.z_lo, x).mass / zone.mass)
        assert kstest(z, law).pvalue > 1e-3
        rest = u - z[:, None] * e
        scale = math.sqrt(np.mean(np.sum(rest * rest, axis=1)))  # tiny in the polar zone
        assert np.all(np.abs(rest.mean(axis=0)) < 5.0 * scale / math.sqrt(20_000))

    def test_same_law_as_brute_route(self):
        # one refined scan cell, 200 seeds per route (disjoint, so the two
        # routes are independent): mean hit counts within 3 combined
        # standard errors, and the hits' u.e and radius not told apart by a
        # two-sample KS test at 1e-3
        from scipy.stats import ks_2samp

        spec_a, spec_b = scan_cell(3, 2.0**-5, 2.0**-2, 0, 0, True)
        zone = vol._hit_zone(spec_a, spec_b)
        m = 1 << 13
        brute, drawn = [], []
        for seed in range(200):
            brute.append(brute_intersection_volume(spec_a, spec_b, m, seed)[1])
            drawn.append(vol._zone_hits(spec_a, spec_b, zone, rng_stream(1000 + seed), m)[1])
        counts_b = np.array([p.shape[0] for p in brute], dtype=float)
        counts_z = np.array([p.shape[0] for p in drawn], dtype=float)
        se = math.hypot(counts_b.std(ddof=1), counts_z.std(ddof=1)) / math.sqrt(200)
        assert counts_b.mean() > 100
        assert abs(counts_b.mean() - counts_z.mean()) <= 3.0 * se
        pooled_b, pooled_z = np.concatenate(brute), np.concatenate(drawn)
        assert ks_2samp(zone_z(zone, pooled_b), zone_z(zone, pooled_z)).pvalue > 1e-3
        radius_b, radius_z = (np.linalg.norm(p, axis=1) for p in (pooled_b, pooled_z))
        assert ks_2samp(radius_b, radius_z).pvalue > 1e-3

    def test_estimate_counts_its_draws(self):
        spec_a, spec_b = scan_cell(3, 2.0**-7, 2.0**-2, 0, SEED, True)
        m = 70_000  # two mc_mean chunks
        est = vol.intersection_volume(spec_a, spec_b, m, SEED)
        zone = vol._hit_zone(spec_a, spec_b)
        assert est.n_samples == m
        assert 0 < est.drawn < m
        assert abs(est.drawn - m * zone.mass) <= 5.0 * math.sqrt(m * zone.mass)


class TestVolumeBoundScan:
    def test_schema_and_sanity(self):
        rows = vol.volume_bound_scan(
            deltas=[2**-5], ts=[0.25, 1.0], pairs=3, m=20_000, seed=SEED
        )
        assert len(rows) == 6
        for row in rows:
            assert row["bound"] == pytest.approx(
                vol.pair_volume_bound(row["delta"], row["t"]), rel=1e-12
            )
            assert row["measured"] >= 0.0
            assert np.isfinite(row["ratio"])

    @pytest.mark.parametrize("n", [3, 4])
    def test_rows_equal_across_worker_counts(self, monkeypatch, n):
        # at n = 4 the zone draws u.e by rejection, so a chunk's uniform count
        # varies; the chunk's own keyed stream must still fix every row
        def run(workers):
            monkeypatch.setenv("HOMOEOID_THREADS", workers)
            # 70_000 samples span two mc_mean chunks per cell
            return vol.volume_bound_scan(
                deltas=[2**-5, 2**-6], ts=[0.25, 1.0], pairs=2, m=70_000, seed=SEED, n=n
            )

        rows = run("1")
        assert all(row["drawn"] > 0 for row in rows)
        assert run("2") == rows  # bit-identical, not approximately equal
        assert run("4") == rows

    def test_plain_scan_matches_explore_loop(self):
        # reference: the plain pairs built one by one on the "explore" streams
        n, axis, seed, pairs, m = 3, 0, 7, 2, 2000
        lo, hi = geo.restricted_radii_box(n)
        for delta in (2.0**-5, 2.0**-6):
            ts = (delta / 2.0, delta, 4.0 * delta, 2.0**-4, 2.0**-2)
            expected = []
            for t in ts:
                for trial in range(pairs):
                    rng = rng_stream(seed, derive_stream("explore-radii", delta, t, trial))
                    r1 = lo + (hi - lo) * rng.random(n)
                    r2 = lo + (hi - lo) * rng.random(n)
                    dtilde = geo.perturbed_axis_direction(axis, r1)
                    spec_a = geo.AnnulusSpec(geo.Ellipsoid(np.zeros(n), np.ones(n)), delta)
                    spec_b = geo.AnnulusSpec(geo.Ellipsoid(t * dtilde, r2 / r1), delta)
                    est = vol.intersection_volume(
                        spec_a, spec_b, m, seed, stream=derive_stream("explore", delta, t, trial)
                    )
                    bound = vol.pair_volume_bound(delta, t)
                    expected.append(
                        {
                            "delta": delta,
                            "t": t,
                            "seed": trial,
                            "measured": est.value,
                            "std_error": est.std_error,
                            "bound": bound,
                            "ratio": est.value / bound,
                            "drawn": est.drawn,
                        }
                    )
            rows = vol.volume_bound_scan(
                axis=axis, deltas=(delta,), ts=ts, pairs=pairs, m=m, seed=seed, n=n, refined=False
            )
            assert rows == expected

    def test_ratio_moderate_at_desk_scale(self):
        rows = vol.volume_bound_scan(deltas=[2**-6], ts=[2**-2], pairs=5, m=50_000, seed=SEED)
        worst = max(r["ratio"] for r in rows)
        assert 0.0 < worst < 50.0


class TestBandDecomposition:
    def test_partition_matches_independent_total(self):
        band = vol.banded_intersection_scan(
            axis=0,
            t=0.5,
            radii=np.array([1.3, 0.9, 1.1]),
            delta=2**-6,
            m=1 << 18,
            seed=SEED,
        )
        combined = math.sqrt(band.parts_std_error**2 + band.total.std_error**2)
        assert abs(band.parts_sum - band.total.value) <= 4 * combined

    def test_rho_grid(self):
        band = vol.banded_intersection_scan(
            axis=1, t=0.8, radii=np.ones(3) * 1.2, delta=2**-7, m=1 << 14, seed=SEED
        )
        rho0 = math.sqrt(0.8 * 2**-7)
        for i, rho in enumerate(band.rho_values):
            assert rho == pytest.approx(rho0 * 2 ** (i + 1))
            assert rho < 0.8
        assert len(band.bands) == len(band.rho_values)

    def test_requires_separation(self):
        with pytest.raises(ValueError):
            vol.banded_intersection_scan(
                axis=0, t=0.1, radii=np.ones(3), delta=0.05, m=100, seed=SEED
            )


class TestClusterReport:
    def test_empty_when_threshold_vanishes(self):
        report = vol.low_jacobian_cluster(
            axis=0,
            t=0.5,
            radii=np.array([1.4, 1.0, 0.8]),
            rho=1e-12,
            delta=2**-6,
            m=1 << 14,
            seed=SEED,
        )
        assert report.empty
        assert report.cluster_count == 0
        assert report.diameters == ()

    def test_clusters_resolve_tangency_pair(self):
        # radii (1.4, 1, 0.8), axis 0, offset t=0.3: the axis minors vanish at
        # omega_j* = t / (1 - r_j^2/r_0^2) for j=1,2 and the shell constraint
        # leaves omega_0 = +-sqrt(1 - |omega*|^2) — two isolated tangency
        # points, both inside the refined region.  At rho/t = 1/15 the linkage
        # scale is below their separation, so they appear as two clusters.
        r = np.array([1.4, 1.0, 0.8])
        t, rho = 0.3, 0.02
        w1 = t / (1 - r[1] ** 2 / r[0] ** 2)
        w2 = t / (1 - r[2] ** 2 / r[0] ** 2)
        w0 = math.sqrt(1 - w1 * w1 - w2 * w2)
        report = vol.low_jacobian_cluster(
            axis=0, t=t, radii=r, rho=rho, delta=2**-6, m=1 << 21, seed=SEED
        )
        assert not report.empty
        assert report.cluster_count == 2
        assert report.cluster_count == len(report.diameters)
        assert list(report.diameters) == sorted(report.diameters, reverse=True)
        assert report.scale == pytest.approx(2 * 8.0 * rho / t)
        assert all(0 <= d < report.scale for d in report.diameters)

    def test_merged_pair_at_coarse_scale(self):
        # same geometry, rho/t = 1/6: linkage scale 2.67 exceeds the pair
        # separation ~1.31, so the two components merge into one cluster
        report = vol.low_jacobian_cluster(
            axis=0,
            t=0.3,
            radii=np.array([1.4, 1.0, 0.8]),
            rho=0.05,
            delta=2**-6,
            m=1 << 16,
            seed=SEED,
        )
        assert not report.empty
        assert report.cluster_count == 1

    @pytest.mark.parametrize("max_keep", [10, 40], ids=["first-chunk", "several-chunks"])
    def test_report_equal_across_worker_counts(self, monkeypatch, max_keep):
        monkeypatch.setattr(vol, "_MAX_KEEP", max_keep)

        def run(workers, m):
            monkeypatch.setenv("HOMOEOID_THREADS", workers)
            return vol.low_jacobian_cluster(
                axis=0,
                t=0.3,
                radii=np.array([1.4, 1.0, 0.8]),
                rho=0.05,
                delta=2**-6,
                m=m,
                seed=SEED,
            )

        m = 3 * (1 << 16) + 123  # four sample batches, the last one short
        # batch 0 has the same stream and size at both m, so it draws the
        # same count in the cover and the same points
        first_batch = run("1", 1 << 16).accepted
        if max_keep == 10:
            assert max_keep < first_batch
        else:
            assert first_batch < max_keep < run("1", m).accepted
        assert run("1", m) == run("2", m)

    def test_cover_is_specific_to_three_dimensions(self):
        with pytest.raises(ValueError, match="specific to n=3"):
            vol.low_jacobian_cluster(
                axis=0, t=0.3, radii=np.ones(4), rho=0.05, delta=2**-6, m=64, seed=SEED
            )

    def test_refinement_removes_axis_tangency(self):
        # equal radii: the tangency points sit at omega parallel to the centre
        # direction, whose axis coordinate vanishes — exactly the region the
        # refinement deletes, so the low-norm set is empty
        report = vol.low_jacobian_cluster(
            axis=0,
            t=0.6,
            radii=np.ones(3),
            rho=0.01,
            delta=2**-7,
            m=1 << 15,
            seed=SEED,
        )
        assert report.empty


def scipy_single_linkage(pts, scale):
    """``(distances, labels, diameters)`` by scipy's ``pdist``, ``linkage``
    and ``fcluster``: the route ``volumes._single_linkage`` replaces, kept as
    its oracle.  Labels run from 1; ``diameters[i]`` is label ``i + 1``'s."""
    from scipy.cluster.hierarchy import fcluster, linkage
    from scipy.spatial.distance import pdist, squareform

    dist = pdist(pts)
    labels = fcluster(linkage(dist, method="single"), t=scale, criterion="distance")
    square = squareform(dist)
    diameters = [
        float(square[np.ix_(labels == lab, labels == lab)].max()) for lab in np.unique(labels)
    ]
    return square, labels, diameters


class TestSingleLinkage:
    """``low_jacobian_cluster``'s numpy single linkage against scipy's."""

    @staticmethod
    def check(pts, scale):
        square, want_labels, want_diameters = scipy_single_linkage(pts, scale)
        np.testing.assert_array_equal(vol._pair_distances(pts), square)
        labels, diameters = vol._single_linkage(pts, scale)
        # one partition: each label meets one scipy label, and the counts agree
        pairs = set(zip(labels.tolist(), want_labels.tolist()))
        assert len(pairs) == diameters.size == want_labels.max()
        # numbered by first point, each with its scipy cluster's diameter
        first = np.unique(labels, return_index=True)[1]
        np.testing.assert_array_equal(labels[first], np.arange(diameters.size))
        assert diameters.tolist() == [want_diameters[want_labels[i] - 1] for i in first]
        return diameters.size

    def test_random_sets_match_scipy(self):
        # half the scales are distances of the set itself, so ties occur
        rng = np.random.default_rng(SEED)
        for trial in range(300):
            k = int(rng.integers(2, 80))
            pts = rng.standard_normal((k, 3)) * rng.uniform(0.01, 2.0)
            if trial % 5 == 0:
                pts[rng.integers(k, size=k // 3)] = pts[-1]  # duplicate points
            dist = vol._pair_distances(pts)[np.triu_indices(k, 1)]
            scale = float(rng.choice(dist)) if trial % 2 else float(rng.uniform(0.0, dist.max()))
            self.check(pts, scale)

    @pytest.mark.parametrize(
        "case,count",
        [("tie", 1), ("duplicates", 2), ("singletons", 4), ("one-cluster", 1), ("pair", 2)],
    )
    def test_edge_cases_match_scipy(self, case, count):
        line = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0], [3.0, 0.0, 0.0]])
        pts, scale = {
            "tie": (line, 1.0),  # every neighbour exactly at the scale
            "duplicates": (line[[0, 0, 3, 3]], 0.0),
            "singletons": (line, 0.5),
            "one-cluster": (line, 3.0),
            "pair": (line[[0, 2]], 1.5),
        }[case]
        assert self.check(pts, scale) == count

    def test_memory_at_max_keep(self):
        # at _MAX_KEEP points the (k, k) distances take 128 MB; scipy's
        # pdist and squareform held 192 MB
        import tracemalloc

        k = vol._MAX_KEEP
        pts = np.random.default_rng(SEED).random((k, 3))
        tracemalloc.start()
        try:
            vol._single_linkage(pts, 0.05)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.1 * k * k * 8

    def test_report_matches_scipy_linkage(self):
        # the two-cluster tangency pair: the report's count and diameters are scipy's
        cfg = geo.TangencyConfig(0, 0.3, np.array([1.4, 1.0, 0.8]))
        rho, delta, m = 0.02, 2**-6, 1 << 19
        pts = vol._low_tangency_points(cfg, rho, delta, m, SEED, vol._MAX_KEEP)[2]
        report = vol.low_jacobian_cluster(
            axis=0, t=0.3, radii=cfg.radii, rho=rho, delta=delta, m=m, seed=SEED
        )
        _, labels, diameters = scipy_single_linkage(pts, 16.0 * rho / 0.3)
        assert report.cluster_count == labels.max() == 2
        assert report.diameters == tuple(sorted(diameters, reverse=True))


class TestTangencyCover:
    """The cover that ``low_jacobian_cluster`` draws in, against the brute
    route that draws every shell point."""

    SEEDED = [(i, factor) for i in range(5) for factor in (1.0, 0.5)]

    @pytest.mark.parametrize("index,factor", SEEDED)
    def test_seeded_configs_accept_only_in_cover(self, index, factor):
        # the clusters experiment's configs and streams, at its 2^21 draws
        t, radii = vol.seeded_cluster_configs(0, 5)[index]
        cfg = geo.TangencyConfig(0, t, radii)
        rho, delta = factor * t / 16.0, 2.0**-9
        cover = vol._tangency_cover(cfg, rho, delta)
        seed = derive_stream("cluster-run", 0, index)
        pts = brute_cluster_points(cfg, rho, delta, 1 << 21, seed)
        assert pts.shape[0] > 0
        assert in_cover(cover, pts, 0).all()
        assert cover.fraction < 1e-3

    @pytest.mark.parametrize(
        "axis,rho",
        [(0, 0.02), (0, 0.05), (0, 1e-12), (1, 0.05)],
        ids=["0.02", "0.05", "1e-12", "axis1"],
    )
    def test_tangency_pair_geometry_accepts_only_in_cover(self, axis, rho):
        # the geometry of TestClusterReport, rolled so that ``axis`` plays axis 0's part
        r = np.roll([1.4, 1.0, 0.8], axis)
        cfg = geo.TangencyConfig(axis, 0.3, r)
        cover = vol._tangency_cover(cfg, rho, 2**-6)
        pts = brute_cluster_points(cfg, rho, 2**-6, 1 << 21, SEED)
        # points within 1e-8 of the exact tangency pair: at rho = 1e-12 the
        # Gram kernel accepts many of them only through its rounding
        w1 = 0.3 / (1 - 1.0 / 1.4**2)
        w2 = 0.3 / (1 - 0.8**2 / 1.4**2)
        w0 = math.sqrt(1 - w1 * w1 - w2 * w2)
        pair = np.roll([[w0, w1, w2], [-w0, w1, w2]], axis, axis=1)[:, None, :]
        near = pair + 1e-8 * np.random.default_rng(0).standard_normal((2, 2048, 3))
        near = near.reshape(-1, 3)
        ok = geo.refinement_indicator(near, axis) & (geo.jacobian_gram_norm(cfg, near) < rho)
        assert ok.sum() > 100
        pts = np.concatenate([pts, near[ok]])
        assert in_cover(cover, pts, axis).all()

    def test_gram_rounding_margin_keeps_float_accepted_points(self, monkeypatch):
        # kappa bounds the Gram kernel's rounding of N**2, which at rho =
        # 1e-12 accepts unit points within ~1e-8 of the tangency pair.  At the
        # default depth a cell's own slack dwarfs kappa; on a shell of width
        # 1e-10 the low set is nearly the pair itself, so a cover refined
        # deeper has cells far finer than that rounding, and only kappa keeps
        # the cells around those points
        monkeypatch.setattr(vol, "_COVER_DEPTH", 32)
        cfg = geo.TangencyConfig(0, 0.3, np.array([1.4, 1.0, 0.8]))
        cover = vol._tangency_cover(cfg, 1e-12, 1e-10)
        assert cover.dz < 1e-7
        w1 = 0.3 / (1 - 1.0 / 1.4**2)
        w2 = 0.3 / (1 - 0.8**2 / 1.4**2)
        w0 = math.sqrt(1 - w1 * w1 - w2 * w2)
        pair = np.array([[w0, w1, w2], [-w0, w1, w2]])[:, None, :]
        near = pair + 1e-8 * np.random.default_rng(0).standard_normal((2, 1024, 3))
        near = near.reshape(-1, 3)
        near /= np.linalg.norm(near, axis=1, keepdims=True)
        ok = geo.refinement_indicator(near, 0) & (geo.jacobian_gram_norm(cfg, near) < 1e-12)
        assert ok.sum() > 100
        assert in_cover(cover, near[ok], 0).all()

    def test_axis_term_moves_linearly_on_the_sphere(self):
        # why the h**2 term of the cell slack binds no point: between unit
        # vectors, A(u) = u x Du moves by at most |u - u_c| (|D u_c| + max D),
        # since A(u) - A(u_c) = u x D(u - u_c) + (u - u_c) x D u_c and |u| = 1.
        # At depths 0 to 3 a search over configurations found every cell's
        # minimum of N at least 14% above the bound without that term.
        rng = np.random.default_rng(SEED)
        k = 100_000
        d = 1.0 / rng.uniform(0.5, 2.0, (k, 3)) ** 2  # D for radii in [1/2, 2]
        u_c = rng.standard_normal((k, 3))
        u_c /= np.linalg.norm(u_c, axis=1, keepdims=True)
        u = u_c + rng.uniform(0.0, 1.0, (k, 1)) * rng.standard_normal((k, 3))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        move = np.linalg.norm(np.cross(u, d * u) - np.cross(u_c, d * u_c), axis=1)
        chord = np.linalg.norm(u - u_c, axis=1)
        linear = chord * (np.linalg.norm(d * u_c, axis=1) + d.max(axis=1))
        assert np.all(move <= linear * (1.0 + 1e-12))
        # the expansion about u_c in the docstring needs its h**2 term
        expansion = np.linalg.norm(
            np.cross(u - u_c, d * u_c) + np.cross(u_c, d * (u - u_c)), axis=1
        )
        assert np.any(move > expansion)

    def test_same_law_as_brute_route(self):
        # one configuration, 200 seeds per route (disjoint, so the two routes
        # are independent) at m = 2^16: mean accepted counts within 3
        # combined standard errors, and the pooled accepted coordinates not
        # told apart by a two-sample KS test at 1e-3
        from scipy.stats import ks_2samp

        cfg = geo.TangencyConfig(0, 0.3, np.array([1.4, 1.0, 0.8]))
        rho, delta, m = 0.05, 2**-6, 1 << 16
        brute, cover = [], []
        for seed in range(200):
            brute.append(brute_cluster_points(cfg, rho, delta, m, seed))
            cover.append(vol._low_tangency_points(cfg, rho, delta, m, 1000 + seed, m)[2])
        counts_b = np.array([p.shape[0] for p in brute], dtype=float)
        counts_c = np.array([p.shape[0] for p in cover], dtype=float)
        se = math.hypot(counts_b.std(ddof=1), counts_c.std(ddof=1)) / math.sqrt(200)
        assert counts_b.mean() > 10
        assert abs(counts_b.mean() - counts_c.mean()) <= 3.0 * se
        pooled_b, pooled_c = np.concatenate(brute), np.concatenate(cover)
        for j in range(3):
            assert ks_2samp(pooled_b[:, j], pooled_c[:, j]).pvalue > 1e-3

    def test_draws_are_uniform_inside_their_cells(self):
        # rho far above every Gram norm: the cover keeps every cell (65,536
        # after six quarterings), and only the refinement's edge, a sliver
        # of one z row in each band, rejects a draw; each accepted point's
        # position inside its cell is then uniform in z and in phi (KS at 1e-3)
        from scipy.stats import kstest

        cfg = geo.TangencyConfig(0, 0.3, np.array([1.4, 1.0, 0.8]))
        rho, delta, m = 1e6, 2**-9, 1 << 17
        cover = vol._tangency_cover(cfg, rho, delta)
        z_lo = cover.z[cover.z > 0].min()
        assert cover.z.size == 65536 and cover.fraction == pytest.approx(1.0 - z_lo)
        drawn, accepted, pts = vol._low_tangency_points(cfg, rho, delta, m, SEED, m)
        assert accepted > 0.999 * drawn > 0.6 * m
        u = pts / np.linalg.norm(pts, axis=1, keepdims=True)
        phi = np.mod(np.arctan2(u[:, 2], u[:, 1]), 2.0 * np.pi)
        origin = np.where(u[:, 0] > 0, z_lo, -1.0)  # the two bands' lower ends
        for position in ((u[:, 0] - origin) / cover.dz, phi / cover.dphi):
            assert kstest(np.mod(position, 1.0), "uniform").pvalue > 1e-3


class TestSeededClusterConfigs:
    def test_deterministic_and_prefix_stable(self):
        first = vol.seeded_cluster_configs(7, 6)
        again = vol.seeded_cluster_configs(7, 6)
        longer = vol.seeded_cluster_configs(7, 12)
        assert len(first) == 6
        for (t_a, r_a), (t_b, r_b) in zip(first, again):
            assert t_a == t_b
            np.testing.assert_array_equal(r_a, r_b)
        # per-index streams: extending the ensemble keeps earlier entries
        for (t_a, r_a), (t_b, r_b) in zip(first, longer):
            assert t_a == t_b
            np.testing.assert_array_equal(r_a, r_b)

    def test_configs_are_admissible(self):
        for t, radii in vol.seeded_cluster_configs(0, 25):
            assert 0.25 <= t <= 0.45
            assert radii.shape == (3,)
            np.testing.assert_array_less(radii, np.array([1.1, 0.77, 1.485]) + 1e-12)
            np.testing.assert_array_less(np.array([0.9, 0.63, 1.215]) - 1e-12, radii)
            transverse = 1.0 - sum(
                (t / (1.0 - (radii[j] / radii[0]) ** 2)) ** 2 for j in (1, 2)
            )
            assert 0.45 <= transverse <= 0.85

    def test_low_norm_set_resolves_for_sampled_config(self):
        t, radii = vol.seeded_cluster_configs(0, 1)[0]
        report = vol.low_jacobian_cluster(
            axis=0, t=t, radii=radii, rho=t / 16, delta=2**-9, m=1 << 19, seed=SEED
        )
        assert not report.empty
        assert 1 <= report.cluster_count <= 2
        assert max(report.diameters) * t / (t / 16) < 2.0

    def test_count_must_be_positive(self):
        with pytest.raises(ValueError):
            vol.seeded_cluster_configs(0, 0)
