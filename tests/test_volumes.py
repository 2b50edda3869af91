"""Tests for shell volumes, intersection estimates, bands, and clusters."""

import math

import numpy as np
import pytest

from homoeoid import geometry as geo
from homoeoid import volumes as vol
from homoeoid.mc import derive_stream, rng_stream

SEED = 20240817


def unit_shell(n, delta):
    return geo.AnnulusSpec(geo.Ellipsoid(np.zeros(n), np.ones(n)), delta)


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
        refined = geo.RefinedAnnulusSpec(plain, axis=0)
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

    def test_rows_equal_across_worker_counts(self, monkeypatch):
        def run(workers):
            monkeypatch.setenv("HOMOEOID_THREADS", workers)
            # 70_000 samples span two mc_mean chunks per cell
            return vol.volume_bound_scan(
                deltas=[2**-5, 2**-6], ts=[0.25, 1.0], pairs=2, m=70_000, seed=SEED
            )

        assert run("1") == run("2")  # bit-identical, not approximately equal

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
                max_keep=max_keep,
            )

        m = 3 * (1 << 16) + 123  # four sample batches, the last one short
        first_batch = run("1", 1 << 16).accepted  # batch 0 has the same stream
        if max_keep == 10:
            assert max_keep < first_batch
        else:
            assert first_batch < max_keep < run("1", m).accepted
        assert run("1", m) == run("2", m)

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
