"""Unit and property tests for the core shell/tangency geometry."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from homoeoid import geometry as geo
from homoeoid import maximal, multiplicity
from homoeoid.mc import DEFAULT_CHUNK

from helpers import fd_jacobian_richardson


def vectors(n, lo, hi):
    return hnp.arrays(np.float64, n, elements=st.floats(lo, hi, allow_nan=False))


def shell_points(n, rmin=0.5, rmax=2.0):
    """Points with rmin <= |omega| <= rmax, built from direction + radius."""
    return st.tuples(
        vectors(n, -1.0, 1.0).filter(lambda v: np.linalg.norm(v) > 1e-3),
        st.floats(rmin, rmax),
    ).map(lambda dr: dr[1] * dr[0] / np.linalg.norm(dr[0]))


def configs(n):
    cut = geo.default_refinement_cut(n)
    return st.tuples(
        st.integers(0, n - 1),
        st.floats(0.0, 2.0),
        vectors(n, 0.5, 2.0),
        vectors(n, -(cut * cut), cut * cut),
    ).map(
        lambda akrp: geo.TangencyConfig(
            axis=akrp[0],
            t=akrp[1],
            radii=akrp[2],
            dtilde=geo.axis_direction(n, akrp[0]) + akrp[3],
        )
    )


class TestDefiningFunction:
    def test_on_surface(self):
        assert geo.defining_value([0.0, 0.0], [1.0, 2.0], [0.0, 2.0]) == pytest.approx(0.0)

    def test_gradient_matches_fd(self):
        centre = np.array([0.3, -0.2, 0.1])
        radii = np.array([1.2, 0.8, 1.5])
        y = np.array([1.0, 0.4, -0.7])
        jac = fd_jacobian_richardson(lambda p: np.array([geo.defining_value(centre, radii, p)]), y)
        np.testing.assert_allclose(jac[0], geo.defining_gradient(centre, radii, y), rtol=1e-8)

    @given(vectors(3, -2, 2), vectors(3, 0.5, 2.0), vectors(3, -3, 3))
    def test_affine_roundtrip(self, centre, radii, w):
        y = geo.affine_map(centre, radii, w)
        np.testing.assert_array_equal(y, centre + radii * w)

    @given(vectors(3, -2, 2), vectors(3, 0.5, 2.0), vectors(3, -3, 3))
    def test_defining_value_is_affine_pullback(self, centre, radii, w):
        # F_{x,r}(x + r*w) equals the reference value |w|^2 - 1
        y = geo.affine_map(centre, radii, w)
        assert geo.defining_value(centre, radii, y) == pytest.approx(
            np.sum(w * w) - 1.0, abs=1e-9
        )


class TestAnnulusMembership:
    def test_plain_and_refined(self):
        shell = geo.AnnulusSpec(geo.Ellipsoid(np.zeros(2), np.ones(2)), delta=0.1)
        pt = np.array([1.04, 0.0])
        assert geo.annulus_contains(shell, pt)
        assert geo.annulus_contains(dataclasses.replace(shell, axis=0), pt)
        assert not geo.annulus_contains(dataclasses.replace(shell, axis=1), pt)

    def test_batched(self):
        shell = geo.AnnulusSpec(geo.Ellipsoid(np.zeros(3), np.array([1.0, 2.0, 1.0])), 0.05)
        pts = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 2.01, 0.0]])
        np.testing.assert_array_equal(
            geo.annulus_contains(shell, pts), [True, False, True]
        )

    def test_refined_uses_pullback_coordinates(self):
        # anisotropic radii: the refinement filter acts on omega, not on y
        ell = geo.Ellipsoid(np.array([5.0, 0.0]), np.array([0.1, 1.0]))
        shell = geo.AnnulusSpec(ell, 0.2)
        y = geo.affine_map(ell.centre, ell.radii, np.array([1.0, 0.05]))
        assert geo.annulus_contains(dataclasses.replace(shell, axis=0), y)
        assert not geo.annulus_contains(dataclasses.replace(shell, axis=1), y)

    @given(shell_points(3, 1.0 - 0.09, 1.0 + 0.09))
    def test_refinements_cover_the_shell(self, w):
        shell = geo.AnnulusSpec(geo.Ellipsoid(np.zeros(3), np.ones(3)), 0.2)
        assert geo.annulus_contains(shell, w)
        assert any(
            geo.annulus_contains(dataclasses.replace(shell, axis=a), w) for a in range(3)
        )

    def test_delta_range_enforced(self):
        ell = geo.Ellipsoid(np.zeros(2), np.ones(2))
        with pytest.raises(ValueError):
            geo.AnnulusSpec(ell, 0.0)
        with pytest.raises(ValueError):
            geo.AnnulusSpec(ell, 0.6)


def reference_membership(centre, radii, delta, points, axis=None, cut=None):
    """The composition the many-shell kernel replaces, one shell at a time."""
    inside = np.abs(geo.defining_value(centre, radii, points)) < delta
    if axis is not None:
        omega = (points - centre) / radii
        inside = inside & (np.abs(omega[..., axis]) ** 3 >= 2.0 * cut)
    return inside


class TestCubeTest:
    """``_cube_at_least`` against the ``**`` mask it replaces, bit for bit."""

    @staticmethod
    def nearest_floats(value: float, count: int) -> np.ndarray:
        """The ``count`` floats nearest ``value``, ``value`` among them."""
        bits = np.float64(value).view(np.int64) + np.arange(-(count // 2), count - count // 2)
        return bits.view(np.float64)

    def test_random_values(self):
        rng = np.random.default_rng(12)
        a = np.abs(rng.standard_normal(1 << 20)) * 0.6
        for bound in (2.0 * geo.default_refinement_cut(3), 0.125, 1e-300, 7.5):
            np.testing.assert_array_equal(geo._cube_at_least(a, bound), a**3 >= bound)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_floats_nearest_the_cube_root_of_the_default_cut(self, n):
        bound = 2.0 * geo.default_refinement_cut(n)
        a = self.nearest_floats(bound ** (1.0 / 3.0), 4000)
        want = a**3 >= bound
        assert want.any() and not want.all()  # the window straddles the cut
        np.testing.assert_array_equal(geo._cube_at_least(a, bound), want)
        # the band around the cut is recomputed with ** in place of the product
        cube = a * a * a
        assert np.any(np.abs(cube - bound) <= geo._CUBE_SLACK * bound)

    def test_special_values(self):
        a = np.array([0.0, np.inf, np.nan, 5e-324, 1e103, 1e-100])
        for bound in (0.0, 1e-300, 0.5):
            with np.errstate(over="ignore", under="ignore"):  # 1e103 cubed overflows in both
                np.testing.assert_array_equal(geo._cube_at_least(a, bound), a**3 >= bound)

    def test_shapes_and_zero_d_input(self):
        bound = 2.0 * geo.default_refinement_cut(3)
        root = bound ** (1.0 / 3.0)
        a = self.nearest_floats(root, 24).reshape(2, 3, 4)
        np.testing.assert_array_equal(geo._cube_at_least(a, bound), a**3 >= bound)
        for value in (root, 0.1, 2.0):
            got = geo._cube_at_least(np.float64(value), bound)
            assert isinstance(got, np.bool_) and got == (np.float64(value) ** 3 >= bound)
            assert geo._cube_at_least(np.array(value), bound) == (value**3 >= bound)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_refinement_indicator_matches_power(self, n):
        rng = np.random.default_rng(n)
        omega = rng.uniform(-1.2, 1.2, (50, 7, n))
        cut = geo.default_refinement_cut(n)
        root = (2.0 * cut) ** (1.0 / 3.0)
        omega[0, :, 0] = -self.nearest_floats(root, 7)
        for axis in range(n):
            want = np.abs(omega[..., axis]) ** 3 >= 2.0 * cut
            np.testing.assert_array_equal(geo.refinement_indicator(omega, axis), want)
            single = geo.refinement_indicator(omega[0, 0], axis)
            assert single.shape == () and single == want[0, 0]


class TestShellMembershipKernel:
    """``shell_membership`` and ``annulus_contains`` against the reference
    composition, bit for bit, including points exactly on both boundaries.

    The kernels read the cut from ``default_refinement_cut``; each case
    patches it to a value that puts one point exactly on the cut."""

    @staticmethod
    def case(n, seed, monkeypatch):
        rng = np.random.default_rng(seed)
        k = 3
        centres = rng.uniform(-0.5, 0.5, (k, n))
        radii = rng.uniform(0.5, 2.0, (k, n))
        axis = int(rng.integers(n))
        # leading batch dimensions (4, 5), scattered around shell 0 across both edges
        u = rng.normal(size=(4, 5, n))
        u /= np.linalg.norm(u, axis=-1, keepdims=True)
        scale = np.sqrt(rng.uniform(0.6, 1.4, (4, 5, 1)))
        points = centres[0] + radii[0] * scale * u
        # delta is the defect of point (0, 0), which then lies exactly on
        # |F| = delta of shell 0; the cut is set from point (0, 1), which then
        # lies exactly on the refinement cut of shell 1.  Both come from the
        # batched array operations the reference itself evaluates.
        delta = float(np.abs(geo.defining_value(centres[0], radii[0], points))[0, 0])
        omega = (points - centres[1]) / radii[1]
        cut = float((np.abs(omega[..., axis]) ** 3)[0, 1] / 2.0)
        assert 0.0 < delta <= geo.MAX_SHELL_WIDTH and cut > 0.0
        monkeypatch.setattr(geo, "default_refinement_cut", lambda dim: cut)
        return centres, radii, delta, points, axis, cut

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_kernel_matches_reference(self, n, seed, monkeypatch):
        centres, radii, delta, points, axis, cut = self.case(n, seed, monkeypatch)
        columns = points.reshape(-1, n).T
        shell, sector = geo.shell_membership(centres, radii, delta, columns, axis)
        plain, none = geo.shell_membership(centres, radii, delta, columns)
        assert none is None
        shell, sector, plain = (mask.T.reshape(4, 5, 3) for mask in (shell, sector, plain))
        assert shell.shape == sector.shape == plain.shape == (4, 5, 3)
        assert shell.dtype == sector.dtype == bool
        for i in range(3):
            c, r = centres[i], radii[i]
            np.testing.assert_array_equal(shell[..., i], reference_membership(c, r, delta, points))
            np.testing.assert_array_equal(plain[..., i], shell[..., i])
            np.testing.assert_array_equal(
                (shell & sector)[..., i],
                reference_membership(c, r, delta, points, axis, cut),
            )
        # the boundary points: |F| = delta is outside, the cut itself is inside
        assert not shell[0, 0, 0]
        assert sector[0, 1, 1]

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_annulus_contains_matches_reference(self, n, monkeypatch):
        centres, radii, delta, points, axis, cut = self.case(n, 10 + n, monkeypatch)
        for i in range(3):
            spec = geo.AnnulusSpec(geo.Ellipsoid(centres[i], radii[i]), delta)
            refined = dataclasses.replace(spec, axis=axis)
            c, r = centres[i], radii[i]
            np.testing.assert_array_equal(
                geo.annulus_contains(spec, points), reference_membership(c, r, delta, points)
            )
            np.testing.assert_array_equal(
                geo.annulus_contains(refined, points),
                reference_membership(c, r, delta, points, axis, cut),
            )
            # a single point still gives a scalar
            single = geo.annulus_contains(refined, points[0, 1])
            assert single.shape == () and single == reference_membership(
                c, r, delta, points[0, 1], axis, cut
            )


class TestCovering:
    @given(shell_points(4, 2**-0.5, 2.0))
    def test_margin_on_admissible_shells(self, w):
        # factor-two margin for the default cut, tight as |w| -> 2**-0.5
        assert geo.covering_margin(w) >= 2.0 * geo.default_refinement_cut(4) - 1e-12

    def test_margin_formula(self):
        w = np.array([0.1, -0.8, 0.2])
        expected = 0.8**3 - 2.0 * geo.default_refinement_cut(3)
        assert geo.covering_margin(w) == pytest.approx(expected)

    def test_default_cut_value(self):
        assert geo.default_refinement_cut(3) == pytest.approx(6**-1.5 / 4)


class TestTangencyFunctional:
    @settings(max_examples=200)
    @given(configs(3), shell_points(3))
    def test_dual_evaluation_agrees(self, cfg, w):
        # 'both' raises beyond 1e-10 relative discrepancy; must never trigger
        geo.jacobian_gram_norm(cfg, w, method="both")

    @given(configs(4), shell_points(4))
    def test_minors_match_raw_gradient_crosses(self, cfg, w):
        # double transcription: the expanded minor polynomials against cross
        # terms assembled directly from the two gradients (both routes are
        # cancellation-free, unlike the Gram formula)
        a = 2.0 * w
        b = geo.defining_gradient(cfg.centre, cfg.radii, w)
        cross = np.outer(a, b) - np.outer(b, a)
        expected = np.sqrt(0.5 * np.sum(cross * cross))
        assert geo.jacobian_gram_norm(cfg, w, method="minors") == pytest.approx(
            expected, abs=1e-10, rel=1e-10
        )

    @given(configs(3), shell_points(3), st.integers(0, 2), st.integers(0, 2))
    def test_minor_antisymmetry(self, cfg, w, i, j):
        gij = geo.gradient_minor(cfg, w, i, j)
        gji = geo.gradient_minor(cfg, w, j, i)
        assert gij == pytest.approx(-gji, abs=1e-12)

    @given(configs(4), shell_points(4), st.integers(0, 3), st.integers(0, 3))
    def test_syzygy(self, cfg, w, i, j):
        """w_k * G_{ij} == w_j * G_i - w_i * G_j for the axis minors G_m."""
        k = cfg.axis
        lhs = w[k] * geo.gradient_minor(cfg, w, i, j)
        minors = geo.axis_minors(cfg, w)
        rhs = w[j] * minors[i] - w[i] * minors[j]
        assert lhs == pytest.approx(rhs, abs=1e-10)

    @given(configs(3), shell_points(3))
    def test_axis_minors_match_pairwise(self, cfg, w):
        k = cfg.axis
        minors = geo.axis_minors(cfg, w)
        for j in range(3):
            expected = 0.0 if j == k else geo.gradient_minor(cfg, w, j, k)
            assert minors[j] == pytest.approx(expected, abs=1e-13)


def reference_gram_sq(cfg, w):
    """The trailing-axis Gram route the coordinate-major kernel replaces."""
    a = 2.0 * w
    b = geo.defining_gradient(cfg.centre, cfg.radii, w)
    aa = np.sum(a * a, axis=-1)
    bb = np.sum(b * b, axis=-1)
    ab = np.sum(a * b, axis=-1)
    return aa * bb - ab * ab, aa * bb


def reference_covering_margin(w, cut):
    return np.max(np.abs(w), axis=-1) ** 3 - 2.0 * cut


class TestCoordinateKernels:
    """The Gram route and the covering margin against their trailing-axis
    references, bit for bit, on (4, 5) batches and on single points."""

    @staticmethod
    def case(n, seed):
        rng = np.random.default_rng(seed)
        cut = geo.default_refinement_cut(n)
        axis = int(rng.integers(n))
        dtilde = geo.axis_direction(n, axis) + rng.uniform(-cut * cut, cut * cut, n)
        cfg = geo.TangencyConfig(
            axis, float(rng.uniform(0.1, 1.9)), rng.uniform(0.5, 2.0, n), dtilde
        )
        w = rng.normal(size=(4, 5, n))
        # tangent points: w_j = x_j / (1 - lam * r_j**2) makes b = lam * a,
        # so the Gram subtraction cancels down to rounding noise
        lam = rng.uniform(-2.0, -0.5, (5, 1))
        w[0] = cfg.centre / (1.0 - lam * cfg.radii**2)
        return cfg, w

    @pytest.mark.parametrize("seed", range(2))
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_gram_route_matches_reference(self, n, seed):
        cfg, w = self.case(n, seed)
        sq, scale = geo._gram_norm_sq(cfg, w, "gram")
        want_sq, want_scale = reference_gram_sq(cfg, w)
        np.testing.assert_array_equal(sq, want_sq)
        np.testing.assert_array_equal(scale, want_scale)
        norm = geo.jacobian_gram_norm(cfg, w)
        assert norm.shape == (4, 5)
        np.testing.assert_array_equal(norm, np.sqrt(np.maximum(want_sq, 0.0)))
        assert np.all(norm[0] <= 1e-6 * np.sqrt(want_scale[0]))
        single = geo.jacobian_gram_norm(cfg, w[1, 2])
        want = np.sqrt(np.maximum(reference_gram_sq(cfg, w[1, 2])[0], 0.0))
        assert type(single) is type(want) and single == want

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_exact_tangency_gives_exact_zero(self, n):
        # a second shell equal to the reference sphere: b == a exactly
        cfg = geo.TangencyConfig(0, 0.0, np.ones(n))
        w = np.random.default_rng(n).normal(size=(4, 5, n))
        np.testing.assert_array_equal(geo.jacobian_gram_norm(cfg, w), np.zeros((4, 5)))
        np.testing.assert_array_equal(geo._gram_norm_sq(cfg, w, "gram")[0], reference_gram_sq(cfg, w)[0])

    def test_dual_check_catches_a_perturbed_minor_route(self, monkeypatch):
        cfg, w = self.case(3, 5)
        geo.jacobian_gram_norm(cfg, w[1:], method="both")
        minor = geo.gradient_minor
        monkeypatch.setattr(geo, "gradient_minor", lambda *args: minor(*args) * (1.0 + 1e-6))
        with pytest.raises(FloatingPointError):
            geo.jacobian_gram_norm(cfg, w[1:], method="both")

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_covering_margin_matches_reference(self, n):
        w = np.random.default_rng(n).normal(size=(4, 5, n))
        w[1, 1] = np.where(np.arange(n) % 2 == 0, 0.75, -0.75)  # a tie across signs
        want = reference_covering_margin(w, geo.default_refinement_cut(n))
        np.testing.assert_array_equal(geo.covering_margin(w), want)
        np.testing.assert_array_equal(geo.covering_margin(w.reshape(20, n)), want.reshape(20))
        single = geo.covering_margin(w[2, 3])
        assert type(single) is type(want[2, 3]) and single == want[2, 3]
        # a batch of three blocks, the last one short
        w = np.random.default_rng(n).normal(size=(2, DEFAULT_CHUNK + 5, n))
        want = reference_covering_margin(w, geo.default_refinement_cut(n))
        np.testing.assert_array_equal(geo.covering_margin(w), want)


class TestTangencySystem:
    @given(configs(3), shell_points(3))
    def test_components(self, cfg, w):
        sys_val = geo.tangency_system(cfg, w)
        keep = [j for j in range(3) if j != cfg.axis]
        minors = geo.axis_minors(cfg, w)
        np.testing.assert_allclose(sys_val[:-1], minors[keep], atol=1e-14)
        assert sys_val[-1] == pytest.approx(0.5 * (np.sum(w * w) - 1.0))

    @settings(max_examples=50, deadline=None)
    @given(configs(3), shell_points(3))
    def test_jacobian_matches_fd(self, cfg, w):
        jac = geo.tangency_system_jacobian(cfg, w)
        fd = fd_jacobian_richardson(lambda p: geo.tangency_system(cfg, p), w)
        np.testing.assert_allclose(jac, fd, atol=1e-8)

    def test_jacobian_batched(self):
        cfg = geo.TangencyConfig(1, 0.7, np.array([1.1, 0.9, 1.3]))
        pts = np.array([[0.9, 0.1, 0.4], [0.2, -1.0, 0.3]])
        batched = geo.tangency_system_jacobian(cfg, pts)
        for row, p in enumerate(pts):
            np.testing.assert_array_equal(batched[row], geo.tangency_system_jacobian(cfg, p))


class TestContactChart:
    @given(vectors(3, 0.1, 5.0))
    def test_roundtrip_from_positive_point(self, x):
        np.testing.assert_allclose(geo.contact_point(geo.tangency_radii(x)), x, rtol=1e-12)

    @given(vectors(4, 0.2, 3.0))
    def test_roundtrip_from_radii(self, r):
        np.testing.assert_allclose(geo.tangency_radii(geo.contact_point(r)), r, rtol=1e-12)

    @given(vectors(3, 0.2, 3.0), st.floats(0.1, 10.0))
    def test_homogeneity(self, r, c):
        np.testing.assert_allclose(
            geo.contact_point(c * r), c * geo.contact_point(r), rtol=1e-12
        )

    def test_positive_orthant_required(self):
        with pytest.raises(ValueError):
            geo.tangency_radii(np.array([0.5, -0.1, 0.2]))


class TestValidation:
    def test_axis_frame_deviation_guard(self):
        n = 3
        cut = geo.default_refinement_cut(n)
        d = geo.axis_direction(n, 0)
        geo.TangencyConfig(0, 0.5, np.ones(n), d + 0.9 * cut * cut)
        with pytest.raises(ValueError):
            geo.TangencyConfig(0, 0.5, np.ones(n), d + 2.0 * cut * cut)

    def test_perturbed_direction_stays_admissible(self):
        lo, hi = geo.restricted_radii_box(3)
        for r in (lo, hi, np.array([1.0, hi[1], 1.0])):
            geo.TangencyConfig(1, 0.5, np.ones(3), geo.perturbed_axis_direction(1, r))

    def test_tangency_config_ranges(self):
        with pytest.raises(ValueError):
            geo.TangencyConfig(0, -0.1, np.ones(3))
        with pytest.raises(ValueError):
            geo.TangencyConfig(0, 0.5, np.array([0.4, 1.0, 1.0]))
        with pytest.raises(ValueError, match="axis 3 out of range"):
            geo.TangencyConfig(3, 0.5, np.ones(3))

    def test_axis_range(self):
        shell = geo.AnnulusSpec(geo.Ellipsoid(np.zeros(2), np.ones(2)), 0.1)
        with pytest.raises(ValueError):
            geo.AnnulusSpec(shell.ellipsoid, shell.delta, axis=2)

    @pytest.mark.parametrize("axis", [3, -1])
    def test_shell_membership_rejects_axis_out_of_range(self, axis):
        columns = np.zeros((3, 4))
        with pytest.raises(ValueError, match=f"axis {axis} out of range for dimension 3"):
            geo.shell_membership(np.zeros((1, 3)), np.ones((1, 3)), 0.1, columns, axis=axis)

    @pytest.mark.parametrize("axis", [3, -1])
    def test_refinement_indicator_rejects_axis_out_of_range(self, axis):
        with pytest.raises(ValueError, match=f"axis {axis} out of range for dimension 3"):
            geo.refinement_indicator(np.full((4, 3), 0.9), axis)

    @pytest.mark.parametrize("axis", [3, -1])
    @pytest.mark.parametrize(
        "caller", ["discretised_maximal", "EllipsoidFamily", "refined_shell_volume"]
    )
    def test_callers_share_the_axis_check(self, caller, axis):
        lo, hi = geo.restricted_radii_box(3)
        calls = {
            "discretised_maximal": lambda: maximal.discretised_maximal(
                maximal.Field(lambda j, t: np.ones((1, *t.shape)), -np.ones(3), np.ones(3)),
                np.zeros((1, 3)),
                0.1,
                maximal.RadiiNet(lo, hi, hi[0] - lo[0]),
                m=4,
                seed=0,
                stream=0,
                axes=(axis,),
            ),
            "EllipsoidFamily": lambda: multiplicity.EllipsoidFamily(
                axis, 0.1, np.zeros(1), np.ones((1, 3))
            ),
            "refined_shell_volume": lambda: multiplicity.refined_shell_volume(np.ones(3), 0.1, axis),
        }
        with pytest.raises(ValueError, match=f"^axis {axis} out of range for dimension 3$"):
            calls[caller]()
