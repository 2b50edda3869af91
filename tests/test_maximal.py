"""Tests for the discretised maximal operator machinery."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from helpers import per_radius_net_sups

from homoeoid import geometry as geo
from homoeoid import maximal
from homoeoid.mc import derive_stream, mc_mean, rng_stream
from homoeoid.volumes import reference_shell_sampler


def ones(j, t):
    return np.ones((1, *t.shape))


def constant_field(n, value=1.0, half_width=50.0):
    return maximal.Field(
        lambda j, t: np.full((1, *t.shape), value if j == 0 else 1.0),
        np.full(n, -half_width),
        np.full(n, half_width),
    )


def slab_field(n, height=1.0, width=0.1):
    def factors(j, t):
        return (np.abs(t - height) < width)[None].astype(float) if j == n - 1 else ones(j, t)

    return maximal.Field(factors, np.full(n, -5.0), np.full(n, 5.0))


def doubled(f):
    """``2 f``, with the 2 on axis 0's factors."""
    return maximal.Field(
        lambda j, t: 2.0 * f.factors(j, t) if j == 0 else f.factors(j, t), f.lo, f.hi
    )


class TestField:
    def test_zero_outside_bounding_box(self):
        f = maximal.Field(ones, [-1.0, -1.0], [1.0, 1.0])
        vals = f(np.array([[0.0, 0.0], [2.0, 0.0], [0.0, -1.5]]))
        np.testing.assert_array_equal(vals, [1.0, 0.0, 0.0])
        assert f.n == 2

    def test_terms_are_products_along_the_axes(self):
        f = smooth_field(3)
        pts = np.random.default_rng(0).uniform(-3.5, 3.5, (4, 5, 3))
        # products in axis order (the middle axis's factor is 1), terms in order
        t0, t2 = 3.0 * pts[..., 0], pts[..., 2]
        want = np.cos(t0) * np.cos(t2) + np.sin(t0) * np.sin(t2) + 0.25
        want[np.any(np.abs(pts) > 3.0, axis=-1)] = 0.0
        np.testing.assert_array_equal(f(pts), want)
        assert f(pts[0, 0]).shape == ()

    def test_validation(self):
        with pytest.raises(ValueError):
            maximal.Field(ones, [0.0, 0.0], [1.0, -1.0])

    @pytest.mark.parametrize(
        "factors",
        [
            lambda j, t: np.ones(t.shape),  # no term axis
            lambda j, t: np.ones((2, *t.shape[1:])),  # wrong coordinate shape
            lambda j, t: np.ones((0, *t.shape)),  # no terms
            lambda j, t: np.ones((1 + j, *t.shape)),  # a different C per axis
        ],
        ids=["no-term-axis", "wrong-shape", "no-terms", "ragged-terms"],
    )
    def test_factors_must_return_one_table_per_term(self, factors):
        f = maximal.Field(factors, -np.ones(3), np.ones(3))
        with pytest.raises(ValueError, match="factors"):
            f(np.zeros((4, 3)))
        with pytest.raises(ValueError, match="factors"):
            maximal.discretised_maximal(
                f, np.zeros((2, 3)), KERNEL_DELTA, small_net(3), m=8, seed=0, stream=0
            )


class TestRadiiNet:
    def test_restricted_net_size(self):
        net = maximal.RadiiNet.for_delta(3, 2**-6)
        assert len(net) == 125  # five per axis once the box width binds
        lo, hi = geo.restricted_radii_box(3)
        np.testing.assert_allclose(np.min(net.points, axis=0), lo)
        np.testing.assert_allclose(np.max(net.points, axis=0), hi)

    def test_delta_binds_when_smaller_than_width(self):
        lo, hi = geo.restricted_radii_box(2)
        width = hi[0] - lo[0]
        delta = width / 3.0
        net = maximal.RadiiNet.for_delta(2, delta)
        assert net.step == pytest.approx(delta / 4.0)
        spacing = np.diff(np.sort(net.points[:, 0]))
        assert np.max(spacing) <= net.step + 1e-15

    def test_validation(self):
        with pytest.raises(ValueError):
            maximal.RadiiNet([0.0], [1.0], 0.0)
        with pytest.raises(ValueError):
            maximal.RadiiNet([0.0, 0.0], [1.0, 0.0], 0.1)


class TestAnnulusAverage:
    SPEC = geo.AnnulusSpec(geo.Ellipsoid(np.zeros(3), np.ones(3)), 0.05)

    def test_constant_field(self):
        est = maximal.annulus_average(constant_field(3, 2.5), self.SPEC, 1000, seed=0)
        assert est.value == pytest.approx(2.5, rel=1e-15)
        assert est.std_error < 1e-12

    def test_odd_field_averages_its_absolute_value(self):
        # any callable on points is a field to the single-shell average
        est = maximal.annulus_average(lambda p: p[..., 0], self.SPEC, 20_000, seed=1)
        assert est.value > 0.4  # E|w_0| = 1/2 on the unit sphere in R^3

    def test_refined_never_exceeds_plain_on_shared_batch(self):
        f = slab_field(3)
        plain = maximal.annulus_average(f, self.SPEC, 4000, seed=2)
        total = 0.0
        for axis in range(3):
            refined = maximal.annulus_average(
                f, dataclasses.replace(self.SPEC, axis=axis), 4000, seed=2
            )
            assert refined.value <= plain.value + 1e-15
            total += refined.value
        # pointwise covering: the refined indicators sum to >= 1 per sample
        assert total >= plain.value - 1e-12

    def test_field_scaling_is_exact(self):
        f = slab_field(3)
        g = doubled(f)
        a = maximal.annulus_average(f, self.SPEC, 3000, seed=3)
        b = maximal.annulus_average(g, self.SPEC, 3000, seed=3)
        assert b.value == 2.0 * a.value

    def test_deterministic(self):
        a = maximal.annulus_average(slab_field(3), self.SPEC, 1000, seed=4)
        b = maximal.annulus_average(slab_field(3), self.SPEC, 1000, seed=4)
        assert a == b

    def test_validation(self):
        with pytest.raises(ValueError):
            maximal.annulus_average(constant_field(3), self.SPEC, 0, seed=0)


class TestDiscretisedMaximal:
    NET = maximal.RadiiNet.for_delta(3, 2**-5)
    DELTA = 2**-5
    XS = np.array([[0.1, -0.2, 0.05], [-0.15, 0.3, 0.0], [0.2, 0.0, -0.1]])

    def sups(self, f, net=None, axes=(), seed=5):
        net = self.NET if net is None else net
        return maximal.discretised_maximal(
            f, self.XS, self.DELTA, net, m=300, seed=seed, stream="test", axes=axes
        )

    def test_shape_is_one_row_per_flavour(self):
        assert self.sups(slab_field(3)).shape == (1, 3)
        assert self.sups(slab_field(3), axes=(2, 0)).shape == (3, 3)

    def test_constant_field_gives_one(self):
        rows = self.sups(constant_field(3), axes=range(3))
        np.testing.assert_array_equal(rows[0], 1.0)
        assert np.all(rows[1:] <= 1.0)

    def test_refined_rows_never_exceed_plain(self):
        plain, *refined = self.sups(slab_field(3), axes=range(3), seed=6)
        for row in refined:
            assert np.all(row <= plain)

    def test_subnet_sup_is_monotone(self):
        lo, hi = self.NET.lo, self.NET.hi
        corners = maximal.RadiiNet(lo, hi, hi[0] - lo[0])
        fine = {tuple(r) for r in self.NET.points}
        assert all(tuple(r) in fine for r in corners.points)
        full = self.sups(slab_field(3), axes=range(3), seed=7)
        sub = self.sups(slab_field(3), net=corners, axes=range(3), seed=7)
        assert np.all(sub <= full)

    def test_doubling_the_field_doubles_the_sups(self):
        f = slab_field(3)
        g = doubled(f)
        a = self.sups(f, axes=range(3), seed=8)
        b = self.sups(g, axes=range(3), seed=8)
        np.testing.assert_array_equal(b, 2.0 * a)

    def test_validation(self):
        f = slab_field(3)
        with pytest.raises(ValueError, match="axis"):
            self.sups(f, axes=(-1,))
        with pytest.raises(ValueError, match="axis"):
            self.sups(f, axes=(3,))
        with pytest.raises(ValueError, match="dimension"):
            self.sups(f, net=small_net(2))
        with pytest.raises(ValueError, match="field dimension 2"):
            self.sups(slab_field(2))
        with pytest.raises(ValueError, match="m must"):
            maximal.discretised_maximal(f, self.XS, self.DELTA, self.NET, m=0, seed=0, stream=0)


class TestDomination:
    def test_constant_field_strictly_dominated(self):
        lo, hi = geo.restricted_radii_box(3)
        net = maximal.RadiiNet(lo, hi, hi[0] - lo[0])
        violation = maximal.domination_check(
            constant_field(3), np.zeros((1, 3)), 2**-6, net, m=512, seed=0
        )
        assert violation < 0.0

    def test_slab_field_never_violates(self):
        lo, hi = geo.restricted_radii_box(3)
        net = maximal.RadiiNet(lo, hi, hi[0] - lo[0])
        rng = np.random.default_rng(1)
        xs = rng.uniform(-0.4, 0.4, (25, 3))
        violation = maximal.domination_check(slab_field(3), xs, 2**-6, net, m=128, seed=2)
        assert violation <= 0.0

    def test_draws_one_shell_batch(self, monkeypatch):
        draws = []

        def counting_sampler(delta, n):
            sample = reference_shell_sampler(delta, n)

            def counted(rng, m):
                draws.append(m)
                return sample(rng, m)

            return counted

        def no_mc_mean(*args, **kwargs):
            raise AssertionError("a net sup must not run one estimate per shell")

        monkeypatch.setattr(maximal, "reference_shell_sampler", counting_sampler)
        monkeypatch.setattr(maximal, "mc_mean", no_mc_mean)
        xs = np.random.default_rng(0).uniform(-0.4, 0.4, (3, 3))
        maximal.domination_check(slab_field(3), xs, KERNEL_DELTA, small_net(3), m=64, seed=0)
        assert draws == [64]


# Spelled-out references: one shell average per stream, and the net sups as
# a naive loop over (x, r, flavour) on the one batch the kernel draws.


def reference_average(f, spec, m, seed):
    ell, axis = spec.ellipsoid, spec.axis
    sampler = reference_shell_sampler(spec.delta, spec.n)

    def sample_fn(rng, k):
        omega = sampler(rng, k)
        values = np.abs(f(geo.affine_map(ell.centre, ell.radii, omega)))
        if axis is not None:
            values = values * geo.refinement_indicator(omega, axis)
        return values

    stream = derive_stream("annulus-avg", spec.delta, ell.centre, ell.radii)
    (est,) = mc_mean(sample_fn, m, seed=seed, stream=stream)
    return est


def reference_net_sups(f, xs, delta, net, m, seed, stream, axes):
    n = xs.shape[1]
    shell = rng_stream(seed, derive_stream("scan-shell", delta, stream))
    omega = reference_shell_sampler(delta, n)(shell, m)
    out = np.full((1 + len(axes), len(xs)), -np.inf)
    for i, x in enumerate(xs):
        for r in net.points:
            values = np.abs(f(geo.affine_map(x, r, omega)))
            for row, axis in enumerate([None, *axes]):
                if axis is not None:
                    value = np.mean(values * geo.refinement_indicator(omega, axis))
                else:
                    value = np.mean(values)
                if value > out[row, i]:
                    out[row, i] = value
    return out


def row_major_net_sups(f, xs, delta, net, m, seed, stream, axes):
    """The net sups on one ``(len(xs), m, n)`` array ``x + omega * r`` per net
    radius, the form the coordinate-major buffer replaces."""
    n = xs.shape[1]
    shell = rng_stream(seed, derive_stream("scan-shell", delta, stream))
    omega = reference_shell_sampler(delta, n)(shell, m)
    masks = [geo.refinement_indicator(omega, axis) for axis in axes]
    best = np.full((1 + len(masks), xs.shape[0]), -np.inf)
    for r in net.points:
        values = np.abs(f(xs[:, None, :] + omega[None, :, :] * r[None, None, :]))
        np.maximum(best[0], np.mean(values, axis=1), out=best[0])
        for row, mask in enumerate(masks, 1):
            np.maximum(best[row], np.mean(values * mask, axis=1), out=best[row])
    return best


KERNEL_DELTA = 2**-5
KERNEL_SAMPLES = [1, 256, 300, 2**16 + 1]  # 2**16 + 1 spans two mc_mean chunks


@pytest.fixture(params=["1", "2"], ids=["threads1", "threads2"])
def threads(request, monkeypatch):
    monkeypatch.setenv("HOMOEOID_THREADS", request.param)


def smooth_field(n):
    """``cos(3 y_0 - y_{n-1}) + 0.25`` as the signed 3-term product
    ``cos 3y_0 cos y_{n-1} + sin 3y_0 sin y_{n-1} + 0.25``: non-dyadic values,
    so that any change in product or summation order shows in the bits."""

    def factors(j, t):
        if j == 0:
            return np.stack([np.cos(3.0 * t), np.sin(3.0 * t), np.full(t.shape, 0.25)])
        if j == n - 1:
            return np.stack([np.cos(t), np.sin(t), np.ones(t.shape)])
        return np.ones((3, *t.shape))

    return maximal.Field(factors, np.full(n, -3.0), np.full(n, 3.0))


def small_net(n):
    lo, hi = geo.restricted_radii_box(n)
    return maximal.RadiiNet(lo, hi, hi[0] - lo[0])


@pytest.mark.usefixtures("threads")
class TestSharedBatchKernel:
    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("m", KERNEL_SAMPLES)
    def test_annulus_average_matches_per_flavour_reference(self, n, m):
        f = smooth_field(n)
        ellipsoid = geo.Ellipsoid(np.linspace(-0.2, 0.3, n), small_net(n).hi)
        base = geo.AnnulusSpec(ellipsoid, KERNEL_DELTA)
        specs = [base] + [dataclasses.replace(base, axis=k) for k in range(n)]
        for spec in specs:
            assert maximal.annulus_average(f, spec, m, seed=3) == reference_average(f, spec, m, 3)

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("m", KERNEL_SAMPLES)
    def test_net_sups_match_naive_loop(self, n, m):
        f, net = smooth_field(n), small_net(n)
        xs = np.random.default_rng(n).uniform(-0.4, 0.4, (3, n))
        for stream, axes in ((7, ()), ("tag", (n - 1,)), ("tag", tuple(range(n)))):
            got = maximal.discretised_maximal(
                f, xs, KERNEL_DELTA, net, m=m, seed=4, stream=stream, axes=axes
            )
            expected = reference_net_sups(f, xs, KERNEL_DELTA, net, m, 4, stream, axes)
            np.testing.assert_array_equal(got, expected)
        plain, *refined = reference_net_sups(
            f, xs, KERNEL_DELTA, net, m, 4, "domination", tuple(range(n))
        )
        worst = maximal.domination_check(f, xs, KERNEL_DELTA, net, m=m, seed=4)
        assert worst == np.max(plain - sum(refined))

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("m", [1, 300])
    def test_net_sups_match_row_major_form(self, n, m):
        net = small_net(n)
        xs = np.random.default_rng(n).uniform(-0.4, 0.4, (5, n))
        fields = [smooth_field(n), maximal.bump_mixture_family(n, seed=2)(1)]
        for f in fields:
            for axes in ((), (0,), tuple(range(n))):
                got = maximal.discretised_maximal(
                    f, xs, KERNEL_DELTA, net, m=m, seed=4, stream="tag", axes=axes
                )
                want = row_major_net_sups(f, xs, KERNEL_DELTA, net, m, 4, "tag", axes)
                np.testing.assert_array_equal(got, want)
        plain, *refined = row_major_net_sups(
            fields[1], xs, KERNEL_DELTA, net, m, 4, "domination", tuple(range(n))
        )
        worst = maximal.domination_check(fields[1], xs, KERNEL_DELTA, net, m=m, seed=4)
        assert worst == np.max(plain - sum(refined))


def net_of(n, per_axis):
    lo, hi = geo.restricted_radii_box(n)
    return maximal.RadiiNet(lo, hi, (hi[0] - lo[0]) / (per_axis - 1))


kernel_blocks = maximal._block_plan  # (points, axis-0 values) per block


def counting(f):
    """``f`` with each ``factors`` call's ``(axis, t.shape)`` appended to a list."""
    calls = []

    def factors(j, t):
        calls.append((j, t.shape))
        return f.factors(j, t)

    return maximal.Field(factors, f.lo, f.hi), calls


@pytest.mark.usefixtures("threads")
class TestRadiusBlocks:
    """The blocked net-sup kernel against the per-radius loop, bit for bit."""

    @staticmethod
    def fields(n):
        family = maximal.bump_mixture_family(n, seed=5)
        wide = maximal.bump_mixture_family(n, components=9, seed=5)
        return [smooth_field(n), family(0), wide(1)]

    def assert_matches(self, n, xs, net, m, axes, ragged=lambda width, span: True):
        for f in self.fields(n):
            assert ragged(*kernel_blocks(f, net, m))
            got = maximal.discretised_maximal(
                f, xs, KERNEL_DELTA, net, m=m, seed=6, stream="blocks", axes=axes
            )
            want = per_radius_net_sups(f, xs, KERNEL_DELTA, net, m, 6, "blocks", axes)
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("n, per_axis, m", [(2, 7, 1350), (3, 5, 550), (4, 3, 850)])
    def test_net_not_a_multiple_of_the_block(self, n, per_axis, m):
        # one point's grid or tables are more than a block holds, so axis 0
        # is blocked too, and its last block is ragged, for C = 3, 6 and 9
        net = net_of(n, per_axis)
        xs = np.random.default_rng(n).uniform(-0.4, 0.4, (3, n))

        def ragged(width, span):
            return width == 1 and 1 < span < per_axis and per_axis % span

        self.assert_matches(n, xs, net, m, (), ragged)
        self.assert_matches(n, xs, net, m, tuple(range(n)), ragged)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_ragged_point_blocks(self, n):
        # criterion 11's shape: more points times samples than one block
        # holds, so the points are blocked, the last block ragged
        net = small_net(n)
        xs = np.random.default_rng(n).uniform(-0.4, 0.4, (71, n))

        def ragged(width, span):
            return width < len(xs) and len(xs) % width and span == 2

        self.assert_matches(n, xs, net, 256, (n - 1, 0), ragged)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_single_point(self, n):
        # one point's grid is one block: factors is called once per axis on
        # all of each axis's values (after the kernel's empty axis-0 call)
        net = net_of(n, 3)
        x = np.random.default_rng(n).uniform(-0.4, 0.4, n)
        for f in self.fields(n):
            assert kernel_blocks(f, net, 64)[1] == len(net.axes[0])
            g, calls = counting(f)
            maximal.discretised_maximal(g, x, KERNEL_DELTA, net, m=64, seed=6, stream="blocks")
            assert calls == [(0, (0,))] + [(j, (3, 1, 64)) for j in range(n)]
        self.assert_matches(n, x, net, 64, (0,))
        self.assert_matches(n, x, net, 1, ())

    def test_axis_zero_blocked_at_n4(self):
        # a for_delta net at n = 4: one point's grid is five blocks
        net = maximal.RadiiNet.for_delta(4, KERNEL_DELTA)
        xs = np.random.default_rng(4).uniform(-0.4, 0.4, (2, 4))
        self.assert_matches(4, xs, net, 512, (3,), lambda width, span: (width, span) == (1, 1))

    @pytest.mark.parametrize("n", [2, 3])
    def test_points_blocked_above_the_block(self, n, monkeypatch):
        # criterion 11's shape: 300 points x 2**n radii x 256 samples is more
        # than one block holds, so each block takes as many points as its
        # tables fit in (42, 21 and 14 at n = 2 for C = 3, 6 and 9; 28, 14
        # and 9 at n = 3) and calls factors once per axis; the last point
        # block is ragged
        net = small_net(n)
        xs = np.random.default_rng(n).uniform(-0.4, 0.4, (300, n))
        for f in self.fields(n):
            width, span = kernel_blocks(f, net, 256)
            assert span == 2 and len(xs) % width
            g, calls = counting(f)
            axes = tuple(range(n))
            got = maximal.discretised_maximal(
                g, xs, KERNEL_DELTA, net, m=256, seed=6, stream="blocks", axes=axes
            )
            sizes = [width] * (len(xs) // width) + [len(xs) % width]
            assert calls == [(0, (0,))] + [(j, (2, size, 256)) for size in sizes for j in range(n)]
            with monkeypatch.context() as patch:
                # room for all 300 points' tables of up to 9 terms: one block
                patch.setattr(maximal, "DEFAULT_CHUNK", len(xs) * 256 * 9 * n)
                h, one_block = counting(f)
                whole = maximal.discretised_maximal(
                    h, xs, KERNEL_DELTA, net, m=256, seed=6, stream="blocks", axes=axes
                )
            assert len(one_block) == 1 + n
            np.testing.assert_array_equal(got, whole)

    def test_factors_called_once_per_axis_and_block(self):
        # the l2-growth shape: one point's grid of 125 radii x 512 samples
        # fills a block, so each point is a block of 3 factors calls
        net = maximal.RadiiNet.for_delta(3, 2**-6)
        xs = np.random.default_rng(0).uniform(-0.4, 0.4, (8, 3))
        f = maximal.bump_mixture_family(3, seed=0)(0)
        g, calls = counting(f)
        got = maximal.discretised_maximal(g, xs, 2**-6, net, m=512, seed=0, stream=0)
        np.testing.assert_array_equal(got, per_radius_net_sups(f, xs, 2**-6, net, 512, 0, 0))
        assert kernel_blocks(f, net, 512) == (1, 5)  # C = 6
        assert calls == [(0, (0,))] + [(j, (5, 1, 512)) for _ in xs for j in range(3)]


class TestKernelMemory:
    """``tracemalloc`` peaks of one kernel call, which pin the blocking: an
    unblocked call would hold every point's (or axis 0's every value's)
    full grid and per-axis tables at once.  Blocks are sized by the tables
    too, so the bound holds at 17 terms as at 6."""

    @staticmethod
    def peak(call):
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("components", [6, 17])
    def test_criterion_11_shape(self, components):
        # 1.8 MiB (C = 6) and 1.4 MiB (C = 17) blocked; 121 and 250 MiB with
        # every point in one block
        f = maximal.bump_mixture_family(3, components=components, seed=0)(0)
        xs = np.random.default_rng(0).uniform(-0.4, 0.4, (1000, 3))
        peak = self.peak(
            lambda: maximal.domination_check(f, xs, 2**-5, small_net(3), m=256, seed=0)
        )
        assert peak < 3 * 2**20

    @pytest.mark.parametrize("components", [6, 17])
    def test_for_delta_net_at_n4(self, components):
        # 1.8 MiB (C = 6) and 2.4 MiB (C = 17) blocked; 12.2 and 13.9 MiB with
        # all of axis 0 in one block
        f = maximal.bump_mixture_family(4, components=components, seed=0)(0)
        net = maximal.RadiiNet.for_delta(4, 2**-5)
        xs = np.random.default_rng(0).uniform(-0.4, 0.4, (2, 4))
        peak = self.peak(
            lambda: maximal.discretised_maximal(f, xs, 2**-5, net, m=512, seed=0, stream=0)
        )
        assert peak < 3 * 2**20


class TestGrowthScan:
    REGION = (np.full(3, -0.5), np.full(3, 0.5))

    def test_constant_family_has_zero_slope(self):
        scan = maximal.l2_growth_scan(
            lambda i: constant_field(3),
            [2**-4, 2**-5, 2**-6],
            x_region=self.REGION,
            family_size=1,
            x_samples=8,
            m=64,
            seed=0,
        )
        assert abs(scan.fit.slope) < 1e-12
        assert all(r["norm_estimate"] == pytest.approx(1.0, rel=1e-12) for r in scan.rows)

    def test_bump_family_stays_subpolynomial(self):
        scan = maximal.l2_growth_scan(
            maximal.bump_mixture_family(3, seed=4),
            [2**-4, 2**-5, 2**-6],
            x_region=self.REGION,
            family_size=1,
            x_samples=32,
            m=512,
            seed=0,
        )
        assert scan.fit.slope <= 0.15
        assert {"delta", "field_id", "norm_estimate", "std_error"} == set(scan.rows[0])

    def test_validation(self):
        fam = maximal.bump_mixture_family(3)
        with pytest.raises(ValueError):
            maximal.l2_growth_scan(fam, [0.1, 0.05], x_region=self.REGION)
        with pytest.raises(ValueError):
            maximal.l2_growth_scan(fam, [0.05, 0.1, 0.2], x_region=self.REGION)
        with pytest.raises(ValueError):
            maximal.l2_growth_scan(fam, [0.1, 0.05, 0.025], x_region=self.REGION, x_samples=1)


class TestBumpFamily:
    def test_closed_form_normalisation_matches_monte_carlo(self):
        f = maximal.bump_mixture_family(3, seed=4)(0)
        volume = float(np.prod(f.hi - f.lo))

        def squares(rng, k):
            return f(f.lo + rng.random((k, 3)) * (f.hi - f.lo)) ** 2

        (est,) = mc_mean(squares, 400_000, seed=1, stream=derive_stream("lp-norm", 2.0, f.lo, f.hi))
        # ||f||^2 = volume * mean f^2, whose standard error is volume * est's
        assert abs(volume * est.value - 1.0) < 4 * volume * est.std_error

    def test_deterministic_and_distinct(self):
        fam = maximal.bump_mixture_family(3, seed=7)
        pts = np.random.default_rng(0).uniform(-1, 1, (50, 3))
        np.testing.assert_array_equal(fam(2)(pts), fam(2)(pts))
        assert not np.array_equal(fam(0)(pts), fam(1)(pts))

    def test_validation(self):
        with pytest.raises(ValueError):
            maximal.bump_mixture_family(3, components=0)


def reference_bump_field(n, components, seed, index):
    """The bump mixture and box mask on one trailing-axis array of per-axis
    Gaussians, the coefficient on axis 0, multiplied in axis order and added
    in component order; returns ``(field, lo, hi)``."""
    rng = rng_stream(seed, derive_stream("bumps", n, components, index))
    centres = -1.5 + rng.random((components, n)) * 3.0
    scales = rng.uniform(0.08, 0.35, components)
    amps = rng.uniform(0.5, 1.5, components)
    s2 = scales**2
    pair = s2[:, None] + s2[None, :]
    dist2 = np.sum((centres[:, None, :] - centres[None, :, :]) ** 2, axis=-1)
    gram = (2.0 * np.pi * np.outer(s2, s2) / pair) ** (n / 2.0) * np.exp(-dist2 / (2.0 * pair))
    coeff = amps / math.sqrt(float(amps @ gram @ amps))
    lo = np.min(centres - 9.0 * scales[:, None], axis=0)
    hi = np.max(centres + 9.0 * scales[:, None], axis=0)

    def field(pts):
        diff = pts[..., None, :] - centres
        gauss = np.exp(-(diff * diff / (2.0 * s2[:, None])))
        gauss[..., 0] *= coeff
        gauss *= ((pts >= lo) & (pts <= hi))[..., None, :]
        total = np.zeros(pts.shape[:-1])
        for c in range(components):
            product = gauss[..., c, 0]
            for j in range(1, n):
                product = product * gauss[..., c, j]
            total += product
        return total

    return field, lo, hi


class TestBumpFieldKernel:
    """``Field.__call__`` on bump mixtures against the trailing-axis
    reference, bit for bit, below and above 8 components."""

    @pytest.mark.parametrize("components", [1, 6, 8, 9, 17])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_trailing_axis_reference(self, n, components):
        f = maximal.bump_mixture_family(n, components=components, seed=3)(1)
        reference, lo, hi = reference_bump_field(n, components, 3, 1)
        np.testing.assert_array_equal(f.lo, lo)
        np.testing.assert_array_equal(f.hi, hi)
        rng = np.random.default_rng(components)
        pts = lo + rng.uniform(-0.1, 1.1, (4, 5, n)) * (hi - lo)
        # the box faces themselves are inside, one ulp beyond them is outside
        pts[0, :4] = 0.5 * (lo + hi)
        pts[0, 0, 0] = lo[0]
        pts[0, 1, n - 1] = hi[n - 1]
        pts[0, 2, 0] = np.nextafter(lo[0], -np.inf)
        pts[0, 3, n - 1] = np.nextafter(hi[n - 1], np.inf)
        values = f(pts)
        assert values.shape == (4, 5)
        np.testing.assert_array_equal(values, reference(pts))
        assert values[0, 0] > 0.0 and values[0, 1] > 0.0
        assert values[0, 2] == 0.0 and values[0, 3] == 0.0
        for point in (pts[0, 1], pts[1, 2]):
            single = f(point)
            assert single.shape == () and single == reference(point)

    @pytest.mark.parametrize("components", [1, 6, 8, 9, 17])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_coordinate_major_view_matches_reference(self, n, components):
        # a (radii, points, samples, n) view of an (n, radii, points, samples)
        # buffer, whose coordinate columns are contiguous
        f = maximal.bump_mixture_family(n, components=components, seed=3)(1)
        reference, lo, hi = reference_bump_field(n, components, 3, 1)
        rng = np.random.default_rng(components)
        buffer = rng.uniform(-0.1, 1.1, (n, 3, 4, 5))
        buffer *= (hi - lo)[:, None, None, None]
        buffer += lo[:, None, None, None]
        pts = buffer.transpose(1, 2, 3, 0)
        values = f(pts)
        assert values.shape == (3, 4, 5)
        np.testing.assert_array_equal(values, reference(np.ascontiguousarray(pts)))
        np.testing.assert_array_equal(values, f(np.ascontiguousarray(pts)))
