"""Tests for separated-family overlap statistics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import last_counted
from homoeoid import geometry as geo
from homoeoid import multiplicity
from homoeoid.mc import MCEstimate, derive_stream, mc_mean, rng_stream
from homoeoid.multiplicity import (
    EllipsoidFamily,
    direct_overlap_l2,
    generate_family,
    multiplicity_scan,
    overlap_l2,
    refined_shell_volume,
)
from homoeoid.volumes import intersection_volume, reference_shell_sampler, shell_volume


def lattice_family(delta: float, axis: int = 0, seed: int = 0) -> EllipsoidFamily:
    return generate_family(axis, delta, int(math.floor(2.0 / delta)) + 1, seed)


class TestEllipsoidFamily:
    def test_centres_lie_on_the_axis_line(self):
        fam = generate_family(1, 2**-4, 6, seed=3)
        direction = geo.axis_direction(3, 1)
        assert np.allclose(fam.centres, fam.offsets[:, None] * direction)
        assert np.all(fam.centres[:, 1] == 0.0)

    def test_member_and_spec_accessors(self):
        fam = generate_family(2, 2**-4, 4, seed=5)
        ell = fam.member(1)
        assert isinstance(ell, geo.Ellipsoid)
        assert np.array_equal(ell.radii, fam.radii[1])
        refined = fam.spec(1)
        assert isinstance(refined, geo.AnnulusSpec)
        assert refined.axis == 2
        plain = fam.spec(1, refined=False)
        assert isinstance(plain, geo.AnnulusSpec)
        assert plain.axis is None
        assert plain.delta == fam.delta
        assert len(fam) == 4

    def test_validation(self):
        lo, hi = geo.restricted_radii_box(3)
        radii = np.tile(lo, (2, 1))
        good = dict(axis=0, delta=0.25, offsets=np.array([-0.5, 0.5]), radii=radii)
        EllipsoidFamily(**good)
        with pytest.raises(ValueError):
            EllipsoidFamily(**{**good, "axis": 3})
        with pytest.raises(ValueError):
            EllipsoidFamily(**{**good, "delta": 0.6})
        with pytest.raises(ValueError):
            EllipsoidFamily(**{**good, "offsets": np.array([-1.5, 0.5])})
        with pytest.raises(ValueError):
            EllipsoidFamily(**{**good, "offsets": np.array([0.0, 0.1])})
        with pytest.raises(ValueError):
            EllipsoidFamily(**{**good, "radii": np.tile(hi + 0.1, (2, 1))})
        with pytest.raises(ValueError):
            EllipsoidFamily(**{**good, "offsets": np.array([0.5])})

    def test_capacity_cap(self):
        delta = 0.25
        offsets = -1.0 + delta * np.arange(10)
        radii = np.ones((10, 3))
        with pytest.raises(ValueError):
            EllipsoidFamily(axis=0, delta=delta, offsets=offsets, radii=radii)


class TestGenerateFamily:
    def test_maximal_count_is_the_exact_lattice(self):
        delta = 2**-6
        fam = lattice_family(delta)
        assert len(fam) == 129
        assert np.array_equal(fam.offsets, -1.0 + delta * np.arange(129))

    def test_radii_inside_restricted_box(self):
        fam = generate_family(0, 2**-5, 20, seed=7)
        lo, hi = geo.restricted_radii_box(3)
        assert np.all(fam.radii >= lo) and np.all(fam.radii <= hi)

    def test_deterministic_and_seed_sensitive(self):
        a = generate_family(0, 2**-5, 12, seed=1)
        b = generate_family(0, 2**-5, 12, seed=1)
        c = generate_family(0, 2**-5, 12, seed=2)
        assert np.array_equal(a.offsets, b.offsets)
        assert np.array_equal(a.radii, b.radii)
        assert not np.array_equal(a.offsets, c.offsets)

    @settings(deadline=None, max_examples=40)
    @given(
        seed=st.integers(min_value=0, max_value=2**32),
        count=st.integers(min_value=1, max_value=33),
        level=st.integers(min_value=5, max_value=7),
    )
    def test_random_families_are_separated_and_in_range(self, seed, count, level):
        delta = 2.0**-level
        fam = generate_family(0, delta, count, seed)
        assert np.all(np.abs(fam.offsets) <= 1.0)
        if count > 1:
            assert np.min(np.diff(fam.offsets)) >= delta - 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            generate_family(0, 2**-4, 0)
        with pytest.raises(ValueError):
            generate_family(0, 2**-4, 34)
        with pytest.raises(ValueError):
            generate_family(0, 0.0, 3)
        generate_family(0, 2**-4, 33)


class TestRefinedShellVolume:
    def test_matches_dimension_three_closed_form(self):
        rng = np.random.default_rng(4)
        lo, hi = geo.restricted_radii_box(3)
        for delta in (0.5, 2**-4, 2**-7):
            r = lo + (hi - lo) * rng.random(3)
            got = refined_shell_volume(r, delta, 0)
            h = (2.0 * geo.default_refinement_cut(3)) ** (1.0 / 3.0)
            s_lo, s_hi = math.sqrt(1.0 - delta), math.sqrt(1.0 + delta)
            want = (
                4.0
                * math.pi
                * float(np.prod(r))
                * ((s_hi**3 - s_lo**3) / 3.0 - h * (s_hi**2 - s_lo**2) / 2.0)
            )
            assert got == pytest.approx(want, rel=1e-10)

    def test_cached_integral_has_the_per_call_quadrature_bits(self):
        from scipy.integrate import quad
        from scipy.special import betainc

        def per_call(r, delta, n):
            # one quadrature per call, the form the cached integral replaces
            height = (2.0 * geo.default_refinement_cut(n)) ** (1.0 / 3.0)
            area = 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)

            def integrand(s):
                h = height / s
                if h >= 1.0:
                    return 0.0
                return area * s ** (n - 1) * float(betainc((n - 1) / 2.0, 0.5, 1.0 - h * h))

            lo, hi = math.sqrt(1.0 - delta), math.sqrt(1.0 + delta)
            value, _ = quad(integrand, lo, hi, epsabs=0.0, epsrel=1e-11, limit=200)
            return float(np.prod(r)) * value

        rng = np.random.default_rng(12)
        multiplicity._refined_reference_volume.cache_clear()
        for n in (2, 3, 4):
            lo, hi = geo.restricted_radii_box(n)
            for delta in (0.5, 2**-4, 0.1, 2**-9):
                for axis in range(n):
                    r = lo + (hi - lo) * rng.random(n)
                    assert refined_shell_volume(r, delta, axis) == per_call(r, delta, n)
        info = multiplicity._refined_reference_volume.cache_info()
        assert (info.misses, info.hits) == (12, 24)

    def test_matches_monte_carlo_route(self):
        fam = generate_family(0, 2**-5, 1, seed=3)
        spec = fam.spec(0)
        est = intersection_volume(spec, spec, 400_000, seed=9)
        got = refined_shell_volume(fam.radii[0], fam.delta, 0)
        assert abs(got - est.value) < 4.0 * est.std_error

    def test_refinements_cover_the_shell(self):
        r = np.array([1.01, 1.0, 1.005, 1.012])
        delta = 2**-4
        total = sum(refined_shell_volume(r, delta, k) for k in range(4))
        plain = shell_volume(r, delta)
        assert total >= plain
        assert refined_shell_volume(r, delta, 0) < plain

    def test_validation(self):
        with pytest.raises(ValueError):
            refined_shell_volume(np.ones(3), 2**-4, 3)
        with pytest.raises(ValueError):
            refined_shell_volume(np.ones(3), 0.6, 0)


class TestOverlapL2:
    def test_single_member_is_exact(self):
        fam = generate_family(0, 2**-5, 1, seed=3)
        plain = overlap_l2(fam, refined=False)
        assert plain.value == math.sqrt(shell_volume(fam.radii[0], fam.delta))
        assert plain.std_error == 0.0 and plain.n_samples == 0
        refined = overlap_l2(fam)
        assert refined.value == math.sqrt(refined_shell_volume(fam.radii[0], fam.delta, 0))

    def test_two_distant_members_add_in_square(self):
        lo, hi = geo.restricted_radii_box(3)
        radii = np.tile(0.5 * (lo + hi), (2, 1))
        fam = EllipsoidFamily(axis=0, delta=2**-6, offsets=np.array([-0.5, 0.5]), radii=radii)
        est = overlap_l2(fam, 8192, seed=2, refined=False)
        want = math.sqrt(2.0 * shell_volume(radii[0], fam.delta))
        assert est.value == pytest.approx(want, rel=1e-2)

    def test_refined_never_exceeds_plain(self):
        for seed in (0, 4, 9):
            fam = generate_family(0, 2**-4, 8, seed=seed)
            refined = overlap_l2(fam, 2048, seed=seed)
            plain = overlap_l2(fam, 2048, seed=seed, refined=False)
            assert refined.value <= plain.value

    def test_norm_dominates_diagonal(self):
        fam = generate_family(1, 2**-4, 8, seed=11)
        est = overlap_l2(fam, 2048, seed=5)
        diag = sum(refined_shell_volume(r, fam.delta, 1) for r in fam.radii)
        assert est.value >= math.sqrt(diag)

    def test_deterministic(self):
        fam = generate_family(0, 2**-4, 6, seed=8)
        a = overlap_l2(fam, 1024, seed=3)
        b = overlap_l2(fam, 1024, seed=3)
        assert (a.value, a.std_error, a.n_samples) == (b.value, b.std_error, b.n_samples)

    def test_matches_direct_space_sampling(self):
        fam = generate_family(0, 2**-4, 8, seed=11)
        for refined in (True, False):
            pairwise = overlap_l2(fam, 4096, seed=5, refined=refined)
            direct = direct_overlap_l2(fam, 1 << 21, seed=5, refined=refined)
            sigma = math.hypot(pairwise.std_error, direct.std_error)
            assert abs(pairwise.value - direct.value) < 3.5 * sigma

    def test_diagonal_floor_scales_linearly(self):
        ratios = []
        for delta in (2**-4, 2**-6, 2**-8):
            count = int(1.0 / delta)
            fam = generate_family(0, delta, count, seed=2)
            diag = sum(refined_shell_volume(r, delta, 0) for r in fam.radii)
            ratios.append(diag / (count * delta))
        assert all(4.0 <= ratio <= 16.0 for ratio in ratios)
        assert max(ratios) / min(ratios) < 1.05

    def test_validation(self):
        fam = generate_family(0, 2**-4, 2, seed=0)
        with pytest.raises(ValueError):
            overlap_l2(fam, 32)

    @pytest.mark.parametrize("refined", [True, False])
    def test_matches_per_pair_loop_bit_for_bit(self, refined):
        fam = generate_family(0, 2**-5, 12, seed=4)
        est = overlap_l2(fam, 1024, seed=6, refined=refined)
        assert (est.value, est.std_error, est.n_samples) == per_pair_overlap_l2(
            fam, 1024, 6, refined
        )


def per_pair_overlap_l2(family, m, seed, refined):
    """``overlap_l2`` as one membership test per pair, through the defining
    function and the pulled-back refinement: the loop the batched scoring
    replaced, kept as its bit-for-bit reference."""
    delta = family.delta
    if refined:
        diag = [refined_shell_volume(r, delta, family.axis) for r in family.radii]
    else:
        diag = [shell_volume(r, delta) for r in family.radii]
    total = float(np.sum(diag))
    variance = 0.0
    drawn = 0
    sampler = reference_shell_sampler(delta, family.n)
    centres = family.centres
    for i in range(len(family)):
        others = [j for j in range(len(family)) if j != i]
        gaps = np.abs(family.offsets[others] - family.offsets[i])
        classes = np.floor(np.log2(np.maximum(gaps / delta, 1.0))).astype(int)
        base_volume = shell_volume(family.radii[i], delta)
        for a in np.unique(classes):
            batch = max(64, m >> int(a))
            omega = sampler(rng_stream(seed, derive_stream("overlap", i, int(a))), batch)
            y = geo.affine_map(centres[i], family.radii[i], omega)
            keep = geo.refinement_indicator(omega, family.axis)
            hits = np.zeros(batch)
            for j, cls in zip(others, classes):
                if cls != a:
                    continue
                inside = np.abs(geo.defining_value(centres[j], family.radii[j], y)) < delta
                if refined:
                    w = (y - centres[j]) / family.radii[j]
                    inside &= keep & geo.refinement_indicator(w, family.axis)
                hits += inside
            total += base_volume * float(np.mean(hits))
            variance += (base_volume * float(np.std(hits, ddof=1)) / math.sqrt(batch)) ** 2
            drawn += batch
    norm = math.sqrt(total)
    return norm, math.sqrt(variance) / (2.0 * norm), drawn


def per_batch_pair_terms(family, m, seed):
    """``_pair_terms`` as one sampler call and one membership test per
    ``(i, a)`` batch, with the refinement taken through ``**``: the loop the
    blocked scoring replaced, kept as its bit-for-bit reference."""
    delta, axis, cut = family.delta, family.axis, geo.default_refinement_cut(family.n)
    sampler = reference_shell_sampler(delta, family.n)
    centres = family.centres
    terms = {True: [], False: []}
    drawn = 0
    for i in range(len(family)):
        others = np.flatnonzero(np.arange(len(family)) != i)
        gaps = np.abs(family.offsets[others] - family.offsets[i])
        classes = np.floor(np.log2(np.maximum(gaps / delta, 1.0))).astype(int)
        base_volume = shell_volume(family.radii[i], delta)
        for a in np.unique(classes):
            batch = max(64, m >> int(a))
            omega = sampler(rng_stream(seed, derive_stream("overlap", i, int(a))), batch)
            y = geo.affine_map(centres[i], family.radii[i], omega)
            keep = np.abs(omega[:, axis]) ** 3 >= 2.0 * cut
            plain = np.zeros(batch, dtype=int)
            refined = np.zeros(batch, dtype=int)
            for j in others[classes == a]:
                shell = np.abs(geo.defining_value(centres[j], family.radii[j], y)) < delta
                w = (y - centres[j]) / family.radii[j]
                plain += shell
                refined += shell & (np.abs(w[:, axis]) ** 3 >= 2.0 * cut)
            for variant, count in ((True, keep * refined), (False, plain)):
                hits = count.astype(float)
                terms[variant].append(
                    (
                        base_volume * float(np.mean(hits)),
                        (base_volume * float(np.std(hits, ddof=1)) / math.sqrt(batch)) ** 2,
                    )
                )
            drawn += batch
    return terms, drawn


class TestPairTerms:
    """The blocked ``_pair_terms`` against the per-batch loop, bit for bit."""

    @pytest.mark.parametrize("m", [64, 1000, 4096])
    @pytest.mark.parametrize("n, axis", [(n, axis) for n in (2, 3, 4) for axis in range(n)])
    def test_matches_per_batch_loop(self, n, axis, m):
        for count in (1, 2, 12):
            fam = generate_family(axis, 2**-5, count, seed=n + axis, n=n)
            got = multiplicity._pair_terms(fam, m, seed=7)
            assert got == per_batch_pair_terms(fam, m, 7)
        assert got[1] > 0 and len(got[0][True]) > len(fam)

    def test_a_class_spans_several_blocks(self, monkeypatch):
        blocks = []
        block_hits = multiplicity._block_hits

        def spy(family, block, a, batch, seed):
            pairs = sum(len(members) for _, members in block)
            assert pairs * batch <= multiplicity.DEFAULT_CHUNK or len(block) == 1
            blocks.append((a, len(block)))
            return block_hits(family, block, a, batch, seed)

        monkeypatch.setattr(multiplicity, "_block_hits", spy)
        fam = lattice_family(2**-5, axis=1, seed=3)
        got = multiplicity._pair_terms(fam, 4096, seed=2)
        per_class = [a for a, _ in blocks]
        assert per_class.count(0) > 1 and any(rows > 1 for _, rows in blocks)
        monkeypatch.undo()
        assert got == per_batch_pair_terms(fam, 4096, 2)

    def test_a_row_over_the_block_bound_is_scored_alone(self):
        # at m = 2^17 a class-0 row alone has 2 * 2^17 > DEFAULT_CHUNK pair samples
        fam = generate_family(2, 2**-3, 5, seed=1)
        assert multiplicity._pair_terms(fam, 1 << 17, seed=4) == per_batch_pair_terms(
            fam, 1 << 17, 4
        )

    @pytest.mark.parametrize("workers", ["1", "2", "4"])
    def test_scan_is_the_same_at_any_worker_count(self, monkeypatch, workers):
        monkeypatch.setenv("HOMOEOID_THREADS", workers)
        scan = multiplicity_scan(0, [2**-3, 2**-4, 2**-5], trials=2, m=256, seed=1)
        monkeypatch.setenv("HOMOEOID_THREADS", "1")
        serial = multiplicity_scan(0, [2**-3, 2**-4, 2**-5], trials=2, m=256, seed=1)
        assert scan == serial


def per_member_direct_overlap_l2(family, m, seed, refined):
    """The oracle with one ``annulus_contains`` call per member on row-major
    box points, the form its all-members kernel replaces."""
    specs = [family.spec(j, refined) for j in range(len(family))]
    pad = np.sqrt(1.0 + family.delta) * family.radii
    lo = np.min(family.centres - pad, axis=0)
    hi = np.max(family.centres + pad, axis=0)
    box_volume = float(np.prod(hi - lo))

    def values(rng, k):
        y = lo + (hi - lo) * rng.random((k, family.n))
        counts = np.zeros(k)
        for spec in specs:
            counts += geo.annulus_contains(spec, y)
        return box_volume * counts**2

    (est,) = mc_mean(values, m, seed=seed, stream=derive_stream("direct-overlap", int(refined)))
    if est.value <= 0.0:
        return MCEstimate(0.0, math.sqrt(est.std_error), est.n_samples, seed)
    return MCEstimate(
        math.sqrt(est.value), est.std_error / (2.0 * math.sqrt(est.value)), est.n_samples, seed
    )


class TestDirectOverlapL2:
    @pytest.mark.parametrize("count", [1, 2, 8])
    @pytest.mark.parametrize("n, axis", [(n, axis) for n in (2, 3, 4) for axis in range(n)])
    def test_matches_per_member_loop(self, n, axis, count):
        # 70,001 points: one whole chunk and a ragged one, each window cut
        # into blocks of DEFAULT_CHUNK // count points
        fam = generate_family(axis, 2**-4, count, seed=n + axis, n=n)
        for refined in (True, False):
            got = direct_overlap_l2(fam, 70_001, seed=3, refined=refined)
            assert got == per_member_direct_overlap_l2(fam, 70_001, 3, refined)
            assert got.value > 0.0

    @pytest.mark.parametrize("n, count", [(2, 5), (3, 8), (4, 3)])
    def test_matches_per_member_loop_over_several_chunks(self, n, count):
        # three whole chunks and a ragged fourth
        m = 3 * multiplicity.DEFAULT_CHUNK + 4321
        fam = generate_family(n - 1, 2**-5, count, seed=11, n=n)
        for refined in (True, False):
            got = direct_overlap_l2(fam, m, seed=8, refined=refined)
            assert got == per_member_direct_overlap_l2(fam, m, 8, refined)

    def test_a_chunk_with_no_point_near_a_shell(self):
        fam = generate_family(0, 2**-4, 2, seed=6)
        for refined in (True, False):
            for m in (1, 2, 3):
                got = direct_overlap_l2(fam, m, seed=0, refined=refined)
                assert got == per_member_direct_overlap_l2(fam, m, 0, refined)
                assert got.value == 0.0  # the kernel is called on no point

    def test_matches_per_member_loop_for_a_large_family(self):
        # 300 members: counts tallied in 16 bits, sub-blocks of 218 points
        fam = generate_family(1, 2**-8, 300, seed=4, n=2)
        for refined in (True, False):
            got = direct_overlap_l2(fam, 20_001, seed=5, refined=refined)
            assert got == per_member_direct_overlap_l2(fam, 20_001, 5, refined)

    def test_deterministic(self):
        fam = generate_family(0, 2**-4, 3, seed=6)
        a = direct_overlap_l2(fam, 1 << 18, seed=1)
        b = direct_overlap_l2(fam, 1 << 18, seed=1)
        assert (a.value, a.std_error) == (b.value, b.std_error)

    def test_refined_below_plain_within_error(self):
        fam = generate_family(0, 2**-4, 4, seed=6)
        refined = direct_overlap_l2(fam, 1 << 19, seed=1)
        plain = direct_overlap_l2(fam, 1 << 19, seed=1, refined=False)
        sigma = math.hypot(refined.std_error, plain.std_error)
        assert refined.value <= plain.value + 3.0 * sigma

    def test_single_member_matches_closed_form(self):
        fam = generate_family(0, 2**-4, 1, seed=2)
        est = direct_overlap_l2(fam, 1 << 20, seed=3, refined=False)
        want = math.sqrt(shell_volume(fam.radii[0], fam.delta))
        assert abs(est.value - want) < 4.0 * est.std_error

    def test_does_not_use_the_pairwise_scoring(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the oracle must stay independent of the pairwise route")

        monkeypatch.setattr(multiplicity, "_pair_terms", forbidden)
        fam = generate_family(0, 2**-4, 3, seed=6)
        for refined in (True, False):
            assert direct_overlap_l2(fam, 1 << 16, seed=1, refined=refined).value > 0.0


def kernel_counts(family, refined, points):
    """Per-member verdicts of the membership kernel on ``(k, n)`` points."""
    axis = family.axis if refined else None
    shell, sector = geo.shell_membership(
        family.centres, family.radii, family.delta, points.T, axis
    )
    return shell if sector is None else shell & sector


def round_family(n, axis, delta, count, seed):
    """A family whose members are balls, so the window's bounds are tight in
    every direction and its floor is tight for every member."""
    fam = generate_family(axis, delta, count, seed=seed, n=n)
    radii = np.repeat(fam.radii[:, :1], n, axis=1)
    return EllipsoidFamily(axis=axis, delta=fam.delta, offsets=fam.offsets, radii=radii)


class TestLineWindow:
    """The certified window of the direct oracle holds every point the
    membership kernel counts, and drops the points no shell can hold."""

    @staticmethod
    def planted(family, rng, rays=64):
        """Points just inside each member's float shell boundary, inner and
        outer, on random rays and along the axes of the smallest and the
        largest radius, found by bisecting the kernel's own verdict."""
        n, delta = family.n, family.delta
        points = []
        for i in range(len(family)):
            c, r = family.centres[i], family.radii[i]
            u = rng.standard_normal((rays, n))
            u /= np.linalg.norm(u, axis=1, keepdims=True)
            for j in (np.argmin(r), np.argmax(r)):
                u = np.vstack([u, np.eye(n)[j], -np.eye(n)[j]])

            def accepts(s, c=c, r=r, u=u, i=i):
                y = c + r * (s[:, None] * u)
                return kernel_counts(family, False, y)[i]

            mid = np.ones(len(u))
            for edge in (math.sqrt(1.0 - delta), math.sqrt(1.0 + delta)):
                far = np.full(len(u), edge * (1.5 if edge > 1 else 0.5))
                s = last_counted(accepts, mid, far)
                points.append(c + r * (s[:, None] * u))
        return np.vstack(points)

    @staticmethod
    def planted_on_floor(family, rng, rays=64):
        """Mid-shell points whose ``axis`` coordinate is the smallest the
        kernel's refinement still counts, for every member."""
        n, axis = family.n, family.axis
        height = (2.0 * geo.default_refinement_cut(n)) ** (1.0 / 3.0)
        points = []
        for i in range(len(family)):
            c, r = family.centres[i], family.radii[i]
            v = rng.standard_normal((rays, n))
            v[:, axis] = 0.0
            v /= np.linalg.norm(v, axis=1, keepdims=True)
            sign = np.where(rng.random(rays) < 0.5, -1.0, 1.0)

            def at(a, c=c, r=r, v=v, sign=sign):
                w = np.sqrt(1.0 - a * a)[:, None] * v
                w[:, axis] = sign * a
                return c + r * w

            def accepts(a, i=i, at=at):
                return kernel_counts(family, True, at(a))[i]

            a = last_counted(accepts, np.full(rays, 1.5 * height), np.full(rays, 0.5 * height))
            points.append(at(a))
        return np.vstack(points)

    # at n = 7 the refinement's float threshold sits where the kernel counts
    # points a hair below (2*cut)^(1/3) * r_axis, so the floor needs its margin
    @pytest.mark.parametrize("n, axis", [(2, 1), (3, 0), (3, 2), (4, 1), (7, 3)])
    @pytest.mark.parametrize("round_members", [True, False])
    def test_keeps_every_point_the_kernel_counts(self, n, axis, round_members):
        make = round_family if round_members else generate_family
        fam = make(n=n, axis=axis, delta=2**-4, count=4, seed=n + axis)
        rng = np.random.default_rng(n + axis)
        shell_points = self.planted(fam, rng)
        floor_points = self.planted_on_floor(fam, rng)
        for refined, points in ((False, shell_points), (True, shell_points), (True, floor_points)):
            counted = kernel_counts(fam, refined, points).any(axis=0)
            kept = multiplicity._line_window(fam, refined)(list(points.T))
            assert counted.any()
            assert np.all(kept[counted])
        assert kernel_counts(fam, True, floor_points).any(axis=0).all()

    @pytest.mark.parametrize("refined", [True, False])
    def test_drops_points_off_every_shell(self, refined):
        # the pair-scan family: a kept point is within the window's bounds up
        # to 1e-9 (relative), so the inner bound and the floor both bite
        fam = generate_family(0, 2.0**-4, 8, seed=0)
        pad = np.sqrt(1.0 + fam.delta) * fam.radii
        lo = np.min(fam.centres - pad, axis=0)
        hi = np.max(fam.centres + pad, axis=0)
        points = lo + (hi - lo) * np.random.default_rng(1).random((50_000, 3))
        kept = multiplicity._line_window(fam, refined)(list(points.T))
        square = np.sum((points[None] - fam.centres[:, None]) ** 2, axis=-1)
        low = (1.0 - fam.delta) * np.min(fam.radii, axis=1) ** 2
        high = (1.0 + fam.delta) * np.max(fam.radii, axis=1) ** 2
        near = (square > low[:, None] * (1.0 - 1e-9)) & (square < high[:, None] * (1.0 + 1e-9))
        allowed = near.any(axis=0)
        if refined:
            height = (2.0 * geo.default_refinement_cut(3)) ** (1.0 / 3.0)
            allowed &= np.abs(points[:, 0]) >= height * np.min(fam.radii[:, 0]) * (1.0 - 1e-9)
        assert not np.any(kept & ~allowed)
        counted = kernel_counts(fam, refined, points).any(axis=0)
        assert np.all(kept[counted]) and counted.any()


class TestMultiplicityScan:
    DELTAS = (2**-4, 2**-5, 2**-6)

    def test_rows_schema_and_worst_tables(self):
        scan = multiplicity_scan(0, self.DELTAS, trials=2, m=1024, seed=3)
        assert len(scan.rows) == len(self.DELTAS) * 2 * 2
        keys = {"delta", "trial_seed", "N", "norm", "std_error", "bound", "C", "refined"}
        assert all(set(row) == keys for row in scan.rows)
        assert set(scan.worst) == set(self.DELTAS) == set(scan.worst_plain)
        assert all(row["C"] > 0.0 for row in scan.rows)
        assert all(row["N"] == int(1.0 / row["delta"]) for row in scan.rows)
        for table, refined in ((scan.worst, True), (scan.worst_plain, False)):
            for delta in self.DELTAS:
                rows = [r for r in scan.rows if (r["delta"], r["refined"]) == (delta, refined)]
                assert table[delta] == max(r["C"] for r in rows)

    def test_plain_constant_dominates_refined(self):
        scan = multiplicity_scan(0, self.DELTAS, trials=2, m=1024, seed=3)
        assert all(scan.worst_plain[d] >= scan.worst[d] for d in self.DELTAS)

    def test_rows_are_reproducible_from_their_seed(self):
        scan = multiplicity_scan(0, self.DELTAS, trials=2, m=1024, seed=3)
        row = scan.rows[0]
        fam = generate_family(0, row["delta"], row["N"], row["trial_seed"])
        est = overlap_l2(fam, 1024, seed=row["trial_seed"], refined=row["refined"])
        assert est.value == row["norm"]
        assert row["norm"] / row["bound"] == row["C"]

    def test_every_row_is_reproducible_from_its_seed(self):
        scan = multiplicity_scan(0, self.DELTAS, trials=2, m=512, seed=4)
        drawn = 0
        for row in scan.rows:
            fam = generate_family(0, row["delta"], row["N"], row["trial_seed"])
            est = overlap_l2(fam, 512, seed=row["trial_seed"], refined=row["refined"])
            other = overlap_l2(fam, 512, seed=row["trial_seed"], refined=not row["refined"])
            assert (est.value, est.std_error) == (row["norm"], row["std_error"])
            assert est.n_samples == other.n_samples
            assert est.value / row["bound"] == row["C"]
            drawn += est.n_samples if row["refined"] else 0  # both variants share a batch
        assert scan.drawn == drawn > 0

    def test_deterministic(self):
        a = multiplicity_scan(0, self.DELTAS, trials=1, m=512, seed=5)
        b = multiplicity_scan(0, self.DELTAS, trials=1, m=512, seed=5)
        assert a.rows == b.rows

    def test_validation(self):
        with pytest.raises(ValueError):
            multiplicity_scan(0, (2**-4, 2**-5), trials=1)
        with pytest.raises(ValueError):
            multiplicity_scan(0, (2**-5, 2**-4, 2**-6), trials=1)
        with pytest.raises(ValueError):
            multiplicity_scan(0, self.DELTAS, trials=0)
