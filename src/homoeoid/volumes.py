"""Volumes of thin shells, their intersections, and tangency-band structure.

Sampling strategy
-----------------
Shells are sampled through the exact reference parameterisation (uniform
direction, radial inverse-CDF), never by rejection from a bounding box, so
every draw is a usable sample.  Refinements and second-shell membership enter
as indicators on a *shared* batch wherever several quantities must be
compared: partitions then sum exactly, and refined estimates are exactly
dominated by unrefined ones, sample by sample.

Two kernels draw every full shell sample: :func:`reference_shell_sampler`
from one generator, and :func:`keyed_shell_points` one batch per stream id
(the cluster estimator draws only part of its sample; see below).  Both
follow the package's layout rule (see :mod:`homoeoid.mc`): the squared norm
is accumulated one coordinate column at a time in coordinate order, so for
``n < 8`` the samples equal those of ``np.linalg.norm`` bit for bit, and
each column is then divided by the norm and scaled by the radius in place.

Drawing only where a point can be accepted
------------------------------------------
Two estimators keep the law of a uniform reference-shell sample filtered by
float tests, but draw only the points that can pass.  A uniform shell point
``s*u`` has a uniform direction ``u`` and an independent radius ``s`` (the
radial inverse CDF of :func:`_to_shell`), so of a batch of ``k`` draws a
Binomial(k, |K| / |S^(n-1)|) number have their direction in a region ``K``,
and those are i.i.d. uniform there.  If ``K`` holds the direction of every
point that the float tests accept, the accepted set, its size and its first
points have the law of the full batch.  Each estimator draws that count and
then that many points from the batch's own generator.

:func:`intersection_volume` draws in a zone ``{u : z_lo <= u.e <= z_hi}``
(:func:`_hit_zone`).  In the reference coordinates of ``spec_a`` the second
shell has centre ``c = (c_b - c_a)/r_a`` and radii ``r_b/r_a``; with ``D =
diag((r_a/r_b)**2)``, ``w = |Dc|`` and ``e = Dc/w``,

    ``F_B(s*u) = s**2 * u^T D u - 2 s w (u.e) + c^T D c - 1``,

and ``u^T D u`` lies in ``[min D, max D]``.  The ``z = u.e`` for which some
base-shell radius and some value in that range give ``|F_B| < delta_b``
form one interval, in closed form.  It is widened by a relative margin
``_ZONE_ROUNDING`` of the squared sizes of the pulled-back coordinates,
which covers the float affine map and membership kernel.  ``z`` has density
proportional to ``(1 - z**2)**((n-3)/2)`` (``(1+z)/2`` is Beta((n-1)/2,
(n-1)/2): uniform at n = 3, arcsine at n = 2), so the zone's mass is a
difference of regularised incomplete beta functions (at n >= 4, upper tails
for a zone above the equator), which at n = 3 is ``(z_hi - z_lo) / 2``.
``z`` is drawn in closed form at n = 3, by the inverse CDF at n = 2, and by
rejection from the uniform on ``[z_lo, z_hi]`` at n >= 4.  The rest
of ``u`` is a uniform unit vector of ``e``'s orthogonal complement.  The zone
ignores both refinements, so a refined and a plain ``spec_a`` on one stream
draw the same points, and the refined hits are a subset of the plain ones.
The Knapp cap of :func:`homoeoid.knapp.slab_shell_average` is a zone with
``z_hi = 1``.

:func:`low_jacobian_cluster` draws in a union ``K`` of ``(z, phi)`` cells.
In n = 3 a uniform shell point ``s*u`` is a uniform point of the box ``(z,
phi, v)``: ``z = u[axis]`` is uniform on ``[-1, 1]`` and the azimuth ``phi``
on ``[0, 2 pi)`` (Archimedes' hat-box theorem), and ``v = s**3`` is uniform
on ``[s0**3, s1**3]``.  :func:`_tangency_cover` builds ``K`` with a
certificate that carries two float margins: ``kappa``, a multiple of ``eps
* |a|**2 |b|**2`` that bounds the Gram kernel's rounding of ``N**2``
(without it a float-accepted point could fall outside ``K`` when ``rho`` is
tiny), and a relative ``1e-12`` below the refinement's edge for the cube
test's rounding.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, Optional, Sequence

import numpy as np

from homoeoid import geometry as geo
from homoeoid.mc import (
    DEFAULT_CHUNK,
    MCEstimate,
    derive_stream,
    mc_mean,
    ordered_map,
    rng_stream,
    stream_rekeyer,
)

Array = np.ndarray

__all__ = [
    "BandDecomposition",
    "ClusterReport",
    "IntersectionEstimate",
    "ball_volume",
    "sphere_area",
    "shell_volume",
    "reference_shell_sampler",
    "keyed_shell_points",
    "sample_surface",
    "intersection_volume",
    "volume_bound_scan",
    "banded_intersection_scan",
    "low_jacobian_cluster",
    "seeded_cluster_configs",
    "pair_volume_bound",
]


def ball_volume(n: int) -> float:
    """Volume of the unit ball in dimension ``n``."""
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)


def sphere_area(n: int) -> float:
    """Surface area of the unit sphere in ``R^n`` (i.e. of ``S^{n-1}``)."""
    return n * ball_volume(n)


def shell_volume(radii: Array, delta: float) -> float:
    """Exact Lebesgue volume of the shell ``{ |F| < delta }``.

    The reference shell is ``sqrt(1-delta) < |omega| < sqrt(1+delta)``, so the
    volume is ``prod(r) * v_n * ((1+delta)^{n/2} - (1-delta)^{n/2})``.
    """
    r = np.asarray(radii, dtype=float)
    n = r.shape[-1]
    delta = geo._shell_width(delta)
    lo, hi = _radial_bounds((1.0 - delta, 1.0 + delta), n)
    return float(np.prod(r)) * ball_volume(n) * (hi - lo)


def _radial_bounds(bounds: tuple[float, float], d: int) -> tuple[float, float]:
    """Bounds on ``|w|**d`` of the shell ``lo < |w|**2 < hi`` of ``R^d``."""
    return bounds[0] ** (d / 2.0), bounds[1] ** (d / 2.0)


def _normalise(v: Array) -> Array:
    """Scale every ``(..., n)`` row of ``v`` to unit length, in place."""
    n = v.shape[-1]
    norm = v[..., 0] * v[..., 0]
    for j in range(1, n):
        norm += v[..., j] * v[..., j]
    np.sqrt(norm, out=norm)
    for j in range(n):
        v[..., j] /= norm
    return v


def _to_shell(omega: Array, s: Array, bounds: tuple[float, float]) -> Array:
    """Points of the shell ``bounds[0] < |w|**2 < bounds[1]`` from unit
    directions ``omega`` ``(..., d)`` and uniforms ``s`` ``(...)``, both
    overwritten: ``s`` becomes the radius, by the inverse CDF of ``s^{d-1} ds``."""
    d = omega.shape[-1]
    lo, hi = _radial_bounds(bounds, d)
    s *= hi - lo
    s += lo
    s **= 1.0 / d
    for j in range(d):
        omega[..., j] *= s
    return omega


def reference_shell_sampler(delta: float, n: int) -> Callable[[np.random.Generator, int], Array]:
    """Sampler of uniform (Lebesgue) points on the reference shell.

    Returns ``fn(rng, m) -> omega`` with ``| |omega|^2 - 1 | < delta``.  The
    radial coordinate uses the exact inverse CDF of ``s^{n-1} ds`` between
    ``sqrt(1-delta)`` and ``sqrt(1+delta)``.  All ``(m, n)`` normals are drawn
    first and then all ``m`` uniforms; they are mapped to the shell in blocks
    of ``DEFAULT_CHUNK`` rows.
    """
    delta = geo._shell_width(delta)

    def sample(rng: np.random.Generator, m: int) -> Array:
        omega = rng.standard_normal((m, n))
        s = rng.random(m)
        # row by row arithmetic, in blocks to keep its temporaries small
        for i in range(0, m, DEFAULT_CHUNK):
            rows = slice(i, i + DEFAULT_CHUNK)
            _to_shell(_normalise(omega[rows]), s[rows], (1.0 - delta, 1.0 + delta))
        return omega

    return sample


def keyed_shell_points(
    seed: int, streams: Sequence[int], m: int, d: int, bounds: tuple[float, float]
) -> tuple[Array, Array]:
    """``m`` uniform points of the shell ``bounds[0] < |w|**2 < bounds[1]`` of
    ``R^d`` per stream id (``(1-delta, 1+delta)`` is the reference shell):
    row ``i`` draws ``standard_normal((m, d))`` and then ``random(m)`` from
    ``(seed, streams[i])`` through one :func:`~homoeoid.mc.stream_rekeyer`
    generator, mapped as in :func:`reference_shell_sampler`.  Returns the
    ``(k, m, d)`` points and their ``(k, m)`` radii.
    """
    points = np.empty((len(streams), m, d))
    radii = np.empty((len(streams), m))
    rekey = stream_rekeyer(seed)
    for k, stream in enumerate(streams):
        rng = rekey(stream)
        rng.standard_normal(out=points[k])
        rng.random(out=radii[k])
    return _to_shell(_normalise(points), radii, bounds), radii


def sample_surface(
    radii: Array,
    m: int,
    seed: int,
    stream: int = 0,
    centre: Optional[Array] = None,
) -> tuple[Array, Array]:
    """Points on an ellipsoid surface with exact area weights.

    Directions are uniform on the sphere; each sample carries the weight
    ``sphere_area(n) * prod(r) * sqrt(sum(theta_j^2 / r_j^2))`` so that
    ``mean(weights)`` estimates the total surface area and
    ``mean(f(points) * weights)`` estimates ``integral of f dS``.
    """
    r = np.asarray(radii, dtype=float)
    n = r.shape[0]
    x = np.zeros(n) if centre is None else np.asarray(centre, dtype=float)
    rng = rng_stream(seed, derive_stream("surface", stream))
    theta = _normalise(rng.standard_normal((m, n)))
    weights = sphere_area(n) * float(np.prod(r)) * np.sqrt(np.sum((theta / r) ** 2, axis=1))
    return x + r * theta, weights


@dataclasses.dataclass(frozen=True)
class IntersectionEstimate(MCEstimate):
    """An :func:`intersection_volume` estimate; ``drawn`` is the number of
    shell points it drew, those of its ``n_samples`` in the hit zone."""

    drawn: int


def intersection_volume(
    spec_a: geo.AnnulusSpec, spec_b: geo.AnnulusSpec, m: int, seed: int, stream: int = 0
) -> IntersectionEstimate:
    """Monte-Carlo volume of the intersection of two (refined) shells.

    Has the law of ``m`` uniform points of the plain shell of ``spec_a``
    scored by the refined indicator of ``spec_a`` times membership in
    ``spec_b``, but draws only the points whose direction lies in the hit
    zone (see the module docstring): in each ``mc_mean`` chunk of ``k``
    samples, a Binomial(k, zone mass) count, then that many zone points,
    all from the chunk's generator.  The estimate is unbiased with
    binomial-type error.  ``spec_b == spec_a`` recovers the shell volume.
    """
    zone = _hit_zone(spec_a, spec_b)
    v_base = shell_volume(spec_a.ellipsoid.radii, spec_a.delta)
    drawn = []  # one count per chunk; list.append is atomic across worker threads

    def values(rng: np.random.Generator, k: int) -> Array:
        count, hits = _zone_hits(spec_a, spec_b, zone, rng, k)
        drawn.append(count)
        out = np.zeros(k)
        out[: hits.shape[0]] = v_base
        return out

    (est,) = mc_mean(values, m, seed=seed, stream=derive_stream("ivol", stream))
    return IntersectionEstimate(**dataclasses.asdict(est), drawn=sum(drawn))


# Relative margin of the hit zone, in units of the squared sizes of the
# pulled-back coordinates: the float affine map and membership kernel round
# F_B by a few dozen eps in those units, and the drawn radius by a few eps.
_ZONE_ROUNDING = 1e-12


@dataclasses.dataclass(frozen=True)
class _HitZone:
    """The directions ``u`` of ``S^(n-1)`` with ``z_lo <= u.e <= z_hi``, for
    a unit ``e`` and ``-1 <= z_lo, z_hi <= 1``; empty when ``z_lo > z_hi``.
    The hit zone of :func:`intersection_volume` and the Knapp cap of
    :func:`homoeoid.knapp.slab_shell_average` are both of this kind."""

    e: Array
    z_lo: float
    z_hi: float

    def _cdf(self, upper: bool = False) -> tuple[float, float]:
        """The law of ``u.e`` for a uniform ``u`` at ``z_lo`` and ``z_hi``;
        with ``upper``, its upper tails at ``z_hi`` and ``z_lo`` (the law is
        even, so these are the law of ``-u.e`` at ``-z_hi`` and ``-z_lo``)."""
        n = self.e.size
        sign, ends = (-1.0, (self.z_hi, self.z_lo)) if upper else (1.0, (self.z_lo, self.z_hi))
        x = [0.5 * (1.0 + sign * z) for z in ends]
        if n != 3:  # at n = 3 the law is Beta(1, 1), whose CDF is the identity
            from scipy.special import betainc

            a = 0.5 * (n - 1)
            x = [betainc(a, a, v) for v in x]
        lo, hi = (float(v) for v in x)
        return lo, hi

    @property
    def mass(self) -> float:
        """Share of the sphere's area that the zone covers; at n >= 4 a zone
        above the equator is measured on the upper tails, so a small cap keeps
        its relative accuracy (n = 2, 3 use the lower tails that _z inverts)."""
        lo, hi = self._cdf(upper=self.e.size >= 4 and self.z_lo > 0.0)
        return max(hi - lo, 0.0)

    def _z(self, rng: np.random.Generator, k: int) -> Array:
        """``k`` i.i.d. draws of ``u.e`` for a uniform ``u`` of the zone: in
        closed form at n = 3, where ``u.e`` is uniform on ``[-1, 1]``; by the
        inverse CDF at n = 2; at n >= 4 by keeping a uniform candidate on
        ``[z_lo, z_hi]`` when a uniform multiple of the density's peak on the
        zone falls below its density ``(1 - z**2)**((n-3)/2)`` (Devroye 1986,
        ch. II).  That is exact at any n and keeps a thin cap's resolution; at
        least ``2/(n-1)`` of the candidates pass, fewest on a thin polar cap,
        since ``(1 - z**2)/(1 - a**2) >= (1 - z)/(1 - a)`` for ``0 <= a <= z``."""
        n = self.e.size
        if n <= 3:
            lo, hi = self._cdf()
            x = lo + (hi - lo) * rng.random(k)
            if n == 2:
                from scipy.special import betaincinv

                x = betaincinv(0.5, 0.5, x)
            return 2.0 * x - 1.0
        power = 0.5 * (n - 3)
        lo, hi = self.z_lo, self.z_hi
        peak = (1.0 - min(max(lo, 0.0), hi) ** 2) ** power
        z = np.empty(k)
        done = 0
        while done < k:
            candidate = lo + (hi - lo) * rng.random(k - done)
            kept = candidate[peak * rng.random(k - done) <= (1.0 - candidate * candidate) ** power]
            z[done : done + kept.size] = kept
            done += kept.size
        return z

    def directions(self, rng: np.random.Generator, k: int) -> Array:
        """``(k, n)`` i.i.d. uniform unit vectors of the zone: ``z`` by
        :meth:`_z`, then ``u = z e + sqrt(1 - z**2) v`` with ``v`` a Gaussian
        with its ``e`` component removed, normalised."""
        e = self.e
        z = self._z(rng, k)
        u = rng.standard_normal((k, e.size))
        # a second pass removes what the first leaves of e, by cancellation,
        # from the Gaussians that point nearly along e
        for _ in range(2):
            along = u @ e
            for j in range(e.size):
                u[:, j] -= along * e[j]
        _normalise(u)
        ring = np.sqrt(1.0 - z * z)
        for j in range(e.size):
            u[:, j] *= ring
            u[:, j] += z * e[j]
        return u

    def shell_points(self, rng: np.random.Generator, k: int, delta: float) -> Array:
        """``(k, n)`` i.i.d. uniform points of the reference shell of width
        ``delta`` with their direction in the zone: :meth:`directions`, then
        ``k`` radii by the radial inverse CDF of :func:`_to_shell`."""
        return _to_shell(self.directions(rng, k), rng.random(k), (1.0 - delta, 1.0 + delta))


def _hit_zone(spec_a: geo.AnnulusSpec, spec_b: geo.AnnulusSpec) -> _HitZone:
    """Zone outside which no point of ``spec_a``'s plain shell passes the
    float test of ``spec_b``'s plain shell (see the module docstring); both
    refinements are ignored.

    With ``F_B(s*u) = a s**2 - 2 w z s + e0``, ``a`` in ``[min D, max D]``
    and ``s`` in ``[s0, s1]``: ``F_B < lim`` for some ``(a, s)`` iff ``z >
    min_s (min D s**2 + e0 - lim) / (2 w s)``, a function of ``s`` whose
    minimum lies at ``s0``, ``s1`` or ``s* = sqrt((e0 - lim) / min D)``; and
    ``F_B > -lim`` for some ``(a, s)`` iff ``z < max_s (max D s**2 + e0 +
    lim) / (2 w s)``, a convex or increasing function of ``s``, so at ``s0``
    or ``s1``.  ``F_B`` is continuous on the connected ``(a, s)`` box, so
    both hold iff some ``(a, s)`` gives ``|F_B| < lim``.  ``lim`` is
    ``delta_b`` plus the rounding margin, and ``s0``, ``s1`` and the ends
    are widened by it too.  No float point can reach the end ``slack``: each
    ``|(D c)_i| <= size_i**2 / s1``, so ``2 w s <= 2 size@size``, and the
    margin in ``lim`` moves each unclipped end out by nearly ``mu / 2`` more
    than the float test's rounding needs, far above the few-eps rounding of
    the end formulas that the slack covers.  When ``2 w s`` is within the
    margin of zero (a concentric pair, ``spec_b == spec_a`` among them) the
    zone is the whole sphere or empty, by the same test with ``|2 w z s| <=
    2 w s1`` added to ``lim``.
    """
    ell_a, ell_b = spec_a.ellipsoid, spec_b.ellipsoid
    mu = _ZONE_ROUNDING
    c = (ell_b.centre - ell_a.centre) / ell_a.radii
    d = (ell_a.radii / ell_b.radii) ** 2
    dc = d * c
    w = math.sqrt(float(dc @ dc))
    e0 = float(c @ dc) - 1.0
    lo_d, hi_d = float(d.min()), float(d.max())
    s0 = math.sqrt(1.0 - spec_a.delta) * (1.0 - mu)
    s1 = math.sqrt(1.0 + spec_a.delta) * (1.0 + mu)
    size = (np.abs(ell_a.centre) + s1 * ell_a.radii + np.abs(ell_b.centre)) / ell_b.radii
    lim = spec_b.delta + mu * (1.0 + float(size @ size))
    spread = hi_d * s1 * s1 + abs(e0) + lim
    if 2.0 * w * s0 <= mu * spread:
        lim += 2.0 * w * s1
        whole = lo_d * s0 * s0 + e0 < lim and hi_d * s1 * s1 + e0 > -lim
        return _HitZone(np.eye(ell_a.n)[0], -1.0 if whole else 1.0, 1.0 if whole else -1.0)
    radii = [s0, s1]
    if e0 > lim and s0 < math.sqrt((e0 - lim) / lo_d) < s1:
        radii.append(math.sqrt((e0 - lim) / lo_d))
    z_lo = min((lo_d * s * s + e0 - lim) / (2.0 * w * s) for s in radii)
    z_hi = max((hi_d * s * s + e0 + lim) / (2.0 * w * s) for s in (s0, s1))
    slack = mu * (1.0 + spread / (2.0 * w * s0))
    z_lo, z_hi = (min(max(z, -1.0), 1.0) for z in (z_lo - slack, z_hi + slack))
    return _HitZone(dc / w, z_lo, z_hi)


def _zone_hits(
    spec_a, spec_b, zone: _HitZone, rng: np.random.Generator, k: int
) -> tuple[int, Array]:
    """``(drawn, hits)`` of ``k`` uniform points of ``spec_a``'s plain shell:
    how many have their direction in ``zone`` (only those are drawn), and
    the reference points among them that ``spec_a``'s refinement and
    ``spec_b`` accept."""
    ell = spec_a.ellipsoid
    drawn = int(rng.binomial(k, zone.mass))
    omega = zone.shell_points(rng, drawn, spec_a.delta)
    # on the unit reference shell the map 0 + 1*omega is the identity
    unit = not np.any(ell.centre) and bool(np.all(ell.radii == 1.0))
    y = omega if unit else geo.affine_map(ell.centre, ell.radii, omega)
    hit = geo.annulus_contains(spec_b, y)
    if spec_a.axis is not None:
        hit &= geo.refinement_indicator(omega, spec_a.axis)
    return drawn, omega[hit]


def pair_volume_bound(delta: float, t: float) -> float:
    """Reference envelope ``ln(1/delta) * delta^2 / (delta + t)`` (natural log)."""
    return math.log(1.0 / delta) * delta * delta / (delta + t)


def volume_bound_scan(
    *,
    axis: int = 0,
    deltas: Sequence[float],
    ts: Sequence[float],
    pairs: int = 50,
    m: int = 100_000,
    seed: int,
    n: int = 3,
    refined: bool = True,
) -> list[dict]:
    """Measured refined-pair intersection volumes against the envelope.

    For each ``(delta, t, trial)`` draws two radii vectors from the restricted
    box, normalises the pair (first shell becomes the reference shell, the
    second's centre moves to ``t * dtilde`` with ``dtilde`` the perturbed axis
    direction), and estimates the intersection volume of the two axis-refined
    shells.  Rows report ``ratio = measured / envelope``; a uniform bound
    corresponds to ratios with bounded drift across ``delta``; a row's
    ``seed`` is its trial index, on which its radii and sample streams are
    keyed.  The cells are independent units of :func:`ordered_map`, each on
    its own keyed streams.  A row's ``drawn`` is the number of shell points
    its estimate drew, out of ``m``.  ``refined=False`` measures the plain
    shells of the same pairs instead, on the streams ``"explore-radii"`` and
    ``"explore"`` in place of ``"volscan-radii"`` and ``"volscan"``.
    """
    key = "volscan" if refined else "explore"
    lo, hi = geo.restricted_radii_box(n)
    cells = [(delta, t, trial) for delta in deltas for t in ts for trial in range(pairs)]

    def cell(idx: int) -> dict:
        delta, t, trial = cells[idx]
        r_rng = rng_stream(seed, derive_stream(f"{key}-radii", delta, t, trial))
        r1 = lo + (hi - lo) * r_rng.random(n)
        r2 = lo + (hi - lo) * r_rng.random(n)
        dtilde = geo.perturbed_axis_direction(axis, r1)
        refinement = axis if refined else None
        spec_a = geo.AnnulusSpec(geo.Ellipsoid(np.zeros(n), np.ones(n)), delta, refinement)
        spec_b = geo.AnnulusSpec(geo.Ellipsoid(t * dtilde, r2 / r1), delta, refinement)
        est = intersection_volume(
            spec_a, spec_b, m, seed, stream=derive_stream(key, delta, t, trial)
        )
        bound = pair_volume_bound(delta, t)
        return {
            "delta": delta,
            "t": t,
            "seed": trial,
            "measured": est.value,
            "std_error": est.std_error,
            "bound": bound,
            "ratio": est.value / bound,
            "drawn": est.drawn,
        }

    return ordered_map(cell, len(cells))


@dataclasses.dataclass(frozen=True)
class BandDecomposition:
    """Intersection volume split by the size of the tangency functional.

    ``tang`` collects ``norm < 2*sqrt(t*delta)``, ``bands[i]`` the dyadic
    range ``rho_i <= norm < min(2*rho_i, t)`` for ``rho_i = sqrt(t*delta)*2^i``
    (``i >= 1``), and ``trans`` the transversal remainder ``norm >= t``.  The
    three parts partition the intersection exactly; ``total`` is estimated
    from an independent stream so the partition check is a meaningful
    cross-validation rather than a tautology.
    """

    delta: float
    t: float
    rho_values: tuple[float, ...]
    tang: MCEstimate
    bands: tuple[MCEstimate, ...]
    trans: MCEstimate
    total: MCEstimate

    @property
    def parts_sum(self) -> float:
        return self.tang.value + sum(b.value for b in self.bands) + self.trans.value

    @property
    def parts_std_error(self) -> float:
        parts = [self.tang, *self.bands, self.trans]
        return math.sqrt(sum(p.std_error**2 for p in parts))


def banded_intersection_scan(
    *,
    axis: int,
    t: float,
    radii: Array,
    delta: float,
    m: int,
    seed: int,
) -> BandDecomposition:
    """Split a refined-pair intersection volume by tangency-functional size.

    The first shell is the refined reference shell of ``axis``; the second
    is the plain shell at centre ``t * axis_direction(n, axis)`` with the
    given radii.  Requires ``t`` well separated from the shell width (``t >
    10*delta``), the regime in which the band structure is meaningful.  All
    class volumes come from one shared classified batch; ``total`` uses an
    independent stream.
    """
    radii = np.asarray(radii, dtype=float)
    n = radii.shape[0]
    if t <= 10.0 * delta:
        raise ValueError(f"band scan needs t > 10*delta, got t={t}, delta={delta}")
    cfg = geo.TangencyConfig(axis, t, radii)
    spec_b = geo.AnnulusSpec(geo.Ellipsoid(cfg.centre, radii), delta)
    v_base = shell_volume(np.ones(n), delta)
    sampler = reference_shell_sampler(delta, n)

    rho0 = math.sqrt(t * delta)
    rhos = []
    rho = 2.0 * rho0
    while rho < t:
        rhos.append(rho)
        rho *= 2.0
    edges_lo = np.array(rhos)
    edges_hi = np.minimum(2.0 * edges_lo, t)

    def classified(rng: np.random.Generator, k: int) -> Array:
        omega = sampler(rng, k)
        inter = geo.refinement_indicator(omega, axis)
        inter &= geo.annulus_contains(spec_b, omega)  # reference shell is unit: y == omega
        norm = geo.jacobian_gram_norm(cfg, omega)
        cols = [inter & (norm < 2.0 * rho0)]
        for lo_e, hi_e in zip(edges_lo, edges_hi):
            cols.append(inter & (norm >= lo_e) & (norm < hi_e))
        cols.append(inter & (norm >= t))
        return v_base * np.stack(cols, axis=1)

    def plain(rng: np.random.Generator, k: int) -> Array:
        omega = sampler(rng, k)
        inter = geo.refinement_indicator(omega, axis)
        inter &= geo.annulus_contains(spec_b, omega)
        return v_base * inter

    parts = mc_mean(classified, m, seed=seed, stream=derive_stream("bands", t, delta))
    (total,) = mc_mean(plain, m, seed=seed, stream=derive_stream("bands-total", t, delta))
    return BandDecomposition(
        delta=delta,
        t=t,
        rho_values=tuple(rhos),
        tang=parts[0],
        bands=tuple(parts[1:-1]),
        trans=parts[-1],
        total=total,
    )


@dataclasses.dataclass(frozen=True)
class ClusterReport:
    """Single-linkage structure of the low-tangency region of a shell.

    ``diameters`` are max intra-cluster pairwise distances, descending.
    ``empty`` distinguishes "no shell point had a small tangency functional"
    from a degenerate one-point cluster.  ``requested`` is the size of the
    uniform shell sample whose law the report has; ``drawn`` is the number of
    shell points actually drawn, those of the sample that fall in the
    tangency cover.
    """

    rho: float
    t: float
    scale: float
    cluster_count: int
    diameters: tuple[float, ...]
    accepted: int
    requested: int
    drawn: int
    empty: bool


# The tangency cover starts from this many azimuth cells per refined z band,
# quarters every kept cell once per level up to ``_COVER_DEPTH`` levels, and
# stops early once more than ``_COVER_CELLS`` cells are kept, so no level
# scores more than ``DEFAULT_CHUNK`` cells.
_COVER_PHI_CELLS = 8
_COVER_DEPTH = 12
_COVER_CELLS = DEFAULT_CHUNK // 4
# Multiple of eps * |a|^2 |b|^2 that bounds the float Gram kernel's error in
# N^2, with room to spare: its three sums and the subtraction round by a few
# dozen eps * |a|^2 |b|^2 in all.
_GRAM_ROUNDING = 256.0


@dataclasses.dataclass(frozen=True)
class _TangencyCover:
    """Kept cells ``[z, z + dz] x [phi, phi + dphi]`` of the unit sphere, in
    the coordinates ``z = u[axis]`` and the azimuth ``phi`` about the axis;
    ``z`` and ``phi`` hold the lower corners, and every cell has the area
    ``dz * dphi``."""

    z: Array
    phi: Array
    dz: float
    dphi: float

    @property
    def fraction(self) -> float:
        """Share of the sphere's area ``4 pi`` that the cells cover."""
        return self.z.size * self.dz * self.dphi / (4.0 * math.pi)


def _sphere_columns(z: Array, phi: Array, axis: int) -> Array:
    """Coordinate-major ``(3, k)`` unit vectors of ``R^3`` with ``u[axis] =
    z`` and azimuth ``phi`` about the axis."""
    u = np.empty((3,) + z.shape)
    ring = np.sqrt(np.maximum(1.0 - z * z, 0.0))
    u[axis] = z
    np.multiply(ring, np.cos(phi), out=u[(axis + 1) % 3])
    np.multiply(ring, np.sin(phi), out=u[(axis + 2) % 3])
    return u


def _tangency_cover(cfg: geo.TangencyConfig, rho: float, delta: float) -> _TangencyCover:
    """Cells of the sphere outside which no refined shell point passes the
    float test ``jacobian_gram_norm(cfg, s*u) < rho``, for ``s**2`` in
    ``(1 - delta, 1 + delta)`` (n = 3).

    ``N(s u) = 4 s |s A(u) - B(u)|`` with ``A = u x Du``, ``B = u x Dc`` and
    ``D = diag(1/r**2)``.  In a cell with centre ``u_c`` and geodesic radius
    ``h``, ``A`` moves by at most ``h (|D u_c| + max D) + h**2 max D`` and
    ``B`` by at most ``h |Dc|``, and the minimum of ``|s A_c - B_c|`` over
    ``s`` in ``[s0, s1]`` is the distance from ``B_c`` to the segment
    ``{s A_c}``.  The ``h**2`` term is a cushion that no point can need, so
    no test binds it: ``A(u) - A(u_c) = u x D(u - u_c) + (u - u_c) x D u_c``
    with ``|u| = 1`` already bounds the move by ``h (|D u_c| + max D)``.  A
    cell is dropped only when ``4 s0`` times the resulting lower bound
    exceeds ``sqrt(rho**2 + kappa)``, where ``kappa`` bounds the Gram
    kernel's rounding of ``N**2``.  The z range starts at the
    refinement's edge ``(2 cut)**(1/3) / s1``, less a relative ``1e-12`` for
    the rounding of the cube test.  At ``_COVER_DEPTH`` a cell's own slack
    (about 1e-3 in ``N``) dwarfs ``kappa``; ``kappa`` keeps cells only in a
    cover refined far deeper, as on a shell of width 1e-10 at a tiny ``rho``,
    whose kept cells then shrink around the tangency pair.
    """
    s0, s1 = math.sqrt(1.0 - delta), math.sqrt(1.0 + delta)
    inv2 = 1.0 / (cfg.radii * cfg.radii)
    dc = inv2 * cfg.centre
    top, dc_norm = float(inv2.max()), float(np.linalg.norm(dc))
    scale = 4.0 * s1 * s1 * 4.0 * (top * s1 + dc_norm) ** 2  # max |a|^2 |b|^2 on the shell
    kappa = _GRAM_ROUNDING * np.finfo(float).eps * (scale + rho * rho)
    bound = math.sqrt(rho * rho + kappa)
    z_lo = (1.0 - 1e-12) * (2.0 * geo.default_refinement_cut(3)) ** (1.0 / 3.0) / s1

    dz, dphi = 1.0 - z_lo, 2.0 * math.pi / _COVER_PHI_CELLS
    phi = np.tile(np.arange(_COVER_PHI_CELLS) * dphi, 2)
    z = np.repeat([-1.0, z_lo], _COVER_PHI_CELLS)
    cyc = [((j + 1) % 3, (j + 2) % 3) for j in range(3)]
    for level in range(_COVER_DEPTH + 1):
        zc = z + 0.5 * dz
        theta = np.arccos(zc)
        h = np.maximum(
            np.abs(np.arccos(z) - theta), np.abs(np.arccos(np.minimum(z + dz, 1.0)) - theta)
        )
        h += np.sin(theta) * (0.5 * dphi)
        u = _sphere_columns(zc, phi + 0.5 * dphi, cfg.axis)
        a = [u[k] * u[l] * (inv2[l] - inv2[k]) for k, l in cyc]
        b = [u[k] * dc[l] - u[l] * dc[k] for k, l in cyc]
        aa = a[0] * a[0] + a[1] * a[1] + a[2] * a[2]
        s = (a[0] * b[0] + a[1] * b[1] + a[2] * b[2]) / np.maximum(aa, np.finfo(float).tiny)
        np.clip(s, s0, s1, out=s)
        gap = np.sqrt(sum((s * a[j] - b[j]) ** 2 for j in range(3)))
        du = np.sqrt(sum((inv2[j] * u[j]) ** 2 for j in range(3)))
        gap -= s1 * h * (du + top + h * top) + h * dc_norm
        keep = 4.0 * s0 * gap <= bound
        z, phi = z[keep], phi[keep]
        if level == _COVER_DEPTH or z.size > _COVER_CELLS:
            break
        dz, dphi = 0.5 * dz, 0.5 * dphi
        z = np.concatenate([z, z + dz, z, z + dz])
        phi = np.concatenate([phi, phi, phi + dphi, phi + dphi])
    return _TangencyCover(z, phi, dz, dphi)


def _low_tangency_points(
    cfg: geo.TangencyConfig, rho: float, delta: float, m: int, seed: int, keep: int
) -> tuple[int, int, Array]:
    """``(drawn, accepted, points)`` of :func:`low_jacobian_cluster`: the
    shell points drawn, the number accepted, and the first ``keep`` accepted
    points in draw order."""
    delta = geo._shell_width(delta)
    cover = _tangency_cover(cfg, rho, delta)
    bounds = (1.0 - delta, 1.0 + delta)
    chunk = DEFAULT_CHUNK

    def batch(batch_idx: int) -> tuple[int, int, Array]:
        rng = rng_stream(seed, derive_stream("cluster", rho, cfg.t, batch_idx))
        drawn = int(rng.binomial(min(chunk, m - batch_idx * chunk), cover.fraction))
        if drawn == 0:
            return 0, 0, np.empty((0, 3))
        cell = rng.integers(cover.z.size, size=drawn)
        z = cover.z[cell] + cover.dz * rng.random(drawn)
        phi = cover.phi[cell] + cover.dphi * rng.random(drawn)
        omega = _to_shell(_sphere_columns(z, phi, cfg.axis).T, rng.random(drawn), bounds)
        ok = geo.refinement_indicator(omega, cfg.axis)
        ok &= geo.jacobian_gram_norm(cfg, omega) < rho
        accepted = omega[ok]
        return drawn, accepted.shape[0], accepted[:keep]

    batches = [batch(idx) for idx in range(max(1, math.ceil(m / chunk)))]
    drawn = sum(count for count, _, _ in batches)
    have = sum(count for _, count, _ in batches)
    return drawn, have, np.concatenate([rows for _, _, rows in batches], axis=0)[:keep]


def _pair_distances(pts: Array) -> Array:
    """``(k, k)`` Euclidean distances between the rows of ``pts``, with the
    squared differences summed in coordinate order (the bits of
    ``squareform(pdist(pts))``), filled in blocks of rows."""
    k, d = pts.shape
    dist = np.empty((k, k))
    step = max(1, DEFAULT_CHUNK // k)
    for i in range(0, k, step):
        block = dist[i : i + step]
        np.subtract.outer(pts[i : i + step, 0], pts[:, 0], out=block)
        np.square(block, out=block)
        for j in range(1, d):
            diff = np.subtract.outer(pts[i : i + step, j], pts[:, j])
            block += np.square(diff, out=diff)
        np.sqrt(block, out=block)
    return dist


def _single_linkage(pts: Array, scale: float) -> tuple[Array, Array]:
    """Single-linkage clusters of the rows of ``pts`` at distance ``scale``:
    ``(labels, diameters)``, the label ``0, 1, ...`` of each point and the
    largest distance within each cluster.  The clusters are the connected
    components of the graph with an edge wherever the distance is ``<=
    scale``, numbered by their first point: ``fcluster(linkage(pdist(pts),
    "single"), scale, "distance")`` up to numbering."""
    dist = _pair_distances(pts)
    labels = np.full(pts.shape[0], -1)
    count = 0
    while (rest := np.flatnonzero(labels < 0)).size:
        frontier = rest[:1]
        while frontier.size:
            labels[frontier] = count
            near = (dist[frontier] <= scale).any(axis=0)
            frontier = np.flatnonzero(near & (labels < 0))
        count += 1
    # each row's largest distance within its cluster, in blocks of rows
    diameters = np.zeros(count)
    step = max(1, DEFAULT_CHUNK // labels.size)
    for i in range(0, labels.size, step):
        rows = labels[i : i + step]
        within = np.where(rows[:, None] == labels, dist[i : i + step], 0.0)
        np.maximum.at(diameters, rows, within.max(axis=1))
    return labels, diameters


# The most accepted points that enter the O(count^2) linkage stage of
# :func:`low_jacobian_cluster`: their (k, k) distances take 128 MB.
_MAX_KEEP = 4000


def low_jacobian_cluster(
    *,
    axis: int,
    t: float,
    radii: Array,
    rho: float,
    delta: float,
    m: int,
    seed: int,
) -> ClusterReport:
    """Cluster the refined shell points where the tangency functional < rho.

    The refinement uses the unperturbed axis direction.
    Accepted points are grouped by single linkage at distance ``16 * rho /
    t``; near tangency the low-norm region falls apart into a bounded number
    of such clusters with diameters O(rho/t).  n = 3 only.

    The report has the law of ``m`` uniform points of the reference shell,
    drawn in batches of ``DEFAULT_CHUNK`` and filtered by the refinement and
    ``jacobian_gram_norm < rho``, but only the points of the tangency cover
    are drawn (see the module docstring): each batch draws its count in the
    cover from its stream ``("cluster", rho, t, batch)``, then that many
    uniform points of the cover (cell, then ``z``, ``phi`` and ``v``) from
    the same stream.  At most ``_MAX_KEEP`` accepted points (the first ones
    drawn — an unbiased subsample of i.i.d. draws) enter the O(count^2)
    linkage stage, which finds the clusters as the connected components of
    the graph with an edge wherever the distance is ``<= scale``.  The
    batches run in a plain loop, in batch order: each draws a few points,
    too few to pay for a worker pool.
    """
    radii = np.asarray(radii, dtype=float)
    n = radii.shape[0]
    if n != 3:
        raise ValueError(f"low_jacobian_cluster is specific to n=3, got n={n}")
    if rho <= 0 or t <= 0:
        raise ValueError("rho and t must be positive")
    cfg = geo.TangencyConfig(axis, t, radii)
    drawn, have, pts = _low_tangency_points(cfg, rho, delta, m, seed, _MAX_KEEP)

    scale = 16.0 * rho / t
    if pts.shape[0] == 0:
        return ClusterReport(rho, t, scale, 0, (), 0, m, drawn, empty=True)
    diameters = sorted(map(float, _single_linkage(pts, scale)[1]), reverse=True)
    return ClusterReport(
        rho=rho,
        t=t,
        scale=scale,
        cluster_count=len(diameters),
        diameters=tuple(diameters),
        accepted=have,
        requested=m,
        drawn=drawn,
        empty=False,
    )


def seeded_cluster_configs(seed: int, count: int) -> tuple:
    """Seeded ``(t, radii)`` pairs whose tangency sits inside the refined shell.

    For a second shell with radii ``r`` centred at ``t * axis_direction(3, 0)``
    the gradients of the two defining functions are parallel at the points with

        ``omega_i = t / (1 - (r_i / r_0)**2)``   (i = 1, 2),
        ``omega_0 = +/- sqrt(1 - omega_1**2 - omega_2**2)``,

    a mirror pair whose separation is ``2 * |omega_0|``.  Radii from the
    restricted box make ``1 - (r_i/r_0)**2`` nearly zero, pushing the pair out
    to the equator that the refinement removes, so the low-norm set on the
    refined shell is empty or a clipped sliver with no ``rho`` scaling.  This
    generator instead draws spread radii around ``(1.0, 0.7, 1.35)`` and keeps
    only configurations with ``omega_0**2`` in ``[0.45, 0.85]``: both mirror
    points then lie well inside the refined sector and at least ``1.34`` apart,
    clear of the default linkage scale for ``rho <= t / 16``.

    Rejected draws are retried (at most 64 times) from the same per-index
    stream, so the ensemble is a pure function of ``(seed, count)``.
    """
    if count <= 0:
        raise ValueError(f"count must be positive, got {count}")
    configs = []
    for i in range(count):
        rng = rng_stream(seed, derive_stream("cluster-config", i))
        for _ in range(64):
            t = float(rng.uniform(0.25, 0.45))
            radii = np.array([1.0, 0.7, 1.35]) * (1.0 + rng.uniform(-0.1, 0.1, 3))
            transverse = 1.0 - sum(
                (t / (1.0 - (radii[j] / radii[0]) ** 2)) ** 2 for j in (1, 2)
            )
            if 0.45 <= transverse <= 0.85:
                configs.append((t, radii))
                break
        else:  # pragma: no cover - the window accepts most draws
            raise RuntimeError("no admissible tangency configuration found")
    return tuple(configs)
