"""Volumes of thin shells, their intersections, and tangency-band structure.

Sampling strategy
-----------------
Shells are sampled through the exact reference parameterisation (uniform
direction, radial inverse-CDF), never by rejection from a bounding box, so
every draw is a usable sample.  Refinements and second-shell membership enter
as indicators on a *shared* batch wherever several quantities must be
compared: partitions then sum exactly, and refined estimates are exactly
dominated by unrefined ones, sample by sample.

Two kernels draw every shell point: :func:`reference_shell_sampler` from one
generator, and :func:`keyed_shell_points` one batch per stream id.  Both
follow the package's layout rule (see :mod:`homoeoid.mc`): the squared norm
is accumulated one coordinate column at a time in coordinate order, so for
``n < 8`` the samples equal those of ``np.linalg.norm`` bit for bit, and
each column is then divided by the norm and scaled by the radius in place.
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
    ``sqrt(1-delta)`` and ``sqrt(1+delta)``.
    """
    delta = geo._shell_width(delta)

    def sample(rng: np.random.Generator, m: int) -> Array:
        omega = _normalise(rng.standard_normal((m, n)))
        return _to_shell(omega, rng.random(m), (1.0 - delta, 1.0 + delta))

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


def intersection_volume(spec_a, spec_b, m: int, seed: int, stream: int = 0) -> MCEstimate:
    """Monte-Carlo volume of the intersection of two (refined) shells.

    Samples the *base* shell of ``spec_a`` and scores the refined indicator of
    ``spec_a`` times membership in ``spec_b``; the estimate is unbiased with
    binomial-type error.  ``spec_b == spec_a`` recovers the shell volume.
    """
    base_a, axis_a, cut_a = geo._spec_parts(spec_a)
    ell = base_a.ellipsoid
    v_base = shell_volume(ell.radii, base_a.delta)
    sampler = reference_shell_sampler(base_a.delta, base_a.n)
    # on the unit reference shell the map 0 + 1*omega is the identity
    unit = not np.any(ell.centre) and bool(np.all(ell.radii == 1.0))

    def values(rng: np.random.Generator, k: int) -> Array:
        omega = sampler(rng, k)
        hit = np.ones(k, dtype=bool)
        if axis_a is not None:
            hit &= geo.refinement_indicator(omega, axis_a, cut_a)
        y = omega if unit else geo.affine_map(ell.centre, ell.radii, omega)
        hit &= geo.annulus_contains(spec_b, y)
        return v_base * hit

    (est,) = mc_mean(values, m, seed=seed, stream=derive_stream("ivol", stream))
    return est


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
    its own keyed streams.  ``refined=False`` measures the plain shells of
    the same pairs instead, on the streams ``"explore-radii"`` and
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
        spec_a = geo.AnnulusSpec(geo.Ellipsoid(np.zeros(n), np.ones(n)), delta)
        spec_b = geo.AnnulusSpec(geo.Ellipsoid(t * dtilde, r2 / r1), delta)
        if refined:
            spec_a = geo.RefinedAnnulusSpec(spec_a, axis)
            spec_b = geo.RefinedAnnulusSpec(spec_b, axis)
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

    The first shell is the refined reference shell (default cut); the second
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
    frame = geo.AxisFrame(n, axis)
    cfg = geo.TangencyConfig(frame, t, radii)
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
        inter = geo.refinement_indicator(omega, axis, frame.cut)
        inter &= geo.annulus_contains(spec_b, omega)  # reference shell is unit: y == omega
        norm = geo.jacobian_gram_norm(cfg, omega)
        cols = [inter & (norm < 2.0 * rho0)]
        for lo_e, hi_e in zip(edges_lo, edges_hi):
            cols.append(inter & (norm >= lo_e) & (norm < hi_e))
        cols.append(inter & (norm >= t))
        return v_base * np.stack(cols, axis=1)

    def plain(rng: np.random.Generator, k: int) -> Array:
        omega = sampler(rng, k)
        inter = geo.refinement_indicator(omega, axis, frame.cut)
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
    from a degenerate one-point cluster.
    """

    rho: float
    t: float
    scale: float
    cluster_count: int
    diameters: tuple[float, ...]
    accepted: int
    requested: int
    empty: bool


def low_jacobian_cluster(
    *,
    axis: int,
    t: float,
    radii: Array,
    rho: float,
    delta: float,
    m: int,
    seed: int,
    max_keep: int = 4000,
) -> ClusterReport:
    """Cluster the refined shell points where the tangency functional < rho.

    The refinement uses the default cut and the unperturbed axis direction.
    Accepted points are grouped by single linkage at distance ``16 * rho /
    t``; near tangency the low-norm region falls apart into a bounded number
    of such clusters with diameters O(rho/t).
    At most ``max_keep`` accepted points (the first ones drawn — an unbiased
    subsample of i.i.d. draws) enter the O(count^2) linkage stage.  The
    sample batches are independent units of :func:`ordered_map`.
    """
    radii = np.asarray(radii, dtype=float)
    n = radii.shape[0]
    if rho <= 0 or t <= 0:
        raise ValueError("rho and t must be positive")
    frame = geo.AxisFrame(n, axis)
    cfg = geo.TangencyConfig(frame, t, radii)
    sampler = reference_shell_sampler(delta, n)

    chunk = DEFAULT_CHUNK
    keep = max(max_keep, 0)

    def batch(batch_idx: int) -> tuple[int, Array]:
        rng = rng_stream(seed, derive_stream("cluster", rho, t, batch_idx))
        omega = sampler(rng, min(chunk, m - batch_idx * chunk))
        ok = geo.refinement_indicator(omega, axis, frame.cut)
        ok &= geo.jacobian_gram_norm(cfg, omega) < rho
        accepted = omega[ok]
        return accepted.shape[0], accepted[:keep]

    batches = ordered_map(batch, max(1, math.ceil(m / chunk)))
    have = sum(count for count, _ in batches)
    pts = np.concatenate([rows for _, rows in batches], axis=0)[:keep]

    scale = 16.0 * rho / t
    if pts.shape[0] == 0:
        return ClusterReport(rho, t, scale, 0, (), 0, m, empty=True)
    if pts.shape[0] == 1:
        return ClusterReport(rho, t, scale, 1, (0.0,), have, m, empty=False)

    from scipy.cluster.hierarchy import fcluster, linkage
    from scipy.spatial.distance import pdist, squareform

    dist = pdist(pts)
    labels = fcluster(linkage(dist, method="single"), t=scale, criterion="distance")
    square = squareform(dist)
    diameters = []
    for lab in np.unique(labels):
        idx = np.flatnonzero(labels == lab)
        diameters.append(0.0 if idx.size == 1 else float(np.max(square[np.ix_(idx, idx)])))
    diameters.sort(reverse=True)
    return ClusterReport(
        rho=rho,
        t=t,
        scale=scale,
        cluster_count=int(labels.max()),
        diameters=tuple(diameters),
        accepted=have,
        requested=m,
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
