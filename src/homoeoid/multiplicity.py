"""Overlap multiplicity of separated shell families along an axis line.

A family places ``N`` ellipsoidal shells with centres ``t_i * d_k`` on the
line through the axis direction ``d_k`` (the all-ones vector with a zero in
slot ``k``), parameters ``t_i`` in ``[-1, 1]`` pairwise separated by at least
``delta`` and radii drawn from the restricted box.  The square of the
L2 norm of the counting function ``sum_i chi_{E_i}`` expands into pairwise
intersection volumes; :func:`overlap_l2` estimates the off-diagonal part by
Monte Carlo, while the diagonal is evaluated in closed form.  Each member
draws one batch per dyadic distance class on its own keyed stream, with
budgets that shrink in the parameter distance (distant pairs overlap little
and need fewer samples), and the batch is scored against every member of
the class; the refined and plain hit counts come from that same batch.  The
batches of one class have one size, so they are scored together in blocks
of at most ``DEFAULT_CHUNK`` pair samples: one buffer of draws, one pass of
the sampler's arithmetic and one call of the geometry's membership kernel
per block, whatever the number of members in it.  The result is the same,
bit for bit, as scoring each batch on its own.  :func:`multiplicity_scan`
takes both variants of a family from one such pass, normalises the norm by
``log(1/delta) * delta^(1/2) * N^(1/2)`` and tracks the worst constant
across seeded trials, which is the quantity that must stay bounded as
``delta`` shrinks.

:func:`direct_overlap_l2` evaluates the same norm by sampling a bounding box
in physical space and averaging the squared counting function; it is kept as
an independent oracle for small families rather than collapsed into the
pairwise route.  It scores with the membership kernel only the box points
that a certified window around the family line keeps, which changes no
count.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from typing import Callable, Sequence

import numpy as np

from . import geometry as geo
from .mc import DEFAULT_CHUNK, MCEstimate, derive_stream, mc_mean, ordered_map, rng_stream
from .volumes import keyed_shell_points, shell_volume

Array = np.ndarray

__all__ = [
    "EllipsoidFamily",
    "MultiplicityScan",
    "generate_family",
    "refined_shell_volume",
    "overlap_l2",
    "direct_overlap_l2",
    "multiplicity_scan",
]


@dataclasses.dataclass(frozen=True)
class EllipsoidFamily:
    """Shells with centres ``offsets[i] * axis_direction(n, axis)``.

    ``offsets`` is nondecreasing with consecutive gaps of at least ``delta``
    (up to an absolute slack of 1e-12 for rounding), all values in
    ``[-1, 1]``; the member count can therefore never exceed
    ``floor(2 / delta) + 1``.  ``radii`` holds one row per member, inside the
    restricted box of its dimension.
    """

    axis: int
    delta: float
    offsets: Array
    radii: Array

    def __post_init__(self) -> None:
        t = np.asarray(self.offsets, dtype=float)
        r = np.asarray(self.radii, dtype=float)
        if t.ndim != 1 or t.shape[0] == 0:
            raise ValueError("offsets must be a non-empty 1-d array")
        if r.ndim != 2 or r.shape[0] != t.shape[0]:
            raise ValueError("radii must have one row per offset")
        n = r.shape[1]
        geo._check_axis(self.axis, n)
        d = geo._shell_width(self.delta)
        if t.shape[0] > math.floor(2.0 / d) + 1:
            raise ValueError("too many members for a delta-separated family in [-1, 1]")
        if np.any(np.abs(t) > 1.0 + 1e-12):
            raise ValueError("offsets must lie in [-1, 1]")
        if t.shape[0] > 1 and np.min(np.diff(t)) < d - 1e-12:
            raise ValueError("offsets must be nondecreasing with gaps >= delta")
        lo, hi = geo.restricted_radii_box(n)
        if np.any(r < lo - 1e-12) or np.any(r > hi + 1e-12):
            raise ValueError("radii must lie in the restricted box")
        object.__setattr__(self, "offsets", t)
        object.__setattr__(self, "radii", r)
        object.__setattr__(self, "delta", d)

    @property
    def n(self) -> int:
        return self.radii.shape[1]

    def __len__(self) -> int:
        return self.offsets.shape[0]

    @property
    def centres(self) -> Array:
        return self.offsets[:, None] * geo.axis_direction(self.n, self.axis)

    def member(self, i: int) -> geo.Ellipsoid:
        return geo.Ellipsoid(self.centres[i], self.radii[i])

    def spec(self, i: int, refined: bool = True) -> geo.AnnulusSpec:
        return geo.AnnulusSpec(self.member(i), self.delta, self.axis if refined else None)


def generate_family(
    axis: int,
    delta: float,
    count: int,
    seed: int = 0,
    *,
    n: int = 3,
) -> EllipsoidFamily:
    """Draw a family uniformly over the admissible configurations.

    Writing ``t_i = -1 + i*delta + z_i`` turns the separation and range
    constraints into ``0 <= z_0 <= ... <= z_{count-1} <= 2 - (count-1)*delta``,
    so sorted uniforms on that interval sample the configuration set
    uniformly.  When the slack ``2 - (count-1)*delta`` is zero (a maximal
    family) the offsets collapse to the exact lattice ``-1 + i*delta``.
    Radii are drawn i.i.d. uniformly from the restricted box.
    """

    if count < 1:
        raise ValueError("count must be >= 1")
    d = geo._shell_width(delta)
    if count > math.floor(2.0 / d) + 1:
        raise ValueError("count exceeds the delta-separated capacity of [-1, 1]")
    rng = rng_stream(seed, derive_stream("family", axis, d, count))
    slack = 2.0 - (count - 1) * d
    if slack <= 1e-12:
        z = np.zeros(count)
    else:
        z = np.sort(rng.uniform(0.0, slack, count))
    offsets = np.minimum(-1.0 + d * np.arange(count) + z, 1.0)
    lo, hi = geo.restricted_radii_box(n)
    radii = lo + (hi - lo) * rng.random((count, n))
    return EllipsoidFamily(axis=axis, delta=d, offsets=offsets, radii=radii)


def refined_shell_volume(radii: Array, delta: float, axis: int) -> float:
    """Volume of an axis-refined shell, by one-dimensional quadrature.

    In reference coordinates the shell is ``{ s in (sqrt(1-delta),
    sqrt(1+delta)) }`` with uniform directions, and the refinement keeps
    ``|omega_axis| >= (2*cut)^(1/3)``, i.e. directions with ``|u_axis| >=
    (2*cut)^(1/3) / s``.  The direction fraction at height ``h`` is the
    two-sided cap mass ``I_{1-h^2}((n-1)/2, 1/2)`` of the symmetric Beta law
    of ``u_axis^2``, leaving a single radial integral; it depends on ``(n,
    delta)`` only and is cached per pair of them.  The physical volume scales
    by ``prod(radii)``.
    """

    r = np.asarray(radii, dtype=float)
    n = r.shape[0]
    geo._check_axis(axis, n)
    return float(np.prod(r)) * _refined_reference_volume(n, geo._shell_width(delta))


@functools.lru_cache(maxsize=None)
def _refined_reference_volume(n: int, delta: float) -> float:
    """The radial integral of :func:`refined_shell_volume`, for unit radii."""

    c = geo.default_refinement_cut(n)
    from scipy.integrate import quad
    from scipy.special import betainc

    height = (2.0 * c) ** (1.0 / 3.0)
    area = 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)

    def integrand(s: float) -> float:
        h = height / s
        if h >= 1.0:
            return 0.0
        return area * s ** (n - 1) * float(betainc((n - 1) / 2.0, 0.5, 1.0 - h * h))

    lo, hi = math.sqrt(1.0 - delta), math.sqrt(1.0 + delta)
    value, _ = quad(integrand, lo, hi, epsabs=0.0, epsrel=1e-11, limit=200)
    return value


def _member_volumes(family: EllipsoidFamily, refined: bool) -> Array:
    if refined:
        return np.array(
            [refined_shell_volume(r, family.delta, family.axis) for r in family.radii]
        )
    return np.array([shell_volume(r, family.delta) for r in family.radii])


def _pair_terms(family: EllipsoidFamily, m: int, seed: int) -> tuple[dict, int]:
    """Off-diagonal batch terms of the squared norm, for both variants at once.

    Each member ``i`` groups the others into dyadic distance classes
    ``2^a * delta <= |t_j - t_i| < 2^(a+1) * delta`` and draws one
    reference-shell batch of ``max(64, m >> a)`` points per class, keyed by
    ``("overlap", i, a)``: ``standard_normal((batch, n))``, then
    ``random(batch)``.  The ``(i, a)`` rows of one class share a batch size,
    so they are scored together, in blocks of rows whose ``pairs * batch``
    stays within ``DEFAULT_CHUNK`` (a row over that bound is a block of its
    own).  One :func:`~homoeoid.volumes.keyed_shell_points` call draws a
    block, its rows go through their affine maps in one pass, and every
    ``(i, j)`` pair of the block is scored in one call of the membership
    kernel; segment sums over each row's pairs give its plain and refined hit
    counts, and the batch mean and standard deviation are taken along the
    sample axis, which gives the bits of the per-batch 1-d calls.  Each block
    draws through its own re-keyer, so the blocks are independent units of
    :func:`~homoeoid.mc.ordered_map`, and their moments are filed in block
    order: the terms are the same at any worker count.
    Returns ``{refined: [(mean term, variance term), ...]}`` in ``(i, a)``
    order and the number of points drawn.
    """

    if m < 64:
        raise ValueError("m must be >= 64")
    count = len(family)
    classes: dict = {}
    order = []
    for i in range(count):
        others = np.flatnonzero(np.arange(count) != i)
        gaps = np.abs(family.offsets[others] - family.offsets[i])
        level = np.floor(np.log2(np.maximum(gaps / family.delta, 1.0))).astype(int)
        for a in np.unique(level):
            classes.setdefault(int(a), []).append((i, others[level == a]))
            order.append((i, int(a)))
    volumes = [shell_volume(r, family.delta) for r in family.radii]
    tasks = [
        (block, a, max(64, m >> a))
        for a, rows in classes.items()
        for block in _blocks(rows, max(64, m >> a))
    ]

    def moments(t: int) -> dict:
        # each block draws through its own re-keyer, so blocks are independent
        hits = _block_hits(family, *tasks[t], seed)
        return {
            refined: (np.mean(counts, axis=1).tolist(), np.std(counts, axis=1, ddof=1).tolist())
            for refined, counts in hits.items()
        }

    scored: dict = {}
    for (block, a, batch), block_moments in zip(tasks, ordered_map(moments, len(tasks))):
        for refined, (means, stds) in block_moments.items():
            for k, (i, _) in enumerate(block):
                scored[i, a, refined] = (
                    volumes[i] * means[k],
                    (volumes[i] * stds[k] / math.sqrt(batch)) ** 2,
                )
    terms = {refined: [scored[i, a, refined] for i, a in order] for refined in (True, False)}
    drawn = sum(max(64, m >> a) for _, a in order)
    return terms, drawn


def _blocks(rows: list, batch: int):
    """Consecutive runs of ``(i, members)`` rows with at most ``DEFAULT_CHUNK``
    pair samples (``pairs * batch``) each; a row over the bound runs alone."""
    block, pairs = [], 0
    for row in rows:
        if block and (pairs + len(row[1])) * batch > DEFAULT_CHUNK:
            yield block
            block, pairs = [], 0
        block.append(row)
        pairs += len(row[1])
    yield block


def _block_hits(family: EllipsoidFamily, block: list, a: int, batch: int, seed: int) -> dict:
    """``{refined: hit counts}``, ``(rows, batch)`` floats, of the
    ``(i, members)`` rows of one class-``a`` block (see :func:`_pair_terms`)."""

    rows = [i for i, _ in block]
    streams = [derive_stream("overlap", i, a) for i in rows]
    bounds = (1.0 - family.delta, 1.0 + family.delta)  # the reference shell
    omega, _ = keyed_shell_points(seed, streams, batch, family.n, bounds)
    keep = geo.refinement_indicator(omega, family.axis)
    sizes = [len(j) for _, j in block]
    owner = np.repeat(np.arange(len(rows)), sizes)
    x, r = family.centres[rows], family.radii[rows]

    def column(c: int) -> Array:
        # coordinate c of each pair's point: its row's affine map r*w + x
        y = r[:, c, None] * omega[..., c]
        y += x[:, c, None]
        return y[owner]

    members = np.concatenate([j for _, j in block])
    shell, sector = geo.shell_membership(
        family.centres[members],
        family.radii[members],
        family.delta,
        (column(c) for c in range(family.n)),
        family.axis,
    )
    # segment sums over each row's pairs, as counts over the hit positions:
    # flat position p*batch + s of pair p lands on owner[p]*batch + s
    hit = np.flatnonzero(shell)
    target = hit - ((np.arange(len(owner)) - owner) * batch)[hit // batch]
    size = len(rows) * batch
    plain = np.bincount(target, minlength=size).reshape(len(rows), batch)
    refined = np.bincount(target, weights=sector.ravel()[hit], minlength=size)
    return {True: keep * refined.reshape(len(rows), batch), False: plain.astype(float)}


def _norm_estimate(
    family: EllipsoidFamily, refined: bool, terms: list, drawn: int, seed: int
) -> MCEstimate:
    """Closed-form diagonal plus the batch terms, folded in batch order."""

    total = float(np.sum(_member_volumes(family, refined)))
    variance = 0.0
    for mean_term, variance_term in terms:
        total += mean_term
        variance += variance_term
    norm = math.sqrt(total)
    return MCEstimate(norm, math.sqrt(variance) / (2.0 * norm), drawn, seed)


def overlap_l2(
    family: EllipsoidFamily,
    m: int = 4096,
    *,
    seed: int = 0,
    refined: bool = True,
) -> MCEstimate:
    """L2 norm of the counting function of the family's (refined) shells.

    The squared norm is the sum of all pairwise intersection volumes.
    Diagonal terms are evaluated in closed form.  For the off-diagonal part,
    each member ``i`` groups the others into dyadic distance classes
    ``2^a * delta <= |t_j - t_i| < 2^(a+1) * delta`` and scores one shared
    reference-shell batch of ``max(64, m >> a)`` points against every member
    of the class in one broadcast, so nearby (large-overlap) pairs receive
    the most samples.  Batch totals over a class keep the within-batch
    correlation between members, and independent streams across ``(member,
    class)`` batches make the quadrature combination of their errors exact.

    The stream derivation does not depend on ``refined``: each batch yields
    the refined and plain hit counts together, and this function returns
    the variant asked for.  The refined and plain estimates for the same
    ``seed`` therefore share batches, and the plain norm dominates the
    refined one exactly, not just in expectation.  A single-member family
    returns the exact root volume with zero error.
    """

    terms, drawn = _pair_terms(family, m, seed)
    return _norm_estimate(family, refined, terms[refined], drawn, seed)


# Relative slack of the line window's bounds (see _line_window): far above
# what rounding moves them by; a looser window only costs kernel work.
_WINDOW_SLACK = 1e-10


def _line_window(family: EllipsoidFamily, refined: bool) -> Callable[[list], Array]:
    """``keep(columns)``: a boolean mask of points, given as their ``n``
    coordinate columns, that is true at every point the membership kernel
    counts for some member of the family (refined or plain).

    Certificate.  The centres are ``c_i = t_i * d`` with ``d =
    axis_direction(n, axis)``, ``|d| = sqrt(n-1)``.  With ``sigma = y.d /
    |d|``, ``rho^2 = |y|^2 - sigma^2`` and ``tau_i = t_i * |d|``, exactly
    ``|y - c_i|^2 = rho^2 + (sigma - tau_i)^2``.

    * The kernel counts ``y`` for member ``i`` only if its float sum ``S``
      of ``z_j^2``, ``z_j = (y_j - c_ij) / r_ij``, has ``|S - 1| < delta``.
      For ``delta <= 1/2`` that subtraction is exact (Sterbenz), so ``1 -
      delta < S < 1 + delta``.
    * ``S`` is within ``n + 4`` units of roundoff (relative) of the exact
      ``Q = sum z_j^2``, and ``|y - c_i|^2 = sum r_ij^2 z_j^2`` lies between
      ``min_j r_ij^2 * Q`` and ``max_j r_ij^2 * Q``.  So ``|y - c_i|^2`` lies
      in ``((1 - delta) min r_i^2, (1 + delta) max r_i^2)`` up to a few ulps.
    * The window's float ``rho^2 + (sigma - tau_i)^2`` differs from the
      exact value by ``O(n)`` ulps of ``|y|^2 + tau_i^2``.  Every box
      coordinate is within ``reach = max|t| + sqrt(1 + delta) * max r`` of
      0, so that is at most ``n * reach^2 + max tau^2``.
    * Both errors are far below the margin ``_WINDOW_SLACK * (n * reach^2 +
      max tau^2)`` that the window adds on each side of each member's
      bounds.
    * For the refined variant the kernel also needs ``|z_axis|^3 >= 2*cut``
      (its cube test is exact), where ``z_axis = y_axis / r_i,axis`` because
      the centres' ``axis`` slot is 0.  That needs ``|y_axis| >=
      (2*cut)^(1/3) * r_i,axis`` up to a few ulps, so the window also asks
      ``|y_axis| >= (2*cut)^(1/3) * min_i r_i,axis * (1 - _WINDOW_SLACK)``.

    A point with ``rho^2`` at or above every member's outer bound, or below
    the floor, is dropped first; the rest are tested per member, in blocks of
    ``DEFAULT_CHUNK // count`` points, so the ``(members, points)`` arrays
    hold about one chunk.
    """

    n, axis = family.n, family.axis
    r = family.radii
    norm = math.sqrt(n - 1)
    tau = family.offsets * norm
    reach = float(np.max(np.abs(family.offsets))) + math.sqrt(1.0 + family.delta) * float(np.max(r))
    margin = _WINDOW_SLACK * (n * reach * reach + float(np.max(tau * tau)))
    inner = ((1.0 - family.delta) * np.min(r, axis=1) ** 2 - margin)[:, None]
    outer = ((1.0 + family.delta) * np.max(r, axis=1) ** 2 + margin)[:, None]
    tau = tau[:, None]
    floor = None
    if refined:
        height = (2.0 * geo.default_refinement_cut(n)) ** (1.0 / 3.0)
        floor = height * float(np.min(r[:, axis])) * (1.0 - _WINDOW_SLACK)
    tube = float(np.max(outer))  # no member counts a point farther from the line
    step = max(1, DEFAULT_CHUNK // len(family))
    line = [j for j in range(n) if j != axis]

    def keep(y: list) -> Array:
        rho2 = y[0] * y[0]
        for column in y[1:]:
            rho2 += column * column
        sigma = y[line[0]].copy()
        for j in line[1:]:
            sigma += y[j]
        sigma /= norm
        rho2 -= sigma * sigma
        near = rho2 < tube
        if floor is not None:
            near &= np.abs(y[axis]) >= floor
        index = np.flatnonzero(near)
        sigma, rho2 = sigma[index], rho2[index]
        hit = np.empty(len(index), dtype=bool)
        for start in range(0, len(index), step):
            gap = sigma[start : start + step] - tau
            gap *= gap
            gap += rho2[start : start + step]
            inside = gap > inner
            inside &= gap < outer
            hit[start : start + step] = inside.any(axis=0)
        near[index] = hit
        return near

    return keep


def direct_overlap_l2(
    family: EllipsoidFamily,
    m: int = 1 << 21,
    *,
    seed: int = 0,
    refined: bool = True,
) -> MCEstimate:
    """Same norm as :func:`overlap_l2`, by bounding-box space sampling.

    Draws uniform points from an axis-aligned box containing every member and
    averages the squared counting function.  Every pairwise product is scored
    simultaneously, so the estimate is a genuinely independent cross-check of
    the pairwise route; the cost grows with the box volume over the occupied
    volume, which keeps this practical only for small families.

    Most box points lie in no shell.  Each chunk's points first go through
    :func:`_line_window`, a certified window around the family line (the
    distance to every centre from the point's projection on the line, and
    for the refined variant its ``axis`` coordinate): a point the window
    drops is counted by no member.  The kept points are scored against every
    member by the geometry's membership kernel, which gives the final
    verdict, in one call per block of ``DEFAULT_CHUNK // len(family)`` kept
    points (so its ``(members, points)`` arrays hold about one chunk of
    values), and their counts are scattered into zeros.  The draws and the
    counts are those of scoring every box point, and so are the estimates.
    """

    count = len(family)
    n = family.n
    axis = family.axis if refined else None
    centres = family.centres
    pad = np.sqrt(1.0 + family.delta) * family.radii
    lo = np.min(centres - pad, axis=0)
    hi = np.max(centres + pad, axis=0)
    width = hi - lo
    box_volume = float(np.prod(width))
    window = _line_window(family, refined)
    step = max(1, DEFAULT_CHUNK // count)
    tally = np.min_scalar_type(count)  # the narrowest integer that holds a count

    def values(rng: np.random.Generator, k: int) -> Array:
        u = rng.random((k, n))
        y = [u[:, j] * width[j] + lo[j] for j in range(n)]  # box coordinates, per column
        del u  # the columns are all that is scored
        kept = np.flatnonzero(window(y))
        y = [column[kept] for column in y]
        counts = np.zeros(k)
        for start in range(0, len(kept), step):
            shell, sector = geo.shell_membership(
                centres,
                family.radii,
                family.delta,
                (column[start : start + step] for column in y),
                axis,
            )
            if sector is not None:
                shell &= sector
            counts[kept[start : start + step]] = np.add.reduce(shell, axis=0, dtype=tally)
        counts *= counts
        counts *= box_volume
        return counts

    (est,) = mc_mean(values, m, seed=seed, stream=derive_stream("direct-overlap", int(refined)))
    if est.value <= 0.0:
        return MCEstimate(0.0, math.sqrt(est.std_error), est.n_samples, seed)
    return MCEstimate(
        math.sqrt(est.value), est.std_error / (2.0 * math.sqrt(est.value)), est.n_samples, seed
    )


@dataclasses.dataclass(frozen=True)
class MultiplicityScan:
    """Worst-case overlap constants across trials, per shell width.

    ``rows`` holds one record per (delta, trial, variant) with the measured
    norm, the envelope ``log(1/delta) * delta^(1/2) * N^(1/2)`` and their
    ratio ``C``; ``worst`` and ``worst_plain`` map each delta to the largest
    ratio over trials for the refined and plain variants.  A uniform overlap
    bound corresponds to ``worst`` values of bounded drift as delta shrinks.
    ``drawn`` is the number of reference-shell points the pairwise route
    drew over the whole scan (each batch serves both variants).
    """

    rows: tuple[dict, ...]
    worst: dict
    worst_plain: dict
    drawn: int


def multiplicity_scan(
    axis: int,
    deltas: Sequence[float],
    trials: int = 4,
    m: int = 4096,
    *,
    seed: int = 0,
    n: int = 3,
) -> MultiplicityScan:
    """Measure the overlap constant ``C(delta)`` over seeded random families.

    For each ``delta`` the member count is ``N = floor(1/delta)``; every
    trial draws a fresh family and estimates the counting-function norm both
    refined and plain, recording ``C = norm / (log(1/delta) * sqrt(delta) *
    sqrt(N))``.  Each row carries the derived
    ``trial_seed`` that reproduces its family and estimate in isolation.
    """

    ds = geo._width_grid(deltas)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rows = []
    worst: dict = {}
    worst_plain: dict = {}
    total_drawn = 0
    for i_delta, delta in enumerate(ds):
        count = math.floor(1.0 / delta)
        bound = math.log(1.0 / delta) * math.sqrt(delta) * math.sqrt(count)
        for trial in range(trials):
            trial_seed = derive_stream("multiplicity-trial", seed, i_delta, trial)
            family = generate_family(axis, delta, count, trial_seed, n=n)
            terms, drawn = _pair_terms(family, m, trial_seed)
            total_drawn += drawn
            for refined in (True, False):
                est = _norm_estimate(family, refined, terms[refined], drawn, trial_seed)
                ratio = est.value / bound
                rows.append(
                    {
                        "delta": delta,
                        "trial_seed": int(trial_seed),
                        "N": count,
                        "norm": est.value,
                        "std_error": est.std_error,
                        "bound": bound,
                        "C": ratio,
                        "refined": refined,
                    }
                )
                table = worst if refined else worst_plain
                table[delta] = max(table.get(delta, 0.0), ratio)
    return MultiplicityScan(
        rows=tuple(rows), worst=worst, worst_plain=worst_plain, drawn=total_drawn
    )
