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
pairwise route.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, Optional, Sequence

import numpy as np

from . import geometry as geo
from .mc import DEFAULT_CHUNK, MCEstimate, derive_stream, mc_mean, rng_stream
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
    restricted box for the given ``cut``.
    """

    axis: int
    delta: float
    offsets: Array
    radii: Array
    cut: Optional[float] = None

    def __post_init__(self) -> None:
        t = np.asarray(self.offsets, dtype=float)
        r = np.asarray(self.radii, dtype=float)
        if t.ndim != 1 or t.shape[0] == 0:
            raise ValueError("offsets must be a non-empty 1-d array")
        if r.ndim != 2 or r.shape[0] != t.shape[0]:
            raise ValueError("radii must have one row per offset")
        n = r.shape[1]
        if not 0 <= self.axis < n:
            raise ValueError(f"axis {self.axis} out of range for dimension {n}")
        d = geo._shell_width(self.delta)
        if t.shape[0] > math.floor(2.0 / d) + 1:
            raise ValueError("too many members for a delta-separated family in [-1, 1]")
        if np.any(np.abs(t) > 1.0 + 1e-12):
            raise ValueError("offsets must lie in [-1, 1]")
        if t.shape[0] > 1 and np.min(np.diff(t)) < d - 1e-12:
            raise ValueError("offsets must be nondecreasing with gaps >= delta")
        c = geo._resolve_cut(n, self.cut)
        lo, hi = geo.restricted_radii_box(n, c)
        if np.any(r < lo - 1e-12) or np.any(r > hi + 1e-12):
            raise ValueError("radii must lie in the restricted box")
        object.__setattr__(self, "offsets", t)
        object.__setattr__(self, "radii", r)
        object.__setattr__(self, "delta", d)
        object.__setattr__(self, "cut", c)

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

    def spec(self, i: int, refined: bool = True):
        base = geo.AnnulusSpec(self.member(i), self.delta)
        if not refined:
            return base
        return geo.RefinedAnnulusSpec(base, self.axis, self.cut)


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
    Radii are drawn i.i.d. uniformly from the restricted box of the default
    cut.
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


def refined_shell_volume(
    radii: Array, delta: float, axis: int, cut: Optional[float] = None
) -> float:
    """Volume of an axis-refined shell, by one-dimensional quadrature.

    In reference coordinates the shell is ``{ s in (sqrt(1-delta),
    sqrt(1+delta)) }`` with uniform directions, and the refinement keeps
    ``|omega_axis| >= (2*cut)^(1/3)``, i.e. directions with ``|u_axis| >=
    (2*cut)^(1/3) / s``.  The direction fraction at height ``h`` is the
    two-sided cap mass ``I_{1-h^2}((n-1)/2, 1/2)`` of the symmetric Beta law
    of ``u_axis^2``, leaving a single radial integral; the physical volume
    scales by ``prod(radii)``.
    """

    r = np.asarray(radii, dtype=float)
    n = r.shape[0]
    if not 0 <= axis < n:
        raise ValueError(f"axis {axis} out of range for dimension {n}")
    d = geo._shell_width(delta)
    c = geo._resolve_cut(n, cut)
    from scipy.integrate import quad
    from scipy.special import betainc

    height = (2.0 * c) ** (1.0 / 3.0)
    area = 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)

    def integrand(s: float) -> float:
        h = height / s
        if h >= 1.0:
            return 0.0
        return area * s ** (n - 1) * float(betainc((n - 1) / 2.0, 0.5, 1.0 - h * h))

    value, _ = quad(integrand, math.sqrt(1.0 - d), math.sqrt(1.0 + d), epsabs=0.0, epsrel=1e-11, limit=200)
    return float(np.prod(r)) * value


def _member_volumes(family: EllipsoidFamily, refined: bool) -> Array:
    if refined:
        return np.array(
            [refined_shell_volume(r, family.delta, family.axis, family.cut) for r in family.radii]
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
    sample axis, which gives the bits of the per-batch 1-d calls.
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
    scored: dict = {}
    for a, rows in classes.items():
        batch = max(64, m >> a)
        for block in _blocks(rows, batch):
            hits = _block_hits(family, block, a, batch, seed)
            for refined, counts in hits.items():
                means = np.mean(counts, axis=1).tolist()
                stds = np.std(counts, axis=1, ddof=1).tolist()
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
    keep = geo.refinement_indicator(omega, family.axis, family.cut)
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
        family.cut,
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
    volume, which keeps this practical only for small families.  The box
    points are scored against every member in one call of the geometry's
    membership kernel per sub-block of ``DEFAULT_CHUNK // len(family)``
    points, so its ``(members, points)`` arrays hold about one chunk of
    values (smaller and larger sub-blocks both measured slower).
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
    step = max(1, DEFAULT_CHUNK // count)
    tally = np.min_scalar_type(count)  # the narrowest integer that holds a count

    def values(rng: np.random.Generator, k: int) -> Array:
        u = rng.random((k, n))
        y = [u[:, j] * width[j] + lo[j] for j in range(n)]  # box coordinates, per column
        del u  # the columns are all that is scored
        counts = np.empty(k)
        for start in range(0, k, step):
            stop = min(start + step, k)
            shell, sector = geo.shell_membership(
                centres,
                family.radii,
                family.delta,
                (column[start:stop] for column in y),
                axis,
                family.cut,
            )
            if sector is not None:
                shell &= sector
            counts[start:stop] = np.add.reduce(shell, axis=0, dtype=tally)
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

    @property
    def drift(self) -> float:
        values = list(self.worst.values())
        return max(values) / min(values)


def multiplicity_scan(
    axis: int,
    deltas: Sequence[float],
    count_rule: Optional[Callable[[float], int]] = None,
    trials: int = 4,
    m: int = 4096,
    *,
    seed: int = 0,
    n: int = 3,
) -> MultiplicityScan:
    """Measure the overlap constant ``C(delta)`` over seeded random families.

    For each ``delta`` the member count is ``count_rule(delta)`` (default
    ``floor(1/delta)``); every trial draws a fresh family and estimates the
    counting-function norm both refined and plain, recording ``C = norm /
    (log(1/delta) * sqrt(delta) * sqrt(N))``.  Each row carries the derived
    ``trial_seed`` that reproduces its family and estimate in isolation.
    """

    ds = geo._width_grid(deltas)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rule = count_rule if count_rule is not None else lambda d: int(math.floor(1.0 / d))
    rows = []
    worst: dict = {}
    worst_plain: dict = {}
    total_drawn = 0
    for i_delta, delta in enumerate(ds):
        count = int(rule(delta))
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
