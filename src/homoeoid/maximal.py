"""Discretised maximal averages over restricted radii nets.

The operator under test takes a field ``f``, a point ``x`` and a shell width
``delta``, and returns the largest average of ``|f|`` over the shells
``E^delta(x, r)`` as the semi-axis vector ``r`` runs over a finite net inside
the restricted box ``[1, 1 + cut**2]**n``.  Refined companions restrict each
average to the part of the shell whose reference coordinate along one axis
stays large (``|w_axis|**3 >= 2*cut``) while keeping the *plain* shell volume
as normaliser, so that the pointwise covering of the shell by the refined
pieces makes ``max-average <= sum of refined max-averages`` a deterministic
statement about shared sample batches, not a statistical one.

Randomness discipline: every stream is keyed by what it samples, never by
evaluation order.  :func:`discretised_maximal`, the one net-sup kernel, draws
one reference-shell batch per call, keyed ``("scan-shell", delta, stream)``,
for every point, net radius and flavour: each refined average is the plain
values times that axis's indicator.  On the shared batch the covering makes
domination exact sample by sample, and a sub-net sup never exceeds the net
sup; each average stays unbiased (common random numbers).
:func:`annulus_average`, one shell's estimate, keys its own stream by
``(delta, centre, radii)``.
Fields are sums of products of per-axis factors (as Gaussian bumps are), so
the kernel evaluates axis ``j``'s factors once per net value of ``r_j``.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, Sequence

import numpy as np

from . import geometry as geo
from .mc import (
    DEFAULT_CHUNK,
    MCEstimate,
    ScalingFit,
    derive_stream,
    fit_power_law,
    mc_mean,
    rng_stream,
)
from .volumes import reference_shell_sampler

Array = np.ndarray

__all__ = [
    "Field",
    "RadiiNet",
    "annulus_average",
    "discretised_maximal",
    "domination_check",
    "GrowthScan",
    "l2_growth_scan",
    "bump_mixture_family",
]


# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Field:
    """The field ``sum_c prod_j factors(j, y_j)[c]`` on R^n, zero outside a box.

    ``factors(j, t)`` returns a ``(C, *t.shape)`` array, term ``c``'s factor
    along axis ``j``; the field zeroes it where ``t`` leaves ``[lo_j, hi_j]``.
    :meth:`__call__` multiplies in axis order and adds the terms to a zero
    total in term order, as :func:`discretised_maximal` does on its tables.
    """

    factors: Callable[[int, Array], Array]
    lo: Array
    hi: Array

    def __post_init__(self) -> None:
        lo = np.asarray(self.lo, dtype=float)
        hi = np.asarray(self.hi, dtype=float)
        if lo.ndim != 1 or lo.shape != hi.shape:
            raise ValueError("bounding box corners must be matching vectors")
        if np.any(hi <= lo):
            raise ValueError("bounding box must have positive widths")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def n(self) -> int:
        return self.lo.shape[0]

    def _tables(self, coords: Sequence[Array]) -> list[Array]:
        """Axis ``j``'s factors at ``coords[j]``, zero outside the box, one C."""
        tables: list[Array] = []
        for j, t in enumerate(coords):
            values = np.asarray(self.factors(j, t), dtype=float)
            terms = len(tables[0]) if tables else len(values) if values.ndim else 0
            if not terms or values.shape != (terms, *t.shape):
                raise ValueError(f"factors({j}, t) has shape {values.shape}; want (C, *{t.shape})")
            inside = (t >= self.lo[j]) & (t <= self.hi[j])
            tables.append(values if inside.all() else np.where(inside, values, 0.0))
        return tables

    def __call__(self, points: Array) -> Array:
        pts = np.asarray(points, dtype=float)
        tables = self._tables([np.asarray(pts[..., j], order="C") for j in range(self.n)])
        # np.prod multiplies in axis order; [()] gives a single point a scalar
        return sum(np.prod(term, axis=0) for term in zip(*tables))[()]


# ---------------------------------------------------------------------------
# radii nets
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class RadiiNet:
    """A finite grid of semi-axis vectors covering an axis-parallel box.

    Each axis is subdivided with spacing at most ``step`` (endpoints
    included), and the net is the Cartesian product of the ``axes`` in C
    order.  The net sup is the object under test here; refining the net can
    only increase it.
    """

    lo: Array
    hi: Array
    step: float

    def __post_init__(self) -> None:
        lo = np.asarray(self.lo, dtype=float)
        hi = np.asarray(self.hi, dtype=float)
        if lo.ndim != 1 or lo.shape != hi.shape or np.any(hi <= lo):
            raise ValueError("net domain must be a box with positive widths")
        if not self.step > 0:
            raise ValueError("step must be positive")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        axes = [
            np.linspace(lo[i], hi[i], int(math.ceil((hi[i] - lo[i]) / self.step)) + 1)
            for i in range(lo.shape[0])
        ]
        mesh = np.meshgrid(*axes, indexing="ij")
        object.__setattr__(self, "axes", tuple(axes))
        object.__setattr__(self, "points", np.stack([m.reshape(-1) for m in mesh], axis=-1))

    axes: tuple[Array, ...] = dataclasses.field(init=False, repr=False)
    points: Array = dataclasses.field(init=False, repr=False)

    def __len__(self) -> int:
        return self.points.shape[0]

    @classmethod
    def for_delta(cls, n: int, delta: float) -> "RadiiNet":
        """Net over the restricted radii box with step ``min(delta, width)/4``.

        The annulus indicator moves by ``O(step)`` under a radii step, so a
        ``delta``-scale net resolves the sup up to constants; for widths
        below ``delta`` the box width binds instead.
        """
        lo, hi = geo.restricted_radii_box(n)
        width = float(hi[0] - lo[0])
        return cls(lo, hi, min(float(delta), width) / 4.0)


# ---------------------------------------------------------------------------
# averages and the maximal operator
# ---------------------------------------------------------------------------


def annulus_average(f: Callable[[Array], Array], spec, m: int, *, seed: int) -> MCEstimate:
    """Average of ``|f|`` over the shell, refined pieces zero-extended.

    Plain specs give the mean of ``|f|`` over uniform shell samples.  Refined
    specs keep the *same* sample batch (the stream ignores ``spec.axis``) and
    multiply by the refinement indicator of its axis, so the normaliser stays
    the plain shell volume and a refined average never exceeds the plain one
    on the same inputs.
    """
    ell, axis = spec.ellipsoid, spec.axis
    sampler = reference_shell_sampler(spec.delta, spec.n)

    def sample_fn(rng: np.random.Generator, k: int) -> Array:
        omega = sampler(rng, k)
        values = np.abs(f(geo.affine_map(ell.centre, ell.radii, omega)))
        if axis is not None:
            values = values * geo.refinement_indicator(omega, axis)
        return values

    stream = derive_stream("annulus-avg", spec.delta, ell.centre, ell.radii)
    (est,) = mc_mean(sample_fn, m, seed=seed, stream=stream)
    return est


def discretised_maximal(
    f: Field,
    xs: Array,
    delta: float,
    net: RadiiNet,
    *,
    m: int,
    seed: int,
    stream: int | str,
    axes: Sequence[int] = (),
) -> Array:
    """Largest shell averages of ``|f|`` over the radii net, at a batch of points.

    Returns a ``(1 + len(axes), len(xs))`` array: row 0 is the plain
    operator, row ``1 + j`` its refined companion along ``axes[j]``
    (zero-extended, plain normaliser).  One reference-shell batch of ``m``
    samples, keyed ``("scan-shell", delta, stream)``, serves every point,
    every net radius and every row, so a sub-net sup never exceeds the net
    sup and the covering holds sample by sample.  Coordinate ``j`` of
    ``x + r * omega`` depends on ``r_j`` alone, so a block calls
    ``f.factors`` once per axis, on ``(net.axes[j], points, m)``
    coordinates, and multiplies the tables out in :meth:`Field.__call__`'s
    order: each value has a pointwise evaluation's bits.  A block takes as
    many points, or as much of axis 0, as keeps its two grid buffers, and
    its ``C * sum(k_j)`` table values, within ``2 * DEFAULT_CHUNK`` floats.
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    n = xs.shape[1]
    if m < 1:
        raise ValueError("m must be at least 1")
    if len(net.lo) != n or f.n != n:
        raise ValueError(f"net dimension {len(net.lo)}, field dimension {f.n}: points have {n}")
    for axis in axes:
        geo._check_axis(axis, n)
    sampler = reference_shell_sampler(delta, n)
    omega = sampler(rng_stream(seed, derive_stream("scan-shell", delta, stream)), m)
    masks = [geo.refinement_indicator(omega, axis) for axis in axes]
    best = np.full((1 + len(masks), xs.shape[0]), -np.inf)
    width, span = _block_plan(f, net, m)
    rest = len(net) // len(net.axes[0])
    buffers = [np.empty(min(width, xs.shape[0]) * span * rest * m) for _ in range(2)]
    for first in range(0, xs.shape[0], width):
        x = xs[first : first + width]
        top = best[:, first : first + width]
        for start in range(0, len(net.axes[0]), span):
            radii = [net.axes[0][start : start + span], *net.axes[1:]]
            coords = [r[:, None, None] * omega[:, j] + x[:, j, None] for j, r in enumerate(radii)]
            shape = (*(len(r) for r in radii), len(x), m)
            total, scratch = (b[: math.prod(shape)].reshape(shape) for b in buffers)
            grid = _grid_magnitudes(f, coords, total, scratch).reshape(-1, len(x), m)
            np.maximum(top[0], np.mean(grid, axis=-1).max(axis=0), out=top[0])
            for row, mask in enumerate(masks, 1):
                masked = np.multiply(grid, mask, out=scratch.reshape(grid.shape))
                np.maximum(top[row], np.mean(masked, axis=-1).max(axis=0), out=top[row])
    return best


def _block_plan(f: Field, net: RadiiNet, m: int) -> tuple[int, int]:
    """``(points, axis-0 values)`` per block of :func:`discretised_maximal`:
    as many as keep its two full-grid buffers, and its ``C * sum(k_j)``
    per-axis table values, each within about ``2 * DEFAULT_CHUNK`` floats."""
    rest = len(net) // len(net.axes[0])  # one point's grid at one axis-0 value, per sample
    others = sum(map(len, net.axes[1:]))  # the other axes' table values
    terms = len(f._tables([net.axes[0][:0]])[0])  # C, from an empty axis-0 table
    budget = 2 * DEFAULT_CHUNK // m  # two grids' or the tables' values per point and sample
    span = min(len(net.axes[0]), max(1, min(budget // (2 * rest), budget // terms - others)))
    return max(1, budget // max(2 * span * rest, terms * (span + others))), span


def _grid_magnitudes(f: Field, coords: Sequence[Array], total: Array, scratch: Array) -> Array:
    """``|f|`` on the coordinates' full grid, in ``total``; term 0 is stored, not added to 0."""
    *heads, last = f._tables(coords)  # freed on return, before the next block's tables
    for c in range(len(last)):
        head = heads[0][c] if heads else np.ones((1, 1))  # n = 1: the empty product
        for table in heads[1:]:
            head = head[..., None, :, :] * table[c]
        np.multiply(head[..., None, :, :], last[c], out=scratch if c else total)
        if c:
            total += scratch
    return np.abs(total, out=total)


def domination_check(
    f: Field,
    x_samples: Array,
    delta: float,
    net: RadiiNet,
    *,
    m: int,
    seed: int,
) -> float:
    """Max over sampled points of ``plain max-average - sum of refined ones``.

    Non-positive deterministically: all rows come from one shared shell
    batch, and every shell sample satisfies the covering inequality along
    some axis, so the refined indicators sum to at least one sample by
    sample.
    """
    xs = np.atleast_2d(np.asarray(x_samples, dtype=float))
    plain, *refined = discretised_maximal(
        f, xs, delta, net, m=m, seed=seed, stream="domination", axes=range(xs.shape[1])
    )
    return float(np.max(plain - sum(refined)))


# ---------------------------------------------------------------------------
# L^2 growth scan
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class GrowthScan:
    """Fitted growth of the maximal operator's L^2 norm in ``log(1/delta)``,
    with the per-(delta, field) rows behind the fit."""

    fit: ScalingFit
    rows: tuple[dict, ...]


def l2_growth_scan(
    field_family: Callable[[int], Field],
    delta_list: Sequence[float],
    *,
    x_region,
    family_size: int = 2,
    x_samples: int = 64,
    m: int = 1024,
    seed: int = 0,
) -> GrowthScan:
    """Fit ``log ||max-average f||_2`` against ``log(1/delta)``.

    For each width the scan draws points of ``x_region``, evaluates the
    plain operator over ``RadiiNet.for_delta(n, delta)`` for every member of the
    (L^2-normalised) field family, and records the Monte Carlo ``L^2(x region)``
    norm; the per-width figure entering the fit is the worst norm across the
    family, an operator-norm proxy.  Small positive slopes are consistent
    with sub-polynomial growth; the acceptance threshold is 0.15.
    """
    deltas = geo._width_grid(delta_list)
    if x_samples < 2:
        raise ValueError("x_samples must be at least 2")
    lo = np.asarray(x_region[0], dtype=float)
    hi = np.asarray(x_region[1], dtype=float)
    n = lo.shape[0]
    volume = float(np.prod(hi - lo))

    rows = []
    worst_per_delta = []
    for delta in deltas:
        net = RadiiNet.for_delta(n, delta)
        worst = -np.inf
        for idx in range(family_size):
            f = field_family(idx)
            rng_x = rng_stream(seed, derive_stream("scan-x", delta, idx))
            xs = lo + rng_x.random((x_samples, n)) * (hi - lo)
            (values,) = discretised_maximal(f, xs, delta, net, m=m, seed=seed, stream=idx)
            squares = values**2
            mean_sq = float(np.mean(squares))
            se_sq = float(np.std(squares, ddof=1) / np.sqrt(x_samples))
            norm = math.sqrt(volume * mean_sq)
            se = volume * se_sq / (2.0 * norm) if norm > 0 else np.inf
            rows.append(
                {"delta": delta, "field_id": idx, "norm_estimate": norm, "std_error": se}
            )
            worst = max(worst, norm)
        worst_per_delta.append(worst)
    fit = fit_power_law(1.0 / np.asarray(deltas), np.asarray(worst_per_delta))
    return GrowthScan(fit=fit, rows=tuple(rows))


# ---------------------------------------------------------------------------
# bump mixtures
# ---------------------------------------------------------------------------


def bump_mixture_family(
    n: int,
    *,
    components: int = 6,
    seed: int = 0,
) -> Callable[[int], Field]:
    """Seeded generator of L^2-normalised Gaussian bump mixtures.

    Each field has ``components`` bumps with centres uniform in
    ``[-1.5, 1.5]**n``, widths uniform in ``[0.08, 0.35]`` and amplitudes
    uniform in ``[0.5, 1.5]``.  A Gaussian is a product over coordinates, so
    each bump is one term of the product-form :class:`Field`.

    Normalisation uses the closed-form pairwise inner products
    ``(2 pi s1^2 s2^2 / (s1^2 + s2^2))**(n/2) * exp(-|c1-c2|^2 / (2(s1^2+s2^2)))``
    rather than quadrature, so the unit norm is exact up to the (negligible,
    ``exp(-40)``-sized) truncation at the nine-sigma bounding box.
    """
    if components < 1:
        raise ValueError("components must be at least 1")
    c_lo = np.full(n, -1.5)
    c_hi = np.full(n, 1.5)

    def make(index: int) -> Field:
        rng = rng_stream(seed, derive_stream("bumps", n, components, index))
        centres = c_lo + rng.random((components, n)) * (c_hi - c_lo)
        scales = rng.uniform(0.08, 0.35, components)
        amps = rng.uniform(0.5, 1.5, components)
        s2 = scales**2
        pair = s2[:, None] + s2[None, :]
        dist2 = np.sum((centres[:, None, :] - centres[None, :, :]) ** 2, axis=-1)
        gram = (2.0 * np.pi * np.outer(s2, s2) / pair) ** (n / 2.0) * np.exp(-dist2 / (2.0 * pair))
        coeff = amps / math.sqrt(float(amps @ gram @ amps))
        neg_two_s2 = -2.0 * s2

        def factors(j: int, t: Array) -> Array:
            # term c's Gaussian along axis j (its coefficient on axis 0), in place
            # on one (C, *t.shape) array; x / -t has the bits of -(x / t)
            shape = (components,) + (1,) * t.ndim
            z = t - centres[:, j].reshape(shape)
            z *= z
            z /= neg_two_s2.reshape(shape)
            np.exp(z, out=z)
            if j == 0:
                z *= coeff.reshape(shape)
            return z

        lo = np.min(centres - 9.0 * scales[:, None], axis=0)
        hi = np.max(centres + 9.0 * scales[:, None], axis=0)
        return Field(factors, lo, hi)

    return make
