"""Geometry of axis-parallel ellipsoids, their thin shells, and tangency data.

Conventions used throughout the package:

* An ellipsoid with centre ``x`` and semi-axes ``r`` (all positive) is the zero
  set of the defining function ``F(y) = sum_j ((y_j - x_j)/r_j)**2 - 1``.
* The thin shell ("annulus") of width ``delta`` is ``{y : |F(y)| < delta}``,
  with ``delta`` restricted to ``(0, 1/2]`` so the shell never degenerates.
* ``affine_map`` is the axis-aligned change of variables ``w -> x + r*w`` that
  pulls the shell back to the reference shell around the unit sphere.  Points
  in the reference coordinates are called ``omega``.
* The *axis refinement* keeps only the reference points with
  ``|omega[axis]|**3 >= 2*cut``.  For the default cut the refinements over all
  axes cover the full reference shell (see :func:`covering_margin`), so the
  plain shell is the union of its refined pieces.  The masks test the
  product ``a*a*a`` (``a = |omega[axis]|``) in place of ``a**3``, which is a
  call of libm ``pow``; the product is within 3 ulps of the true cube, so
  only values within a relative ``1e-14`` of ``2*cut`` are recomputed with
  ``**``, and every mask equals the ``**`` mask bit for bit.
* Tangency between the reference unit sphere and a second shell centred at
  ``t * dtilde`` is measured by :func:`jacobian_gram_norm`, the Gram
  determinant square root of the two defining gradients.  Its algebraic
  skeleton is the antisymmetric family of quarter 2x2 minors
  :func:`gradient_minor`; the distinguished minors against the refinement axis
  feed :func:`tangency_system`, whose zero set is the exact-tangency locus.

Axis indices are 0-based everywhere.  All point-valued arguments accept
arbitrary leading batch dimensions; coordinates live on the last axis.

Shell membership has one kernel, :func:`shell_membership`, with shell-major
``(k, m)`` masks; :func:`annulus_contains` is its one-shell case.  The hot
kernels (:func:`shell_membership`, :func:`covering_margin` and the Gram
route of :func:`jacobian_gram_norm`) follow the package's layout rule (see
:mod:`homoeoid.mc`): they run on one coordinate column of the batch at a
time, so for ``n < 8`` they match the trailing-axis formulas bit for bit.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Iterable, Optional, Sequence

import numpy as np

Array = np.ndarray

__all__ = [
    "Ellipsoid",
    "AnnulusSpec",
    "RefinedAnnulusSpec",
    "AxisFrame",
    "TangencyConfig",
    "default_refinement_cut",
    "restricted_radii_box",
    "axis_direction",
    "perturbed_axis_direction",
    "defining_value",
    "defining_gradient",
    "affine_map",
    "shell_membership",
    "annulus_contains",
    "refinement_indicator",
    "covering_margin",
    "gradient_minor",
    "axis_minors",
    "jacobian_gram_norm",
    "tangency_system",
    "tangency_system_jacobian",
    "contact_point",
    "tangency_radii",
]

MAX_SHELL_WIDTH = 0.5


def default_refinement_cut(n: int) -> float:
    """Default refinement threshold ``(2n)**(-3/2) / 4`` in dimension ``n``.

    On every admissible reference shell (``| |omega|**2 - 1 | < delta`` with
    ``delta <= 1/2``, so ``|omega| >= 2**-0.5``) the largest coordinate
    satisfies ``max_k |omega_k|**3 >= (|omega|/sqrt(n))**3 >= (2n)**-1.5 =
    4*cut`` — a factor-two margin over the refinement threshold ``2*cut``,
    which is what makes the axis refinements a covering of the shell.
    """
    if n < 2:
        raise ValueError(f"dimension must be >= 2, got {n}")
    return (2.0 * n) ** -1.5 / 4.0


def _shell_width(delta) -> float:
    """``delta`` as a float, checked against the range ``(0, MAX_SHELL_WIDTH]``."""
    d = float(delta)
    if not 0.0 < d <= MAX_SHELL_WIDTH:
        raise ValueError(f"delta must be in (0, {MAX_SHELL_WIDTH}], got {d}")
    return d


def _resolve_cut(n: int, cut: Optional[float]) -> float:
    """:func:`default_refinement_cut` when ``cut`` is None, else a positive float."""
    c = default_refinement_cut(n) if cut is None else float(cut)
    if c <= 0:
        raise ValueError("cut must be positive")
    return c


def _width_grid(deltas: Sequence[float]) -> list[float]:
    """The shell widths as floats: at least three, strictly decreasing."""
    ds = [float(d) for d in deltas]
    if len(ds) < 3:
        raise ValueError(f"need at least 3 shell widths, got {len(ds)}")
    if any(b >= a for a, b in zip(ds, ds[1:])):
        raise ValueError("shell widths must be strictly decreasing")
    return ds


def restricted_radii_box(n: int, cut: Optional[float] = None) -> tuple[Array, Array]:
    """Lower/upper corners of the restricted radii box ``[1, 1 + cut**2]**n``."""
    c = _resolve_cut(n, cut)
    lo = np.ones(n)
    hi = np.full(n, 1.0 + c * c)
    return lo, hi


def axis_direction(n: int, axis: int) -> Array:
    """All-ones vector with a zero in slot ``axis`` (0-based)."""
    if not 0 <= axis < n:
        raise ValueError(f"axis {axis} out of range for dimension {n}")
    d = np.ones(n)
    d[axis] = 0.0
    return d


def perturbed_axis_direction(axis: int, reference_radii: Array) -> Array:
    """Axis direction divided componentwise by the reference radii.

    This is the direction along which a pair of shells separates after the
    first member has been normalised to the reference shell; with radii in the
    restricted box it stays within ``cut**2`` of the unperturbed direction.
    """
    r = np.asarray(reference_radii, dtype=float)
    return axis_direction(r.shape[-1], axis) / r


def _validate_vector(v: Array, name: str) -> Array:
    v = np.asarray(v, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} must be finite")
    return v


@dataclasses.dataclass(frozen=True)
class Ellipsoid:
    """Axis-parallel ellipsoid: centre and semi-axes."""

    centre: Array
    radii: Array

    def __post_init__(self) -> None:
        c = _validate_vector(self.centre, "centre")
        r = _validate_vector(self.radii, "radii")
        if c.shape != r.shape:
            raise ValueError("centre and radii must have matching dimensions")
        if np.any(r <= 0):
            raise ValueError("radii must be positive")
        object.__setattr__(self, "centre", c)
        object.__setattr__(self, "radii", r)

    @property
    def n(self) -> int:
        return self.centre.shape[0]


@dataclasses.dataclass(frozen=True)
class AnnulusSpec:
    """Thin shell ``{ |F| < delta }`` around an ellipsoid."""

    ellipsoid: Ellipsoid
    delta: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "delta", _shell_width(self.delta))

    @property
    def n(self) -> int:
        return self.ellipsoid.n


@dataclasses.dataclass(frozen=True)
class RefinedAnnulusSpec:
    """Axis-refined shell: the base shell intersected with the image of
    ``{ |omega[axis]|**3 >= 2*cut }`` under the shell's affine map.

    Note the refinement lives in the *reference* coordinates of the base
    shell, so refined membership of a physical point ``y`` first pulls ``y``
    back through :func:`affine_map`.
    """

    base: AnnulusSpec
    axis: int
    cut: Optional[float] = None

    def __post_init__(self) -> None:
        n = self.base.n
        if not 0 <= self.axis < n:
            raise ValueError(f"axis {self.axis} out of range for dimension {n}")
        object.__setattr__(self, "cut", _resolve_cut(n, self.cut))

    @property
    def delta(self) -> float:
        return self.base.delta

    @property
    def n(self) -> int:
        return self.base.n


@dataclasses.dataclass(frozen=True)
class AxisFrame:
    """Refinement axis together with its (possibly perturbed) direction.

    ``dtilde`` defaults to :func:`axis_direction` and may deviate from it by
    at most ``cut**2`` in sup norm (the deviation produced by reference radii
    from the restricted box).
    """

    n: int
    axis: int
    dtilde: Optional[Array] = None
    cut: Optional[float] = None

    def __post_init__(self) -> None:
        if not 0 <= self.axis < self.n:
            raise ValueError(f"axis {self.axis} out of range for dimension {self.n}")
        c = _resolve_cut(self.n, self.cut)
        d = axis_direction(self.n, self.axis) if self.dtilde is None else _validate_vector(self.dtilde, "dtilde")
        if d.shape[0] != self.n:
            raise ValueError("dtilde dimension mismatch")
        if np.max(np.abs(d - axis_direction(self.n, self.axis))) > c * c + 1e-12:
            raise ValueError("dtilde deviates from the axis direction by more than cut**2")
        object.__setattr__(self, "cut", c)
        object.__setattr__(self, "dtilde", d)


@dataclasses.dataclass(frozen=True)
class TangencyConfig:
    """A reference unit sphere paired with a second shell at offset ``t``.

    The second ellipsoid has radii ``radii`` (in ``[1/2, 2]**n``) and centre
    ``t * frame.dtilde`` with ``t`` in ``[0, 2]``.
    """

    frame: AxisFrame
    t: float
    radii: Array

    def __post_init__(self) -> None:
        r = _validate_vector(self.radii, "radii")
        if r.shape[0] != self.frame.n:
            raise ValueError("radii dimension mismatch")
        if np.any(r < 0.5 - 1e-12) or np.any(r > 2.0 + 1e-12):
            raise ValueError("tangency radii must lie in [1/2, 2]")
        t = float(self.t)
        if not 0.0 <= t <= 2.0:
            raise ValueError(f"offset t must lie in [0, 2], got {t}")
        object.__setattr__(self, "radii", r)
        object.__setattr__(self, "t", t)

    @property
    def n(self) -> int:
        return self.frame.n

    @property
    def centre(self) -> Array:
        return self.t * self.frame.dtilde


# ---------------------------------------------------------------------------
# defining function and shell membership
# ---------------------------------------------------------------------------


def defining_value(centre: Array, radii: Array, points: Array) -> Array:
    """``sum_j ((y_j - x_j)/r_j)**2 - 1`` for points ``y`` (batched)."""
    x = np.asarray(centre, dtype=float)
    r = np.asarray(radii, dtype=float)
    y = np.asarray(points, dtype=float)
    z = (y - x) / r
    return np.sum(z * z, axis=-1) - 1.0


def defining_gradient(centre: Array, radii: Array, points: Array) -> Array:
    """Gradient ``2*(y - x)/r**2`` of :func:`defining_value` in ``y``."""
    x = np.asarray(centre, dtype=float)
    r = np.asarray(radii, dtype=float)
    y = np.asarray(points, dtype=float)
    return 2.0 * (y - x) / (r * r)


def affine_map(centre: Array, radii: Array, points: Array, inverse: bool = False) -> Array:
    """Reference-to-physical map ``w -> x + r*w`` (or its inverse)."""
    x = np.asarray(centre, dtype=float)
    r = np.asarray(radii, dtype=float)
    w = np.asarray(points, dtype=float)
    if inverse:
        return (w - x) / r
    return x + r * w


def _spec_parts(spec):
    """(base AnnulusSpec, axis or None, cut or None) for either spec flavour."""
    if isinstance(spec, RefinedAnnulusSpec):
        return spec.base, spec.axis, spec.cut
    if isinstance(spec, AnnulusSpec):
        return spec, None, None
    raise TypeError(f"expected an annulus spec, got {type(spec).__name__}")


# Relative half-width of the band around the bound in which ``_cube_at_least``
# defers to ``**``.  The product ``a*a*a`` is within 3 ulps of the true cube
# and ``**`` within a few more, so outside the band both sit on the same side.
_CUBE_SLACK = 1e-14


def _cube_at_least(a: Array, bound: float) -> Array:
    """``a**3 >= bound`` for nonnegative ``a``, bit for bit, without ``pow``.

    The test is made on the product ``a*a*a``, a tenth of the cost of
    ``**``; only values whose product lies within ``_CUBE_SLACK`` of
    ``bound`` (relative) are recomputed with ``**``.  A 0-d input gives a
    numpy scalar, as the ``**`` expression does.
    """
    a = np.asarray(a, dtype=float)
    flat = a.reshape(-1)
    cube = flat * flat
    cube *= flat
    mask = cube >= bound * (1.0 + _CUBE_SLACK)
    maybe = cube >= bound * (1.0 - _CUBE_SLACK)
    if np.count_nonzero(maybe) != np.count_nonzero(mask):
        near = maybe & ~mask
        mask[near] = flat[near] ** 3 >= bound
    return mask.reshape(a.shape)[()]


def refinement_indicator(omega: Array, axis: int, cut: float) -> Array:
    """Boolean mask ``|omega[axis]|**3 >= 2*cut`` in reference coordinates."""
    w = np.asarray(omega, dtype=float)
    return _cube_at_least(np.abs(w[..., axis]), 2.0 * cut)


def shell_membership(
    centres: Array,
    radii: Array,
    delta: float,
    columns: Iterable[Array],
    axis: Optional[int] = None,
    cut: Optional[float] = None,
) -> tuple[Array, Optional[Array]]:
    """Shell-major ``(k, m)`` masks ``(shell, sector)`` of points in ``k``
    shells of width ``delta``, with ``(k, n)`` ``centres`` and ``radii``:
    ``shell`` is ``|F| < delta``, ``sector`` the axis refinement
    ``|omega[axis]|**3 >= 2*cut`` of the pullback (``None`` without ``axis``).

    ``columns`` yields the points' coordinates in order, each an array that
    broadcasts against ``(k, 1)``: one ``(m,)`` column shared by every shell
    (the rows of ``points.reshape(-1, n).T``), or a ``(k, m)`` array that
    gives each shell its own points (the pairs of the multiplicity
    estimator).  ``z_j = (y_j - x_j) / r_j`` is formed once per coordinate,
    its squares are added in coordinate order (the order ``np.sum`` uses
    over a trailing axis shorter than 8), and the refinement reuses
    ``z_axis`` through the product test of :func:`_cube_at_least`, so for
    ``n < 8`` the masks equal those of :func:`defining_value` and
    :func:`refinement_indicator` bit for bit.
    """
    x = np.asarray(centres, dtype=float)
    r = np.asarray(radii, dtype=float)
    total = None
    sector = None
    for j, column in enumerate(columns):
        z = column - x[:, j, None]
        z /= r[:, j, None]
        if j == axis:
            np.abs(z, out=z)  # the square below does not see the sign
            sector = _cube_at_least(z, 2.0 * cut)
        z *= z
        if total is None:
            total = z
        else:
            total += z
    total -= 1.0
    np.abs(total, out=total)
    return total < delta, sector


def annulus_contains(spec, points: Array) -> Array:
    """Membership test for a (possibly refined) shell; batched, boolean.

    Physical points are tested against ``|F| < delta``; for refined specs the
    pullback must additionally satisfy the axis refinement.  This is the
    one-shell case of the coordinate-major kernel :func:`shell_membership`,
    which forms each pulled-back coordinate once for both tests.
    """
    base, axis, cut = _spec_parts(spec)
    ell = base.ellipsoid
    y = np.asarray(points, dtype=float)
    shell, sector = shell_membership(
        ell.centre[None], ell.radii[None], base.delta, y.reshape(-1, y.shape[-1]).T, axis, cut
    )
    inside = shell if sector is None else shell & sector
    return inside.reshape(y.shape[:-1])[()]  # [()] turns a single point's 0-d result into a scalar


def covering_margin(omega: Array, cut: Optional[float] = None) -> Array:
    """``max_k |omega_k|**3 - 2*cut``, the slack in the covering property.

    For the default cut this is ``>= 2*cut`` whenever ``|omega| >= 2**-0.5``,
    which every admissible reference shell satisfies; nonnegativity is what
    makes the axis refinements a covering of the plain shell.

    The maximum is a running one over the coordinates of the flattened batch.
    """
    w = np.asarray(omega, dtype=float)
    n = w.shape[-1]
    c = _resolve_cut(n, cut)
    flat = w.reshape(-1, n)
    top = np.abs(flat[:, 0])
    for j in range(1, n):
        np.maximum(top, np.abs(flat[:, j]), out=top)
    top **= 3
    top -= 2.0 * c
    return top.reshape(w.shape[:-1])[()]  # [()] turns a single point's 0-d result into a scalar


# ---------------------------------------------------------------------------
# tangency functional and its algebraic skeleton
# ---------------------------------------------------------------------------


def _minor_core(t, d, r, w, i: int, j: int):
    """:func:`gradient_minor` from per-trial ``(t, d, r, w)`` arrays.

    The cores broadcast ``t`` over the batch and ``d``, ``r`` over the
    points, and keep the input dtype (the integer literals leave object
    arrays of ``Fraction`` exact), so the identity suite runs this very code
    in both of its arithmetics.
    """
    inv2 = 1 / (r * r)
    return (inv2[..., j] - inv2[..., i]) * w[..., i] * w[..., j] - t * (
        d[..., j] * w[..., i] * inv2[..., j] - d[..., i] * w[..., j] * inv2[..., i]
    )


def _axis_minors_core(t, d, r, w, k: int):
    """:func:`axis_minors` from per-trial arrays (see :func:`_minor_core`)."""
    inv2 = 1 / (r * r)
    wk, ik, dk = w[..., k : k + 1], inv2[..., k : k + 1], d[..., k : k + 1]
    # gradient_minor with (i, j) = (j, k), vectorised over j
    out = (ik - inv2) * w * wk - np.asarray(t)[..., None] * (dk * w * ik - d * wk * inv2)
    out[..., k] = 0
    return out


def _system_jacobian_core(t, d, r, w, k: int):
    """:func:`tangency_system_jacobian` from per-trial arrays (see :func:`_minor_core`)."""
    n = w.shape[-1]
    inv2 = 1 / (r * r)
    jac = np.zeros(w.shape[:-1] + (n, n), dtype=w.dtype)
    for row, j in enumerate(i for i in range(n) if i != k):
        coeff = inv2[..., k] - inv2[..., j]
        jac[..., row, j] = coeff * w[..., k] - t * d[..., k] * inv2[..., k]
        jac[..., row, k] = coeff * w[..., j] + t * d[..., j] * inv2[..., j]
    jac[..., n - 1, :] = w
    return jac


def gradient_minor(cfg: TangencyConfig, omega: Array, i: int, j: int) -> Array:
    """Quarter 2x2 minor of the stacked gradients, for axis pair ``(i, j)``.

    Writing ``a = grad F_ref(omega)`` (reference unit sphere) and
    ``b = grad F_sec(omega)`` (second shell), this returns
    ``(a_i b_j - a_j b_i) / 4``, which expands to::

        (1/r_j**2 - 1/r_i**2) * w_i * w_j
            - t * (dtilde_j * w_i / r_j**2 - dtilde_i * w_j / r_i**2)

    The family is antisymmetric in ``(i, j)`` and its squares sum to the Gram
    functional: ``jacobian_gram_norm(cfg, w)**2 == 16 * sum_{i<j} minor**2``.
    """
    w = np.asarray(omega, dtype=float)
    return _minor_core(cfg.t, cfg.frame.dtilde, cfg.radii, w, i, j)


def axis_minors(cfg: TangencyConfig, omega: Array) -> Array:
    """All minors against the refinement axis, as a vector over ``j``.

    Entry ``j`` equals ``gradient_minor(cfg, omega, j, frame.axis)``; the
    ``j == axis`` slot is identically zero.  These are the distinguished
    components whose simultaneous smallness (together with being on-shell)
    characterises near-tangency along the refinement axis.
    """
    w = np.asarray(omega, dtype=float)
    return _axis_minors_core(cfg.t, cfg.frame.dtilde, cfg.radii, w, cfg.frame.axis)


def jacobian_gram_norm(cfg: TangencyConfig, omega: Array, method: str = "gram") -> Array:
    """Tangency functional: Gram-determinant norm of the two shell gradients.

    ``sqrt(|a|**2 |b|**2 - <a, b>**2)`` for the gradients ``a`` (reference
    sphere) and ``b`` (second shell) at ``omega``.  It vanishes exactly where
    the gradients are parallel, i.e. at internal tangency of the level sets.

    ``method='gram'`` evaluates the formula directly, ``method='minors'``
    sums the squared 2x2 minors (Cauchy-Binet), ``method='both'`` evaluates
    the two routes and raises if they disagree — the dual evaluation is kept
    as a permanent transcription check and must not be collapsed.

    The dual check compares the *squared* functionals at 1e-10 relative to
    the Gram scale ``|a|**2 |b|**2``: near tangency the subtraction in the
    Gram formula cancels benignly, and taking the root first would blow the
    cancellation noise up to sqrt(eps), which no correct implementation
    could pass.  Away from tangency this implies the same 1e-10 agreement of
    the norms themselves.
    """
    w = np.asarray(omega, dtype=float)
    if method == "both":
        g2, scale = _gram_norm_sq(cfg, w, "gram")
        m2, _ = _gram_norm_sq(cfg, w, "minors")
        worst = np.max(np.abs(g2 - m2) / np.maximum(1.0, scale))
        if worst > 1e-10:
            raise FloatingPointError(
                f"gram/minor evaluations of the tangency functional disagree: {worst:.3e}"
            )
        return np.sqrt(np.maximum(0.5 * (g2 + m2), 0.0))
    sq, _ = _gram_norm_sq(cfg, w, method)
    return np.sqrt(np.maximum(sq, 0.0))


def _gram_norm_sq(cfg: TangencyConfig, w: Array, method: str):
    """Squared tangency functional plus its natural magnitude scale."""
    if method == "gram":
        # coordinate by coordinate: a_j = 2*w_j and b_j = 2*(w_j - x_j)/r_j**2,
        # the defining_gradient arithmetic, with the three sums accumulated
        # in coordinate order
        x = cfg.centre
        rr = cfg.radii * cfg.radii
        for j in range(cfg.n):
            a = 2.0 * w[..., j]
            b = w[..., j] - x[j]
            b *= 2.0
            b /= rr[j]
            if j == 0:
                aa, bb, ab = a * a, b * b, a * b
            else:
                aa += a * a
                bb += b * b
                a *= b
                ab += a
        scale = aa * bb
        ab *= ab
        return scale - ab, scale
    if method == "minors":
        n = cfg.n
        total = 0.0
        for i in range(n):
            for j in range(i + 1, n):
                m = gradient_minor(cfg, w, i, j)
                total = total + m * m
        return 16.0 * total, 16.0 * total
    raise ValueError(f"unknown method {method!r}")


def tangency_system(cfg: TangencyConfig, omega: Array) -> Array:
    """The local tangency system at ``omega``: axis minors plus shell defect.

    Components 0..n-2 are the minors against the refinement axis (ascending
    ``j``, skipping ``j == axis``); the last component is
    ``(|omega|**2 - 1)/2``.  Zeros of this map are exactly the points of the
    reference sphere where the second shell is internally tangent along the
    refinement axis.
    """
    w = np.asarray(omega, dtype=float)
    k = cfg.frame.axis
    minors = axis_minors(cfg, w)
    keep = [j for j in range(cfg.n) if j != k]
    shell = 0.5 * (np.sum(w * w, axis=-1) - 1.0)
    return np.concatenate([minors[..., keep], shell[..., None]], axis=-1)


def tangency_system_jacobian(cfg: TangencyConfig, omega: Array) -> Array:
    """Jacobian of :func:`tangency_system` in ``omega`` (batched, (..., n, n)).

    Row for minor ``j`` is supported on columns ``j`` and ``axis``::

        d/dw_j = (1/r_k**2 - 1/r_j**2) * w_k - t * dtilde_k / r_k**2
        d/dw_k = (1/r_k**2 - 1/r_j**2) * w_j + t * dtilde_j / r_j**2

    The last row is ``omega`` itself.
    """
    w = np.asarray(omega, dtype=float)
    return _system_jacobian_core(cfg.t, cfg.frame.dtilde, cfg.radii, w, cfg.frame.axis)


# ---------------------------------------------------------------------------
# the contact chart between radii and tangency points
# ---------------------------------------------------------------------------


def contact_point(radii: Array) -> Array:
    """Chart ``r -> r*r / |r|`` pairing semi-axes with contact centres.

    1-homogeneous, and the inverse of :func:`tangency_radii` on the positive
    orthant.  Its Jacobian is 0-homogeneous, and the identity suite certifies
    numerically that it stays non-degenerate — which is what makes radii a
    usable chart for the near-tangency configurations sampled elsewhere.
    """
    r = np.asarray(radii, dtype=float)
    norm = np.linalg.norm(r, axis=-1, keepdims=True)
    return r * r / norm


def tangency_radii(x: Array) -> Array:
    """Radii ``sqrt(x_j * sum_i x_i)`` whose contact point is ``x``.

    Requires all coordinates of ``x`` positive; inverse of
    :func:`contact_point` on the positive orthant.
    """
    v = np.asarray(x, dtype=float)
    if np.any(v <= 0):
        raise ValueError("tangency_radii needs strictly positive coordinates")
    s = np.sum(v, axis=-1, keepdims=True)
    return np.sqrt(v * s)
