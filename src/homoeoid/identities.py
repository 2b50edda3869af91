"""Closed-form linear-algebra identities behind the tangency analysis.

Every identity is verified by running two independent code paths — a closed
form against an LU / finite-difference / exact-rational oracle — and
reporting the worst relative residual over seeded random inputs.  Residuals
use the convention ``|lhs - rhs| / max(1, |lhs|, |rhs|)`` throughout, so the
figure degrades gracefully to an absolute error when both sides are small.

One identity suite runs in two arithmetics.  Its checks are written once
over batched arrays: on float64 samples they use LU determinants and the
relative residual; on object arrays of ``fractions.Fraction`` samples the
same formulas run with exact determinants and solves, and the residuals
``|lhs - rhs|`` must come out identically zero.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .geometry import (
    TangencyConfig,
    _axis_minors_core,
    _minor_core,
    _system_jacobian_core,
    axis_direction,
    contact_point,
    default_refinement_cut,
    refinement_indicator,
    tangency_system,
    tangency_system_jacobian,
)
from .mc import derive_stream, rng_stream

Array = np.ndarray

__all__ = [
    "IdentityReport",
    "NondegScan",
    "rel_residual",
    "circulant_closed_form",
    "contact_point_jacobian",
    "isotropic_contact_determinant",
    "contact_jacobian_check",
    "identity_suite",
    "nondeg_bounds_scan",
]


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------


def rel_residual(lhs, rhs):
    """``|lhs - rhs| / max(1, |lhs|, |rhs|)``, elementwise."""
    lhs = np.asarray(lhs, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    scale = np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))
    return np.abs(lhs - rhs) / scale


@dataclasses.dataclass(frozen=True)
class IdentityReport:
    """Outcome of checking one identity family over many random trials."""

    name: str
    trials: int
    max_relative_residual: float
    worst_case_input: str
    threshold: float = 1e-9
    details: dict | None = None


def _report_from_residuals(
    name: str,
    residuals: Array,
    describe: Callable[[int], str],
    *,
    threshold: float = 1e-9,
    details: dict | None = None,
) -> IdentityReport:
    flat = np.asarray(residuals, dtype=float).reshape(-1)
    if flat.size == 0:
        return IdentityReport(name, 0, 0.0, "vacuous: no comparisons", threshold, details)
    idx = int(np.argmax(flat))
    return IdentityReport(name, flat.size, float(flat[idx]), describe(idx), threshold, details)


# ---------------------------------------------------------------------------
# all-ones-off-diagonal determinant
# ---------------------------------------------------------------------------


def circulant_closed_form(a, n: int):
    """``det`` of the n x n matrix with ``a`` on the diagonal and 1 elsewhere.

    Factorises as ``(a - 1)**(n-1) * (a + n - 1)``: the matrix is
    ``(a - 1) I + ones``, and the all-ones matrix has eigenvalue ``n`` once
    and ``0`` with multiplicity ``n - 1``.
    """
    return (a - 1) ** (n - 1) * (a + n - 1)


# ---------------------------------------------------------------------------
# contact chart Jacobian: finite differences vs closed forms
# ---------------------------------------------------------------------------


def contact_point_jacobian(radii: Array) -> Array:
    """Exact Jacobian of :func:`homoeoid.geometry.contact_point`.

    Differentiating ``r -> r*r/|r|`` gives
    ``J[i, j] = (2 delta_ij r_i |r|^2 - r_i^2 r_j) / |r|^3``.
    """
    r = np.asarray(radii, dtype=float)
    norm2 = float(np.dot(r, r))
    jac = -np.outer(r * r, r)
    jac[np.arange(r.size), np.arange(r.size)] += 2.0 * r * norm2
    return jac / norm2**1.5


def _variant_diagonal_jacobian(radii: Array) -> Array:
    """Variant with diagonal ``2*sum(r**3) - r_i**3`` instead of the exact
    ``r_i**3 + 2 r_i sum_{j != i} r_j**2``.

    The two coincide exactly at isotropic points (all radii equal), which is
    the only place the variant is ordinarily used; the audit quantifies how
    far apart they drift at generic radii.
    """
    r = np.asarray(radii, dtype=float)
    jac = -np.outer(r * r, r)
    jac[np.arange(r.size), np.arange(r.size)] = 2.0 * np.sum(r**3) - r**3
    return jac / float(np.dot(r, r)) ** 1.5


def isotropic_contact_determinant(n: int) -> float:
    """``det`` of the contact-chart Jacobian at any isotropic point ``r*1``.

    The Jacobian there is ``(2n I - ones) / n**1.5`` (independent of ``r``:
    the chart is 1-homogeneous so its Jacobian is 0-homogeneous), whence the
    determinant is ``(2n)**(n-1) * n**(1 - 3n/2)``.
    """
    return (2 * n) ** (n - 1) * float(n) ** (1 - 1.5 * n)


def _alternate_isotropic_value(n: int, r: float = 1.0) -> float:
    """A widely quoted alternate closed form for the same determinant.

    Evaluates ``(-1)**n * r**(3(n-1)) * n**(-3/2) * P(-(2n-1))`` with ``P``
    the all-ones-off-diagonal determinant.  It exceeds the measured value by
    the factor ``n**(3(n-1)/2)`` and carries a spurious ``r`` dependence; the
    check records the gap rather than silently adopting either form.
    """
    p = circulant_closed_form(-(2 * n - 1), n)
    return (-1) ** n * r ** (3 * (n - 1)) * n ** (-1.5) * p


def _fd_jacobian(fn: Callable[[Array], Array], x: Array, step: float) -> Array:
    """Central finite differences with one Richardson extrapolation step."""

    def central(h: float) -> Array:
        cols = []
        for j in range(x.size):
            e = np.zeros_like(x)
            e[j] = h
            cols.append((fn(x + e) - fn(x - e)) / (2.0 * h))
        return np.stack(cols, axis=-1)

    coarse = central(step)
    fine = central(step / 2.0)
    return (4.0 * fine - coarse) / 3.0


_FD_STEP = 1e-6  # central-difference step of the contact-chart audit


def contact_jacobian_check(
    n_list: Sequence[int] = (2, 3, 4, 5, 6, 7, 8),
    *,
    seed: int = 0,
    generic_per_n: int = 20,
) -> IdentityReport:
    """Audit the contact-chart Jacobian against a finite-difference oracle.

    For each dimension: the determinant is measured by central differences
    (step ``1e-6``, Richardson extrapolated) at the isotropic points
    ``c * 1`` for ``c in {1, 3/2, 2}`` — where it must be constant — and at
    ``generic_per_n`` seeded radii uniform in ``[1, 2]**n``, where it must
    match :func:`contact_point_jacobian`.  The report's residual covers those
    comparisons at threshold 1e-6 (the honest accuracy of the differencing).
    ``details[n]`` additionally records the measured isotropic determinant,
    the derived closed form, the alternate closed form and its ratio to the
    measurement, and the worst entrywise gap of the variant-diagonal matrix
    at generic radii; the alternate forms are recorded, not gated.
    """
    worst = -1.0
    worst_desc = ""
    count = 0
    details: dict[int, dict] = {}
    for n in n_list:
        if n < 2:
            raise ValueError("dimension must be at least 2")
        iso = {}
        residuals = []
        for c in (1.0, 1.5, 2.0):
            point = np.full(n, c)
            fd_det = float(np.linalg.det(_fd_jacobian(contact_point, point, _FD_STEP)))
            exact_det = float(np.linalg.det(contact_point_jacobian(point)))
            iso[c] = fd_det
            residuals.append((float(rel_residual(fd_det, exact_det)), f"n={n} r={c}*ones"))
            count += 1
        spread = max(iso.values()) - min(iso.values())
        residuals.append((float(rel_residual(max(iso.values()), min(iso.values()))), f"n={n} isotropic spread"))
        count += 1

        rng = rng_stream(seed, derive_stream("contact-jac", n))
        generic = rng.uniform(1.0, 2.0, (generic_per_n, n))
        variant_gap = 0.0
        for r in generic:
            fd = _fd_jacobian(contact_point, r, _FD_STEP)
            exact = contact_point_jacobian(r)
            residuals.append(
                (float(np.max(rel_residual(np.linalg.det(fd), np.linalg.det(exact)))), f"n={n} r={np.round(r, 6).tolist()}")
            )
            variant_gap = max(variant_gap, float(np.max(np.abs(_variant_diagonal_jacobian(r) - exact))))
            count += 1

        measured = iso[1.0]
        details[n] = {
            "isotropic_measured": measured,
            "isotropic_closed_form": isotropic_contact_determinant(n),
            "isotropic_spread": spread,
            "det_at_three_halves": iso[1.5],
            "alternate_closed_form": _alternate_isotropic_value(n),
            "alternate_ratio": _alternate_isotropic_value(n) / measured,
            "variant_diagonal_max_gap": variant_gap,
        }
        for value, desc in residuals:
            if value > worst:
                worst, worst_desc = value, desc
    return IdentityReport("contact_jacobian", count, worst, worst_desc, threshold=1e-6, details=details)


# ---------------------------------------------------------------------------
# the principal/remainder split of the tangency Jacobian
# ---------------------------------------------------------------------------
#
# The minors and the system Jacobian come from geometry's own per-trial cores,
# so the suite certifies the code the Gram check and the nondegeneracy scan
# run.  Those cores and every builder below take float64 arrays or object
# arrays of ``Fraction`` and keep the dtype (integer literals,
# ``dtype=w.dtype``), so the suite evaluates the same formulas in both
# arithmetics.


def _principal_matrix(t: Array, r: Array, d: Array, w: Array, axis: int) -> Array:
    """The principal part of the column-scaled tangency Jacobian.

    Minor row ``j`` keeps only ``-t d_j w_axis`` in column ``j`` and
    ``t d_axis w_j`` in column ``axis``; the last row is ``r**2 w**2``.  Its
    determinant collapses to a single closed-form monomial sum, checked in
    the suite.
    """
    trials, n = w.shape
    mat = np.zeros((trials, n, n), dtype=w.dtype)
    for row, j in enumerate(k for k in range(n) if k != axis):
        mat[:, row, j] = -t * d[:, j] * w[:, axis]
        mat[:, row, axis] = t * d[:, axis] * w[:, j]
    mat[:, n - 1, :] = (r * w) ** 2
    return mat


def _minor_remainder_matrix(t: Array, r: Array, d: Array, w: Array, axis: int) -> Array:
    """Remainder: minor row ``j`` carries ``r_j**2 G_j`` and ``r_axis**2 G_j``."""
    trials, n = w.shape
    g = _axis_minors_core(t, d, r, w, axis)
    mat = np.zeros((trials, n, n), dtype=w.dtype)
    for row, j in enumerate(k for k in range(n) if k != axis):
        mat[:, row, j] = r[:, j] ** 2 * g[:, j]
        mat[:, row, axis] = r[:, axis] ** 2 * g[:, j]
    return mat


def _leave_one_out_products(d: Array) -> Array:
    """``out[:, j] = prod_{i != j} d[:, i]`` without dividing (entries may be 0)."""
    trials, n = d.shape
    prefix = np.ones((trials, n + 1), dtype=d.dtype)
    prefix[:, 1:] = np.cumprod(d, axis=1)
    suffix = np.ones((trials, n + 1), dtype=d.dtype)
    suffix[:, :-1] = np.cumprod(d[:, ::-1], axis=1)[:, ::-1]
    return prefix[:, :n] * suffix[:, 1:]


def principal_determinant_closed_form(t: Array, r: Array, d: Array, w: Array, axis: int) -> Array:
    """Closed form for ``det`` of :func:`_principal_matrix`:

    ``(-1)**axis * t**(n-1) * w_axis**(n-2) * sum_j (prod_{i != j} d_i) r_j**2 w_j**3``.
    """
    n = w.shape[1]
    loo = _leave_one_out_products(d)
    series = np.sum(loo * r**2 * w**3, axis=1)
    return (-1) ** axis * t ** (n - 1) * w[:, axis] ** (n - 2) * series


# ---------------------------------------------------------------------------
# the two arithmetics: exact kernels and dtype dispatch
# ---------------------------------------------------------------------------


def _frac_det(matrix: list[list[Fraction]]) -> Fraction:
    """Exact determinant by fraction Gaussian elimination with pivoting."""
    m = [row[:] for row in matrix]
    size = len(m)
    sign = 1
    det = Fraction(1)
    for col in range(size):
        pivot = next((row for row in range(col, size) if m[row][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            sign = -sign
        det *= m[col][col]
        for row in range(col + 1, size):
            if m[row][col]:  # entries may be plain ints: keep the division exact
                factor = Fraction(m[row][col]) / m[col][col]
                m[row] = [m[row][i] - factor * m[col][i] for i in range(size)]
    return sign * det


def _frac_inv(matrix: list[list[Fraction]]) -> list[list[Fraction]]:
    """Exact inverse by Gauss-Jordan elimination; raises if singular."""
    size = len(matrix)
    aug = [row[:] + [Fraction(int(i == j)) for j in range(size)] for i, row in enumerate(matrix)]
    for col in range(size):
        pivot = next((row for row in range(col, size) if aug[row][col] != 0), None)
        if pivot is None:
            raise ZeroDivisionError("singular rational matrix")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv_p = 1 / aug[col][col]
        aug[col] = [v * inv_p for v in aug[col]]
        for row in range(size):
            if row != col and aug[row][col]:
                factor = aug[row][col]
                aug[row] = [aug[row][i] - factor * aug[col][i] for i in range(2 * size)]
    return [row[size:] for row in aug]


def _det(mats: Array) -> Array:
    """Batched determinant: LU in float64, exact elimination per trial on Fractions."""
    if mats.dtype == object:
        return np.array([_frac_det(m.tolist()) for m in mats], dtype=object)
    return np.linalg.det(mats)


def _solve(a: Array, b: Array) -> Array:
    """Batched ``a^-1 b``: LU in float64, the exact inverse per trial on Fractions."""
    if a.dtype == object:
        return np.stack([np.array(_frac_inv(m.tolist()), dtype=object) @ rhs for m, rhs in zip(a, b)])
    return np.linalg.solve(a, b)


def _residual(lhs: Array, rhs: Array) -> Array:
    """:func:`rel_residual` in float64; the exact ``|lhs - rhs|`` on Fractions."""
    if lhs.dtype == object:
        return np.abs(lhs - rhs)
    return rel_residual(lhs, rhs)


# ---------------------------------------------------------------------------
# the identity suite
# ---------------------------------------------------------------------------


def _float_inputs(n: int, trials: int, seed: int, axis: int, ell: int):
    """Seeded float64 ``(a, t, r, d, w, blocks)``; Schur ``W`` blocks redrawn while ``cond > 1e6``."""
    rng = rng_stream(seed, derive_stream("identity-suite", n, axis))
    cut = default_refinement_cut(n)
    w = rng.uniform(-1.0, 1.0, (trials, n))
    t = 2.0 * (1.0 - rng.random(trials))  # in (0, 2]
    r = rng.uniform(0.5, 2.0, (trials, n))
    d = axis_direction(n, axis)[None, :] + rng.uniform(-1.0, 1.0, (trials, n)) * cut**2
    blocks = rng.uniform(-1.0, 1.0, (trials, n, n))
    for _ in range(64):
        bad = np.linalg.cond(blocks[:, :ell, :ell]) > 1e6
        if not np.any(bad):
            break
        blocks[bad] = rng.uniform(-1.0, 1.0, (int(np.sum(bad)), n, n))
    a = rng_stream(seed, derive_stream("circulant", n)).uniform(-10.0, 10.0, trials)
    return a, t, r, d, w, blocks


def _rational_inputs(n: int, trials: int, seed: int, axis: int, ell: int):
    """The same inputs as small-denominator ``Fraction`` object arrays; ``det(W) != 0``."""
    rng = rng_stream(seed, derive_stream("identity-suite-exact", n, axis))

    def frac(num, den):
        num, den = np.broadcast_arrays(num, den)
        flat = list(map(Fraction, num.ravel().tolist(), den.ravel().tolist()))
        return np.array(flat, dtype=object).reshape(num.shape)

    w = frac(rng.integers(-12, 13, (trials, n)), rng.integers(1, 9, (trials, n)))
    t = frac(rng.integers(1, 17, trials), 8)
    r = frac(rng.integers(4, 17, (trials, n)), 8)
    d = frac((np.arange(n) != axis) * (1 << 17) + rng.integers(-8, 9, (trials, n)), 1 << 17)
    blocks = frac(rng.integers(-8, 9, (trials, n, n)), 4)
    while True:
        bad = _det(blocks[:, :ell, :ell]) == 0
        if not np.any(bad):
            break
        blocks[bad] = frac(rng.integers(-8, 9, (int(np.sum(bad)), n, n)), 4)
    a = frac(rng.integers(-80, 81, trials), 8)
    return a, t, r, d, w, blocks


def _describe_trial(n, axis, t, r, d, w):
    def describe(idx: int) -> str:
        return repr(
            (
                n,
                axis,
                float(t[idx]),
                tuple(np.round(r[idx].astype(float), 12)),
                tuple(np.round(d[idx].astype(float), 12)),
                tuple(np.round(w[idx].astype(float), 12)),
            )
        )

    return describe


def identity_suite(
    n: int,
    trials: int = 1000,
    *,
    seed: int = 0,
    rational: bool = False,
) -> list[IdentityReport]:
    """Check the five identity families at seeded random ``(w, t, r, d)``,
    refined along axis 0.

    Families: the all-ones-off-diagonal determinant factorisation; the minor
    syzygy ``w_axis G_{i,j} = w_j G_i - w_i G_j``; the two logarithmic
    derivative identities for the axis minors; the block Schur-complement
    determinant identity; and the closed form for the principal-matrix
    determinant (LU oracle).  A sixth report certifies the exact column
    scaling ``prod(r_j^2 w_j) det(system Jacobian) = det(principal +
    remainder)`` tying the derivative formulas to the matrix split.

    One suite, two arithmetics: the checks below are written once and run
    on float64 samples, or with ``rational=True`` on object arrays of
    ``Fraction`` samples (supported for ``n <= 4``), where determinants and
    solves are exact and the residuals ``|lhs - rhs|`` must be exactly zero.
    """
    if n < 2:
        raise ValueError("dimension must be at least 2")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if rational and n > 4:
        raise ValueError("rational mode supports n <= 4 only")
    axis = 0
    ell = max(1, (n - 1) // 2)
    sample = _rational_inputs if rational else _float_inputs
    a, t, r, d, w, blocks = sample(n, trials, seed, axis, ell)
    describe = _describe_trial(n, axis, t, r, d, w)

    # all-ones-off-diagonal determinant: LU oracle vs factorisation
    mats = np.ones((trials, n, n), dtype=a.dtype)
    mats[:, np.arange(n), np.arange(n)] = a[:, None]
    reports = [
        _report_from_residuals(
            "circulant_determinant",
            _residual(_det(mats), circulant_closed_form(a, n)),
            lambda idx: repr((n, float(a[idx]))),
        )
    ]

    # (a) syzygy over all off-axis pairs
    g = _axis_minors_core(t, d, r, w, axis)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if i != axis and j != axis]
    if pairs:
        res = [
            _residual(w[:, axis] * _minor_core(t, d, r, w, i, j), w[:, j] * g[:, i] - w[:, i] * g[:, j])
            for i, j in pairs
        ]
        reports.append(
            _report_from_residuals(
                "minor_syzygy", np.max(res, axis=0), describe, details={"pairs": len(pairs)}
            )
        )
    else:
        reports.append(
            IdentityReport("minor_syzygy", trials, 0.0, "vacuous: no off-axis pairs", details={"pairs": 0})
        )

    # (b) derivative identities, both variables, all off-axis minors
    jac = _system_jacobian_core(t, d, r, w, axis)
    inv2 = 1 / (r * r)
    res = []
    for row, j in enumerate(k for k in range(n) if k != axis):
        lhs1 = w[:, j] * jac[:, row, j]
        rhs1 = g[:, j] - t * d[:, j] * w[:, axis] * inv2[:, j]
        lhs2 = w[:, axis] * jac[:, row, axis]
        rhs2 = g[:, j] + t * d[:, axis] * w[:, j] * inv2[:, axis]
        res += [_residual(lhs1, rhs1), _residual(lhs2, rhs2)]
    reports.append(_report_from_residuals("minor_derivatives", np.max(res, axis=0), describe))

    # (c) Schur complement determinant identity on invertible W blocks
    wblk = blocks[:, :ell, :ell]
    xblk = blocks[:, :ell, ell:]
    yblk = blocks[:, ell:, :ell]
    zblk = blocks[:, ell:, ell:]
    lhs = _det(blocks)
    rhs = _det(wblk) * _det(zblk - yblk @ _solve(wblk, xblk))
    reports.append(
        _report_from_residuals(
            "schur_complement",
            _residual(lhs, rhs),
            lambda idx: repr((n, ell, n - ell, np.round(blocks[idx].astype(float), 8).tolist())),
            details={"split": (ell, n - ell)},
        )
    )

    # (d) principal-matrix determinant: LU oracle vs closed form
    amat = _principal_matrix(t, r, d, w, axis)
    closed = principal_determinant_closed_form(t, r, d, w, axis)
    reports.append(_report_from_residuals("axis_determinant", _residual(_det(amat), closed), describe))

    # (e) exact column scaling of the system Jacobian
    lhs_e = np.prod(r * r * w, axis=1) * _det(jac)
    rhs_e = _det(amat + _minor_remainder_matrix(t, r, d, w, axis))
    reports.append(_report_from_residuals("jacobian_factorisation", _residual(lhs_e, rhs_e), describe))
    if rational:
        exact = {"worst_case_input": "exact rational trials", "details": {"mode": "rational"}}
        reports = [dataclasses.replace(report, **exact) for report in reports]
    return reports


# ---------------------------------------------------------------------------
# empirical nondegeneracy scan near tangency
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class NondegScan:
    """Empirical constants for the scaled tangency-system Jacobian.

    Collected over accepted samples (near-tangency configurations with the
    system value below ``cbar * t`` and the axis coordinate inside the
    refined region): the minimum of ``|det| * prod|w_j| / t**(n-1)`` (bounded
    below away from zero), the maximum of ``t * ||inverse||_F`` (bounded
    above), and the maximum scaled cofactor ``|det minor| * prod|w_j| /
    t**(n-2)``.
    """

    n: int
    axis: int
    cbar: float
    accepted: int
    requested: int
    min_scaled_determinant: float
    max_scaled_inverse_norm: float
    max_scaled_minor: float


def nondeg_bounds_scan(n: int = 3, trials: int = 1000, *, seed: int = 0) -> NondegScan:
    """Sample near-tangency configurations and record Jacobian floor/ceiling.

    Plain rejection from the hypothesis region is hopeless (the region has
    codimension ``n - 1`` in the sphere variables), so each sample solves for
    an exact tangency point by Newton iteration from the analytic first-order
    seed and then perturbs it by a random displacement small enough to stay
    below ``cbar * t``, with ``cbar = 0.1 * cut``; at most ``50 * trials``
    draws are made.  The refinement axis is axis 0; parameters are drawn
    with its radius dominant so the refined region genuinely contains
    tangency points.
    """
    if n < 2:
        raise ValueError("dimension must be at least 2")
    axis = 0
    cut = default_refinement_cut(n)
    cbar = 0.1 * cut
    rng = rng_stream(seed, derive_stream("nondeg", n, axis, cbar))

    min_det = np.inf
    max_inv = 0.0
    max_minor = 0.0
    accepted = 0
    floor = (2.0 * cut) ** (2.0 / 3.0)
    keep = [j for j in range(n) if j != axis]
    for _ in range(50 * trials):
        if accepted >= trials:
            break
        r = np.empty(n)
        r[axis] = rng.uniform(1.2, 2.0)
        r[keep] = rng.uniform(0.55, 0.95 * r[axis], n - 1)
        t = rng.uniform(0.05, 0.4)
        d = axis_direction(n, axis) + rng.uniform(-1.0, 1.0, n) * cut**2
        denom = 1.0 - (r[keep] / r[axis]) ** 2
        guess_tang = t * d[keep] / denom
        ssum = float(np.sum(guess_tang**2))
        if ssum > 1.0 - floor - 0.02:
            continue
        omega = np.empty(n)
        omega[keep] = guess_tang
        omega[axis] = np.sqrt(1.0 - ssum) * (1.0 if rng.random() < 0.5 else -1.0)
        cfg = TangencyConfig(axis, t, r, dtilde=d)
        ok = False
        for _ in range(25):
            val = tangency_system(cfg, omega)
            if np.max(np.abs(val)) < 1e-12:
                ok = True
                break
            try:
                step = np.linalg.solve(tangency_system_jacobian(cfg, omega), -val)
            except np.linalg.LinAlgError:
                break
            omega = omega + step
        if not ok or not refinement_indicator(omega, axis):
            continue
        jac = tangency_system_jacobian(cfg, omega)
        direction = rng.normal(size=n)
        direction /= np.linalg.norm(direction)
        shift = omega + direction * (cbar * t * rng.uniform(0.0, 0.5) / np.linalg.norm(jac))
        too_far = np.linalg.norm(tangency_system(cfg, shift)) >= cbar * t
        if too_far or not refinement_indicator(shift, axis):
            continue
        jac = tangency_system_jacobian(cfg, shift)
        prod_w = float(np.prod(np.abs(shift)))
        det = abs(float(np.linalg.det(jac)))
        min_det = min(min_det, det * prod_w / t ** (n - 1))
        max_inv = max(max_inv, t * float(np.linalg.norm(np.linalg.inv(jac))))
        rows = np.arange(n)
        for alpha in range(n):
            sub_rows = jac[rows != alpha]
            for beta in range(n):
                minor = abs(float(np.linalg.det(sub_rows[:, rows != beta])))
                max_minor = max(max_minor, minor * prod_w / t ** (n - 2))
        accepted += 1
    if accepted == 0:
        raise ValueError("no samples accepted: hypothesis region never reached")
    return NondegScan(
        n=n,
        axis=axis,
        cbar=float(cbar),
        accepted=accepted,
        requested=trials,
        min_scaled_determinant=float(min_det),
        max_scaled_inverse_norm=float(max_inv),
        max_scaled_minor=float(max_minor),
    )
