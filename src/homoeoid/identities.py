"""Closed-form linear-algebra identities behind the tangency analysis.

Every identity is verified by running two independent code paths — a closed
form against an LU / finite-difference / exact-rational oracle — and
reporting the worst relative residual over seeded random inputs.  Residuals
use the convention ``|lhs - rhs| / max(1, |lhs|, |rhs|)`` throughout, so the
figure degrades gracefully to an absolute error when both sides are small.

The float suite is fully vectorised (batched determinants); a rational mode
re-runs the polynomial identities in exact ``fractions.Fraction`` arithmetic,
where the residuals must come out identically zero.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .geometry import axis_direction, contact_point, default_refinement_cut
from .mc import derive_stream, rng_stream

Array = np.ndarray

__all__ = [
    "IdentityReport",
    "NondegScan",
    "rel_residual",
    "circulant_closed_form",
    "circulant_det_check",
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

    @property
    def passed(self) -> bool:
        return self.max_relative_residual < self.threshold


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


def circulant_det_check(
    n_list: Sequence[int] = (2, 3, 4, 5, 6, 7, 8),
    a_samples: Sequence[float] | None = None,
    *,
    trials: int = 100,
    seed: int = 0,
) -> IdentityReport:
    """LU determinant of ``(a - 1) I + ones`` against the closed form."""
    worst = -1.0
    worst_desc = ""
    count = 0
    for n in n_list:
        if n < 2:
            raise ValueError("matrix size must be at least 2")
        if a_samples is None:
            rng = rng_stream(seed, derive_stream("circulant", n))
            avals = rng.uniform(-10.0, 10.0, trials)
        else:
            avals = np.asarray(a_samples, dtype=float)
        mats = np.ones((avals.size, n, n))
        idx = np.arange(n)
        mats[:, idx, idx] = avals[:, None]
        lu = np.linalg.det(mats)
        closed = circulant_closed_form(avals, n)
        res = rel_residual(lu, closed)
        count += avals.size
        j = int(np.argmax(res))
        if res[j] > worst:
            worst = float(res[j])
            worst_desc = repr((n, float(avals[j])))
    return IdentityReport("circulant_determinant", count, worst, worst_desc)


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
# batched evaluation of the minor family and its derivative structure
# ---------------------------------------------------------------------------


def _pair_minor_block(t: Array, r: Array, d: Array, w: Array, i: int, j: int) -> Array:
    """Gradient minor for the pair ``(i, j)``: batch of trials at once."""
    inv2 = 1.0 / (r * r)
    return (inv2[:, j] - inv2[:, i]) * w[:, i] * w[:, j] - t * (
        d[:, j] * w[:, i] * inv2[:, j] - d[:, i] * w[:, j] * inv2[:, i]
    )


def _axis_minor_block(t: Array, r: Array, d: Array, w: Array, axis: int) -> Array:
    """All minors against ``axis`` as a ``(trials, n)`` block (axis slot 0)."""
    inv2 = 1.0 / (r * r)
    wk = w[:, axis : axis + 1]
    ik = inv2[:, axis : axis + 1]
    dk = d[:, axis : axis + 1]
    g = (ik - inv2) * w * wk - t[:, None] * (dk * w * ik - d * wk * inv2)
    g[:, axis] = 0.0
    return g


def _system_jacobian_block(t: Array, r: Array, d: Array, w: Array, axis: int) -> Array:
    """Batched Jacobian of the tangency system (minor rows plus shell row)."""
    trials, n = w.shape
    inv2 = 1.0 / (r * r)
    jac = np.zeros((trials, n, n))
    row = 0
    for j in range(n):
        if j == axis:
            continue
        coeff = inv2[:, axis] - inv2[:, j]
        jac[:, row, j] = coeff * w[:, axis] - t * d[:, axis] * inv2[:, axis]
        jac[:, row, axis] = coeff * w[:, j] + t * d[:, j] * inv2[:, j]
        row += 1
    jac[:, n - 1, :] = w
    return jac


def _principal_matrix(t: Array, r: Array, d: Array, w: Array, axis: int) -> Array:
    """The principal part of the column-scaled tangency Jacobian.

    Minor row ``j`` keeps only ``-t d_j w_axis`` in column ``j`` and
    ``t d_axis w_j`` in column ``axis``; the last row is ``r**2 w**2``.  Its
    determinant collapses to a single closed-form monomial sum, checked in
    the suite.
    """
    trials, n = w.shape
    mat = np.zeros((trials, n, n))
    row = 0
    for j in range(n):
        if j == axis:
            continue
        mat[:, row, j] = -t * d[:, j] * w[:, axis]
        mat[:, row, axis] = t * d[:, axis] * w[:, j]
        row += 1
    mat[:, n - 1, :] = (r * w) ** 2
    return mat


def _minor_remainder_matrix(t: Array, r: Array, d: Array, w: Array, axis: int) -> Array:
    """Remainder: minor row ``j`` carries ``r_j**2 G_j`` and ``r_axis**2 G_j``."""
    trials, n = w.shape
    g = _axis_minor_block(t, r, d, w, axis)
    mat = np.zeros((trials, n, n))
    row = 0
    for j in range(n):
        if j == axis:
            continue
        mat[:, row, j] = r[:, j] ** 2 * g[:, j]
        mat[:, row, axis] = r[:, axis] ** 2 * g[:, j]
        row += 1
    return mat


def _leave_one_out_products(d: Array) -> Array:
    """``out[:, j] = prod_{i != j} d[:, i]`` without dividing (entries may be 0)."""
    trials, n = d.shape
    prefix = np.ones((trials, n + 1))
    prefix[:, 1:] = np.cumprod(d, axis=1)
    suffix = np.ones((trials, n + 1))
    suffix[:, :-1] = np.cumprod(d[:, ::-1], axis=1)[:, ::-1]
    return prefix[:, :n] * suffix[:, 1:]


def principal_determinant_closed_form(t: Array, r: Array, d: Array, w: Array, axis: int) -> Array:
    """Closed form for ``det`` of :func:`_principal_matrix`:

    ``(-1)**axis * t**(n-1) * w_axis**(n-2) * sum_j (prod_{i != j} d_i) r_j**2 w_j**3``.
    """
    n = w.shape[1]
    loo = _leave_one_out_products(d)
    series = np.sum(loo * r**2 * w**3, axis=1)
    return (-1.0) ** axis * t ** (n - 1) * w[:, axis] ** (n - 2) * series


# ---------------------------------------------------------------------------
# the float identity suite
# ---------------------------------------------------------------------------


def _sample_suite_inputs(rng: np.random.Generator, n: int, trials: int, axis: int):
    cut = default_refinement_cut(n)
    w = rng.uniform(-1.0, 1.0, (trials, n))
    t = 2.0 * (1.0 - rng.random(trials))  # in (0, 2]
    r = rng.uniform(0.5, 2.0, (trials, n))
    d = axis_direction(n, axis)[None, :] + rng.uniform(-1.0, 1.0, (trials, n)) * cut**2
    return t, r, d, w


def _describe_trial(n, axis, t, r, d, w):
    def describe(idx: int) -> str:
        return repr(
            (
                n,
                axis,
                float(t[idx]),
                tuple(np.round(r[idx], 12)),
                tuple(np.round(d[idx], 12)),
                tuple(np.round(w[idx], 12)),
            )
        )

    return describe


def identity_suite(
    n: int,
    trials: int = 1000,
    *,
    seed: int = 0,
    axis: int = 0,
    rational: bool = False,
) -> list[IdentityReport]:
    """Check the five identity families at seeded random ``(w, t, r, d)``.

    Families: the all-ones-off-diagonal determinant factorisation; the minor
    syzygy ``w_axis G_{i,j} = w_j G_i - w_i G_j``; the two logarithmic
    derivative identities for the axis minors; the block Schur-complement
    determinant identity; and the closed form for the principal-matrix
    determinant (LU oracle).  A sixth report certifies the exact column
    scaling ``prod(r_j^2 w_j) det(system Jacobian) = det(principal +
    remainder)`` tying the derivative formulas to the matrix split.

    With ``rational=True`` every check runs in exact ``Fraction`` arithmetic
    on rational samples (supported for ``n <= 4``); the residuals are then
    exactly zero, not merely small.
    """
    if n < 2:
        raise ValueError("dimension must be at least 2")
    if not 0 <= axis < n:
        raise ValueError("axis out of range")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if rational:
        if n > 4:
            raise ValueError("rational mode supports n <= 4 only")
        return _rational_suite(n, trials, seed=seed, axis=axis)

    rng = rng_stream(seed, derive_stream("identity-suite", n, axis))
    t, r, d, w = _sample_suite_inputs(rng, n, trials, axis)
    describe = _describe_trial(n, axis, t, r, d, w)
    reports = [circulant_det_check((n,), trials=trials, seed=seed)]

    # (a) syzygy over all off-axis pairs
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if i != axis and j != axis]
    if pairs:
        res = np.zeros((trials, len(pairs)))
        g = _axis_minor_block(t, r, d, w, axis)
        for col, (i, j) in enumerate(pairs):
            lhs = w[:, axis] * _pair_minor_block(t, r, d, w, i, j)
            rhs = w[:, j] * g[:, i] - w[:, i] * g[:, j]
            res[:, col] = rel_residual(lhs, rhs)
        reports.append(
            _report_from_residuals(
                "minor_syzygy", np.max(res, axis=1), describe, details={"pairs": len(pairs)}
            )
        )
    else:
        reports.append(
            IdentityReport("minor_syzygy", trials, 0.0, "vacuous: no off-axis pairs", details={"pairs": 0})
        )

    # (b) derivative identities, both variables, all off-axis minors
    jac = _system_jacobian_block(t, r, d, w, axis)
    g = _axis_minor_block(t, r, d, w, axis)
    inv2 = 1.0 / (r * r)
    res_b = np.zeros(trials)
    row = 0
    for j in range(n):
        if j == axis:
            continue
        lhs1 = w[:, j] * jac[:, row, j]
        rhs1 = g[:, j] - t * d[:, j] * w[:, axis] * inv2[:, j]
        lhs2 = w[:, axis] * jac[:, row, axis]
        rhs2 = g[:, j] + t * d[:, axis] * w[:, j] * inv2[:, axis]
        res_b = np.maximum(res_b, rel_residual(lhs1, rhs1))
        res_b = np.maximum(res_b, rel_residual(lhs2, rhs2))
        row += 1
    reports.append(_report_from_residuals("minor_derivatives", res_b, describe))

    # (c) Schur complement determinant identity on well-conditioned blocks
    ell = max(1, (n - 1) // 2)
    m = n - ell
    blocks = rng.uniform(-1.0, 1.0, (trials, n, n))
    for _ in range(64):
        cond = np.linalg.cond(blocks[:, :ell, :ell])
        bad = cond > 1e6
        if not np.any(bad):
            break
        blocks[bad] = rng.uniform(-1.0, 1.0, (int(np.sum(bad)), n, n))
    wblk = blocks[:, :ell, :ell]
    xblk = blocks[:, :ell, ell:]
    yblk = blocks[:, ell:, :ell]
    zblk = blocks[:, ell:, ell:]
    lhs = np.linalg.det(blocks)
    rhs = np.linalg.det(wblk) * np.linalg.det(zblk - yblk @ np.linalg.solve(wblk, xblk))
    reports.append(
        _report_from_residuals(
            "schur_complement",
            rel_residual(lhs, rhs),
            lambda idx: repr((n, ell, m, np.round(blocks[idx], 8).tolist())),
            details={"split": (ell, m)},
        )
    )

    # (d) principal-matrix determinant: LU oracle vs closed form
    amat = _principal_matrix(t, r, d, w, axis)
    lu = np.linalg.det(amat)
    closed = principal_determinant_closed_form(t, r, d, w, axis)
    reports.append(_report_from_residuals("axis_determinant", rel_residual(lu, closed), describe))

    # (e) exact column scaling of the system Jacobian
    lhs_e = np.prod(r * r * w, axis=1) * np.linalg.det(jac)
    rhs_e = np.linalg.det(amat + _minor_remainder_matrix(t, r, d, w, axis))
    reports.append(_report_from_residuals("jacobian_factorisation", rel_residual(lhs_e, rhs_e), describe))
    return reports


# ---------------------------------------------------------------------------
# exact rational mode
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
            factor = m[row][col] / m[col][col]
            if factor:
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


def _rational_minor(t, r, d, w, i, j):
    return (
        (Fraction(1) / r[j] ** 2 - Fraction(1) / r[i] ** 2) * w[i] * w[j]
        - t * (d[j] * w[i] / r[j] ** 2 - d[i] * w[j] / r[i] ** 2)
    )


def _rational_trial(rng: np.random.Generator, n: int, axis: int):
    w = [Fraction(int(rng.integers(-12, 13)), int(rng.integers(1, 9))) for _ in range(n)]
    t = Fraction(int(rng.integers(1, 17)), 8)
    r = [Fraction(int(rng.integers(4, 17)), 8) for _ in range(n)]
    d = [
        Fraction(int(i != axis)) + Fraction(int(rng.integers(-8, 9)), 1 << 17)
        for i in range(n)
    ]
    return t, r, d, w


def _rational_suite(n: int, trials: int, *, seed: int, axis: int) -> list[IdentityReport]:
    rng = rng_stream(seed, derive_stream("identity-suite-exact", n, axis))
    worst = {
        "circulant_determinant": Fraction(0),
        "minor_syzygy": Fraction(0),
        "minor_derivatives": Fraction(0),
        "schur_complement": Fraction(0),
        "axis_determinant": Fraction(0),
        "jacobian_factorisation": Fraction(0),
    }
    ell = max(1, (n - 1) // 2)
    for _ in range(trials):
        t, r, d, w = _rational_trial(rng, n, axis)
        g = [
            _rational_minor(t, r, d, w, j, axis) if j != axis else Fraction(0)
            for j in range(n)
        ]

        a = Fraction(int(rng.integers(-80, 81)), 8)
        mat = [[a if i == j else Fraction(1) for j in range(n)] for i in range(n)]
        worst["circulant_determinant"] = max(
            worst["circulant_determinant"], abs(_frac_det(mat) - (a - 1) ** (n - 1) * (a + n - 1))
        )

        for i in range(n):
            for j in range(i + 1, n):
                if i == axis or j == axis:
                    continue
                lhs = w[axis] * _rational_minor(t, r, d, w, i, j)
                rhs = w[j] * g[i] - w[i] * g[j]
                worst["minor_syzygy"] = max(worst["minor_syzygy"], abs(lhs - rhs))

        for j in range(n):
            if j == axis:
                continue
            coeff = Fraction(1) / r[axis] ** 2 - Fraction(1) / r[j] ** 2
            dj = coeff * w[axis] - t * d[axis] / r[axis] ** 2
            dk = coeff * w[j] + t * d[j] / r[j] ** 2
            worst["minor_derivatives"] = max(
                worst["minor_derivatives"],
                abs(w[j] * dj - (g[j] - t * d[j] * w[axis] / r[j] ** 2)),
                abs(w[axis] * dk - (g[j] + t * d[axis] * w[j] / r[axis] ** 2)),
            )

        while True:
            block = [[Fraction(int(rng.integers(-8, 9)), 4) for _ in range(n)] for _ in range(n)]
            wblk = [row[:ell] for row in block[:ell]]
            if _frac_det(wblk) != 0:
                break
        xblk = [row[ell:] for row in block[:ell]]
        yblk = [row[:ell] for row in block[ell:]]
        zblk = [row[ell:] for row in block[ell:]]
        winv = _frac_inv(wblk)
        wx = [[sum(winv[i][k] * xblk[k][j] for k in range(ell)) for j in range(n - ell)] for i in range(ell)]
        schur = [
            [zblk[i][j] - sum(yblk[i][k] * wx[k][j] for k in range(ell)) for j in range(n - ell)]
            for i in range(n - ell)
        ]
        worst["schur_complement"] = max(
            worst["schur_complement"], abs(_frac_det(block) - _frac_det(wblk) * _frac_det(schur))
        )

        amat = [[Fraction(0)] * n for _ in range(n)]
        row = 0
        for j in range(n):
            if j == axis:
                continue
            amat[row][j] = -t * d[j] * w[axis]
            amat[row][axis] = t * d[axis] * w[j]
            row += 1
        amat[n - 1] = [r[i] ** 2 * w[i] ** 2 for i in range(n)]
        series = Fraction(0)
        for j in range(n):
            prod = Fraction(1)
            for i in range(n):
                if i != j:
                    prod *= d[i]
            series += prod * r[j] ** 2 * w[j] ** 3
        closed = Fraction(-1 if axis % 2 else 1) * t ** (n - 1) * w[axis] ** (n - 2) * series
        worst["axis_determinant"] = max(worst["axis_determinant"], abs(_frac_det(amat) - closed))

        jac = [[Fraction(0)] * n for _ in range(n)]
        row = 0
        for j in range(n):
            if j == axis:
                continue
            coeff = Fraction(1) / r[axis] ** 2 - Fraction(1) / r[j] ** 2
            jac[row][j] = coeff * w[axis] - t * d[axis] / r[axis] ** 2
            jac[row][axis] = coeff * w[j] + t * d[j] / r[j] ** 2
            row += 1
        jac[n - 1] = list(w)
        scale = Fraction(1)
        for i in range(n):
            scale *= r[i] ** 2 * w[i]
        bmat = [[Fraction(0)] * n for _ in range(n)]
        row = 0
        for j in range(n):
            if j == axis:
                continue
            bmat[row][j] = r[j] ** 2 * g[j]
            bmat[row][axis] = r[axis] ** 2 * g[j]
            row += 1
        total = [[amat[i][j] + bmat[i][j] for j in range(n)] for i in range(n)]
        worst["jacobian_factorisation"] = max(
            worst["jacobian_factorisation"], abs(scale * _frac_det(jac) - _frac_det(total))
        )

    return [
        IdentityReport(name, trials, float(value), "exact rational trials", details={"mode": "rational"})
        for name, value in worst.items()
    ]


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


def nondeg_bounds_scan(
    n: int = 3,
    trials: int = 1000,
    cbar: float | None = None,
    *,
    seed: int = 0,
    max_attempts_factor: int = 50,
) -> NondegScan:
    """Sample near-tangency configurations and record Jacobian floor/ceiling.

    Plain rejection from the hypothesis region is hopeless (the region has
    codimension ``n - 1`` in the sphere variables), so each sample solves for
    an exact tangency point by Newton iteration from the analytic first-order
    seed and then perturbs it by a random displacement small enough to stay
    below ``cbar * t``.  The refinement axis is axis 0; parameters are drawn
    with its radius dominant so the refined region genuinely contains
    tangency points.
    """
    from .geometry import (  # local import to avoid cycles at module import
        AxisFrame,
        TangencyConfig,
        tangency_system,
        tangency_system_jacobian,
    )

    if n < 2:
        raise ValueError("dimension must be at least 2")
    axis = 0
    cut = default_refinement_cut(n)
    if cbar is None:
        cbar = 0.1 * cut
    if cbar <= 0:
        raise ValueError("cbar must be positive")
    rng = rng_stream(seed, derive_stream("nondeg", n, axis, cbar))

    min_det = np.inf
    max_inv = 0.0
    max_minor = 0.0
    accepted = 0
    floor = (2.0 * cut) ** (2.0 / 3.0)
    keep = [j for j in range(n) if j != axis]
    for _ in range(max_attempts_factor * trials):
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
        cfg = TangencyConfig(AxisFrame(n, axis, dtilde=d), t, r)
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
        if not ok or abs(omega[axis]) ** 3 < 2.0 * cut:
            continue
        jac = tangency_system_jacobian(cfg, omega)
        direction = rng.normal(size=n)
        direction /= np.linalg.norm(direction)
        shift = omega + direction * (cbar * t * rng.uniform(0.0, 0.5) / np.linalg.norm(jac))
        if np.linalg.norm(tangency_system(cfg, shift)) >= cbar * t or abs(shift[axis]) ** 3 < 2.0 * cut:
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
