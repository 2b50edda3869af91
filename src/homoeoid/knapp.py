"""Necessity-side experiments: slab scaling exponents and the divergent series.

Two constructions live here.  The first is the classical slab example — an
indicator of a ``delta x sqrt(delta) x ... x sqrt(delta)`` box tangent to the
diagonal direction — whose averages against tangency-configured shells scale
like ``delta**((n-1)/2)``; comparing with the slab's own L^p norm produces
scaling exponents that change sign across p = (n+1)/(n-1).  The second is the
counterexample profile ``g``: a tangentially singular function, finite in L^p
up to the critical exponent, whose surface integrals over dyadic tangential
shells of a tangency configuration form a divergent series.  The field's
opening constant ``C`` must be at least 1 wherever it is taken (the field,
its L^p norm and the shell series), and the series' growth exponent is read
from its dyadic block sums (:func:`dyadic_block_slope`).

The shell series needs care at depth: shell ``l`` lives at tangential distance
``2**(-l/2)`` from the tangency point, far below float range once ``l`` is in
the thousands.  All shell computations therefore run in rescaled tangential
coordinates ``w = 2**(l/2) * v``; the ``2**(+-l(n-1)/2)`` factors between the
profile's growth and the shell's measure cancel symbolically, so every stored
intermediate stays O(1) for every ``l``.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Sequence

import numpy as np

from . import geometry as geo
from .maximal import Field
from .mc import DEFAULT_CHUNK, ScalingFit, derive_stream, fit_power_law, ordered_map, rng_stream
from .volumes import ball_volume, keyed_shell_points, sample_surface, sphere_area

Array = np.ndarray

__all__ = [
    "KnappSlab",
    "ExponentScan",
    "CounterexampleField",
    "ShellSeries",
    "diagonal_frame",
    "sample_tangency_set",
    "slab_shell_average",
    "knapp_exponent",
    "profile_value",
    "g_lp_norm",
    "shell_partial_sums",
    "dyadic_block_slope",
]


def diagonal_frame(n: int) -> Array:
    """Orthonormal frame adapted to the diagonal: rows 0..n-2 span the
    hyperplane orthogonal to ``(1,...,1)``, the last row is ``(1,...,1)/sqrt(n)``.

    Built by Gram-Schmidt of the standard basis against the diagonal, so the
    construction is deterministic (no RNG, no eigensolver sign ambiguity).
    """
    if n < 2:
        raise ValueError(f"dimension must be >= 2, got {n}")
    normal = np.full(n, 1.0 / math.sqrt(n))
    rows = [normal]
    for i in range(n - 1):
        v = np.zeros(n)
        v[i] = 1.0
        for u in rows:
            v -= np.dot(v, u) * u
        v /= np.linalg.norm(v)
        rows.append(v)
    return np.stack(rows[1:] + [normal])


@dataclasses.dataclass(frozen=True)
class KnappSlab:
    """Axis-tangent box of thickness ``delta`` and tangential width ``sqrt(delta)``.

    Centred at the origin, thin direction along the diagonal ``(1,...,1)/sqrt(n)``.
    The exact volume ``delta**((n+1)/2)`` is exposed so L^p norms of the
    indicator never rely on Monte Carlo.
    """

    delta: float
    n: int = 3

    def __post_init__(self) -> None:
        object.__setattr__(self, "delta", geo._shell_width(self.delta))
        object.__setattr__(self, "frame", diagonal_frame(self.n))

    frame: Array = dataclasses.field(init=False, repr=False)

    @property
    def volume(self) -> float:
        return self.delta ** ((self.n + 1) / 2.0)

    def contains(self, points: Array) -> Array:
        coords = np.asarray(points, dtype=float) @ self.frame.T
        half_width = 0.5 * math.sqrt(self.delta)
        tangential = np.all(np.abs(coords[..., : self.n - 1]) <= half_width, axis=-1)
        return tangential & (np.abs(coords[..., self.n - 1]) <= 0.5 * self.delta)

    def indicator(self) -> Field:
        half_diag = 0.5 * math.sqrt((self.n - 1) * self.delta + self.delta**2)
        return Field.from_callable(
            lambda pts: self.contains(pts).astype(float),
            np.full(self.n, -half_diag),
            np.full(self.n, half_diag),
        )


def sample_tangency_set(
    m: int, *, seed: int = 0, rho: float = 0.1, n: int = 3
) -> tuple[Array, Array]:
    """Draw tangency configurations (x, r) with the shell tangent to 0.

    Radii are uniform in the box ``(3/2)*1 +- rho`` (kept inside ``(1, 2)^n``),
    and ``x = contact_point(r)``, which places the origin on the ellipsoid
    ``E(x, r)`` with tangent plane orthogonal to the diagonal.  Returns the
    pair of ``(m, n)`` arrays.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    if not 0.0 < rho < 0.5:
        raise ValueError("rho must lie in (0, 1/2) so the box stays inside (1,2)^n")
    rng = rng_stream(seed, derive_stream("tangency-set", n, rho))
    radii = 1.5 + rho * (2.0 * rng.random((m, n)) - 1.0)
    return geo.contact_point(radii), radii


@dataclasses.dataclass(frozen=True)
class ExponentScan:
    """Power-law fit of slab-average ratios plus the per-width table.

    ``fit`` is ``None`` when some width's ratio is 0 (no shell sample hit the
    slab), since no power law passes through it; the rows are kept.
    """

    fit: ScalingFit | None
    rows: tuple


def slab_shell_average(
    slab: KnappSlab, x: Array, r: Array, delta: float, m: int, *, seed: int = 0
) -> tuple[float, float]:
    """Shell average of the slab indicator at a tangency configuration.

    Equal in expectation to ``annulus_average`` of the indicator over
    ``E^delta(x, r)``, but the directions are drawn inside the spherical cap
    that provably contains the slab's preimage (the indicator vanishes off the
    cap, so scaling the cap-restricted mean by the exact cap fraction changes
    nothing but the variance).  Uniform shell sampling would land
    ``O(delta^{(n-1)/2})`` of its points in the slab — fractions of a hit per
    batch at small widths, whose noise biases p-th moments upward — whereas
    the cap keeps the hit rate width-independent.  Returns (value, std_error).
    """
    x = np.asarray(x, dtype=float)
    r = np.asarray(r, dtype=float)
    n = x.shape[0]
    if m < 2:
        raise ValueError("m must be at least 2")
    if abs(float(geo.defining_value(x, r, np.zeros(n)))) > 1e-9:
        raise ValueError("(x, r) must be a tangency configuration")
    rng = rng_stream(seed, derive_stream("knapp-cap", delta, x, r))
    # radial law of the uniform shell measure (independent of direction)
    lo = (1.0 - delta) ** (n / 2.0)
    hi = (1.0 + delta) ** (n / 2.0)
    mags = (lo + rng.random(m) * (hi - lo)) ** (1.0 / n)

    # any shell point landing in the slab has direction within chord_max of
    # the tangency direction: |omega - u0| <= |y|/min(r) on the slab, plus
    # the radial slack | |omega| - 1 | < 0.6*delta; 5% safety margin on top.
    u0 = -x / r
    u0 /= np.linalg.norm(u0)
    half_diag = 0.5 * math.sqrt((n - 1) * delta + delta**2)
    chord = 1.05 * (half_diag / float(np.min(r)) + 0.6 * delta)
    if chord**2 >= 1.8:
        dirs = rng.standard_normal((m, n))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        fraction = 1.0
    else:
        from scipy.special import betainc, betaincinv

        cos_cap = 1.0 - 0.5 * chord**2
        sin_sq = 1.0 - cos_cap**2
        a = (n - 1) / 2.0
        mass = float(betainc(a, 0.5, sin_sq))
        fraction = 0.5 * mass  # P(<u, u0> >= cos_cap) for a uniform direction
        t = betaincinv(a, 0.5, rng.random(m) * mass)
        heights = np.sqrt(1.0 - t)
        g = rng.standard_normal((m, n))
        g -= (g @ u0)[:, None] * u0
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        dirs = heights[:, None] * u0 + np.sqrt(t)[:, None] * g
    points = x + r * (mags[:, None] * dirs)
    vals = slab.contains(points).astype(float)
    value = fraction * float(np.mean(vals))
    std_error = fraction * float(np.std(vals, ddof=1) / math.sqrt(m))
    return value, std_error


def knapp_exponent(
    delta_list: Sequence[float],
    p: float,
    m_x: int = 64,
    m_s: int = 8192,
    *,
    seed: int = 0,
    n: int = 3,
    rho: float = 0.1,
) -> ExponentScan:
    """Scaling exponent of slab averages against the slab's own L^p norm.

    For each width the ratio is ``R(delta) = ||A f_delta||_p / ||f_delta||_p``
    where ``f_delta`` is the matched slab indicator and ``A f_delta(x)`` is the
    shell average at a sampled tangency configuration — a direct lower bound
    for the maximal operator, no sup search.  The L^p norm on the sample side
    uses the uniform probability measure on the tangency patch (constant
    factors cancel in the slope).  The returned fit is of ``log R`` against
    ``log delta``: negative slopes mean the averages beat the norm as the
    shells thin (unbounded operator), positive slopes mean decay.

    Shell-sample streams are derived from values only, so calls with
    different ``p`` at the same seed share identical average estimates.
    """
    deltas = geo._width_grid(delta_list)
    if p < 1.0:
        raise ValueError("p must be at least 1")
    if m_x < 2 or m_s < 1:
        raise ValueError("need m_x >= 2 tangency samples and m_s >= 1 shell samples")

    xs, rs = sample_tangency_set(m_x, seed=seed, rho=rho, n=n)
    rows = []
    ratios = []
    for delta in deltas:
        slab = KnappSlab(delta, n)
        values = np.array(
            [
                slab_shell_average(slab, xs[i], rs[i], delta, m_s, seed=seed)[0]
                for i in range(m_x)
            ]
        )
        powers = values**p
        mean_pow = float(np.mean(powers))
        se_pow = float(np.std(powers, ddof=1) / math.sqrt(m_x))
        slab_norm = KnappSlab(delta, n).volume ** (1.0 / p)
        if mean_pow > 0.0:
            ratio = mean_pow ** (1.0 / p) / slab_norm
            std_error = se_pow * mean_pow ** (1.0 / p - 1.0) / (p * slab_norm)
        else:
            ratio = 0.0
            std_error = math.inf
        rows.append({"delta": delta, "p": p, "ratio": ratio, "std_error": std_error})
        ratios.append(ratio)
    fit = fit_power_law(np.asarray(deltas), np.asarray(ratios)) if min(ratios) > 0.0 else None
    return ExponentScan(fit=fit, rows=tuple(rows))


def profile_value(t, n: int = 3) -> Array:
    """Tangential profile ``t**-(n-1) * log2(1/t)**(-n/(n+1))`` on ``(0, 1/2]``.

    Zero outside that range (including t = 0: the singularity sits on a
    measure-zero set and every sampler here avoids it).
    """
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    mask = (t > 0.0) & (t <= 0.5)
    tm = t[mask]
    out[mask] = tm ** (-(n - 1)) * np.log2(1.0 / tm) ** (-n / (n + 1.0))
    return out


def _check_opening(C: float) -> None:
    if not C >= 1.0:
        raise ValueError(f"opening constant C must be >= 1, got {C}")


@dataclasses.dataclass(frozen=True)
class CounterexampleField:
    """The tangentially singular field ``f = g o U``.

    ``g(x', x_n) = profile(|x'|)`` on the opening ``{|x_n| <= C |x'|**2}``, and
    ``U`` is the diagonal frame, so the singular direction is the diagonal.
    ``C`` must be large enough that the opening swallows the quadratic bending
    of the tangency-configured shells; the shell-series diagnostics check that
    empirically rather than assuming it.
    """

    C: float
    n: int = 3

    def __post_init__(self) -> None:
        _check_opening(self.C)
        object.__setattr__(self, "frame", diagonal_frame(self.n))

    frame: Array = dataclasses.field(init=False, repr=False)

    def __call__(self, points: Array) -> Array:
        coords = np.asarray(points, dtype=float) @ self.frame.T
        tangential = np.linalg.norm(coords[..., : self.n - 1], axis=-1)
        normal = coords[..., self.n - 1]
        opening = np.abs(normal) <= self.C * tangential**2
        return profile_value(tangential, self.n) * opening

    def field(self) -> Field:
        half_width = math.sqrt(0.25 + self.C**2 / 16.0)
        return Field.from_callable(
            self.__call__, np.full(self.n, -half_width), np.full(self.n, half_width)
        )


def g_lp_norm(
    p: float, quad_points: int = 20_000, *, n: int = 3, C: float = 4.0
) -> float:
    """L^p norm of the counterexample profile, or ``inf`` when divergent.

    The slab-opening geometry reduces ``int g**p`` to a radial integral which,
    after substituting ``t = 2**-u``, becomes

        2*C * area(S^{n-2}) * ln2 * int_1^inf 2**(-alpha*u) * u**(-beta) du

    with ``alpha = n + 1 - (n-1)*p`` and ``beta = n*p/(n+1)``.  The integral is
    evaluated over doubling windows ``[2^j, 2^(j+1)]`` (the image of halving
    the inner radial cutoff repeatedly): growing window contributions mean the
    cutoff integrals blow up and the result is ``inf``; decaying windows are
    summed with a geometric tail extrapolation, which is exact in the critical
    case ``alpha = 0`` (pure power integrand) and conservative otherwise.  Two
    consecutive window counts must agree to 1e-8 relative before the sum is
    accepted (a Richardson-style stopping check).
    """
    if p < 1.0:
        raise ValueError("p must be at least 1")
    if quad_points < 100:
        raise ValueError("quad_points must be at least 100")
    _check_opening(C)
    from scipy.integrate import quad

    alpha = n + 1 - (n - 1) * p
    beta = n * p / (n + 1.0)
    limit = max(50, quad_points // 100)

    def integrand(u: float) -> float:
        return math.exp(-alpha * u * math.log(2.0)) * u**-beta

    scale = 2.0 * C * sphere_area(n - 1) * math.log(2.0)
    total_prev = None
    partial = 0.0
    window_prev = None
    for j in range(60):
        lo, hi = 2.0**j, 2.0 ** (j + 1)
        if alpha < 0.0 and -alpha * hi * math.log(2.0) > 500.0:
            return math.inf  # integrand overflows float range: certainly divergent
        window, _ = quad(integrand, lo, hi, limit=limit, epsabs=0.0, epsrel=1e-12)
        if window_prev is not None and window_prev > 0.0:
            ratio = window / window_prev
            if ratio >= 0.98 and window > 1e-300:
                return math.inf
        else:
            ratio = 0.0
        partial += window
        tail = window * ratio / (1.0 - ratio) if 0.0 < ratio < 1.0 else 0.0
        total = partial + tail
        if total_prev is not None and abs(total - total_prev) <= 1e-8 * abs(total):
            return (scale * total) ** (1.0 / p)
        total_prev = total
        window_prev = window
        if window == 0.0:
            break
    return (scale * total_prev) ** (1.0 / p)


@dataclasses.dataclass(frozen=True)
class ShellSeries:
    """Per-shell surface integrals of ``|f|`` and their running sums.

    ``terms[l-1]`` is the integral of ``|f|`` over the l-th dyadic tangential
    shell of the configured surface, normalised by the total surface measure
    (estimated once, ``surface_measure``).  ``survivors`` counts samples inside
    the support of ``f``; shells with fewer than ``max(4, m // 16)`` survivors
    are flagged in ``low_confidence`` rather than dropped.
    ``normal_extent[l-1]`` is the largest ``|<omega, N>|`` seen on shell ``l``
    in curvature units (rescaled by ``2**l``) — bounded values certify that
    the opening constant of the field swallows the shell.
    """

    terms: Array
    std_errors: Array
    survivors: Array
    low_confidence: Array
    normal_extent: Array
    surface_measure: float
    m: int

    @property
    def partial_sums(self) -> Array:
        return np.cumsum(self.terms)

    @property
    def partial_sum_errors(self) -> Array:
        return np.sqrt(np.cumsum(self.std_errors**2))

    def __len__(self) -> int:
        return self.terms.shape[0]


def shell_partial_sums(
    x: Array,
    r_x: Array,
    L: int,
    m: int,
    *,
    seed: int = 0,
    C: float = 4.0,
) -> ShellSeries:
    """Partial sums of the shell series for the counterexample field.

    ``(x, r_x)`` must be a tangency configuration (surface through 0, tangent
    plane orthogonal to the diagonal — e.g. a :func:`sample_tangency_set`
    draw).  Shell ``l`` is the band of the surface at tangential distance
    ``2**-(l+1)/2 < |proj_V omega| <= 2**(-l/2)`` from the tangency point; the
    term is the mean of ``|f|`` over the band against surface measure, divided
    by the total surface measure.

    Sampling parameterises each band over its tangential annulus: draw ``v``
    uniform in the annulus, solve the shell's quadratic for the normal offset
    ``s(v)`` (small root, in the stable form), and weight by the graph area
    element ``|grad F| / |<grad F, N>|``.  Everything runs in the rescaled
    coordinates ``w = 2**(l/2) v``; the quadratic's constant term is replaced
    by its curvature part, the piece that survives exact tangency — the
    dropped terms vanish identically there and would otherwise be amplified
    by ``2**l`` into garbage.  Per-shell streams are independent of ``L``, so
    extending a series re-produces its prefix exactly.

    Shells are scored in blocks of ``max(1, DEFAULT_CHUNK // m)`` on
    ``(shells, m)`` arrays.  Each block is one :func:`~homoeoid.mc.ordered_map`
    unit, and the blocks' per-shell results are concatenated in shell order,
    so every output bit is the same at any worker count and block size.
    """
    x = np.asarray(x, dtype=float)
    r = np.asarray(r_x, dtype=float)
    n = x.shape[0]
    if r.shape != (n,):
        raise ValueError("x and r_x must be vectors of matching dimension")
    if L < 4:
        raise ValueError("need at least 4 shells")
    if m < 16:
        raise ValueError("need at least 16 samples per shell")
    _check_opening(C)
    residual = float(abs(geo.defining_value(x, r, np.zeros(n))))
    if residual > 1e-9:
        raise ValueError(
            f"(x, r_x) is not a tangency configuration: |F(0)| = {residual:.3e}"
        )
    frame = diagonal_frame(n)
    tangent_rows = frame[: n - 1]
    normal = frame[n - 1]
    beta = n / (n + 1.0)

    # total surface measure, one Monte Carlo estimate shared by every term
    _, weights = sample_surface(r, 1 << 16, seed, derive_stream("shell-series-area", x, r))
    surface_measure = float(np.mean(weights))

    inner = 2.0 ** (-(n - 1) / 2.0)  # annulus inner radius to the n-1 power
    prefactor = ball_volume(n - 1) * (1.0 - inner) / surface_measure
    r_sq = r**2
    quad_coeff = float(np.sum(normal**2 / r_sq))
    b0 = -2.0 * float(np.sum(normal * x / r_sq))

    block = max(1, DEFAULT_CHUNK // m)

    def run_block(idx: int) -> tuple[Array, Array, Array, Array]:
        ells = range(idx * block + 1, min((idx + 1) * block, L) + 1)
        streams = [derive_stream("shell-series", ell, x, r) for ell in ells]
        # w uniform in the tangential annulus 2**(-1/2) < |w| <= 1 of R^(n-1)
        w, radius = keyed_shell_points(seed, streams, m, n - 1, (0.5, 1.0))
        # the depths 2**(-l/2) and 2**-l through Python's float pow, not numpy's
        # array power (which may round differently), so a shell's bits do not
        # depend on its block
        scale = np.array([2.0 ** (-ell / 2.0) for ell in ells])[:, None]
        scale_sq = np.array([2.0**-ell for ell in ells])[:, None]

        # coordinate by coordinate on (shells, m) columns, terms added in
        # coordinate order; the two products with the frame stay BLAS calls
        v_dir = w @ tangent_rows  # unscaled tangential vectors, |v_dir| = |w|
        v = [v_dir[..., j] for j in range(n)]
        curvature = v[0] * v[0] / r_sq[0]
        linear = v[0] * normal[0] / r_sq[0]
        for j in range(1, n):
            curvature += v[j] * v[j] / r_sq[j]
            linear += v[j] * normal[j] / r_sq[j]
        b = scale * 2.0 * linear
        b += b0
        disc = np.sqrt(b**2 - 4.0 * scale_sq * quad_coeff * curvature)
        s_scaled = 2.0 * curvature / (disc - b)  # small root of the shell quadratic

        level = np.array(ells)[:, None] / 2.0 + np.log2(1.0 / radius)
        in_support = (level >= 1.0) & (np.abs(s_scaled) <= C * radius**2)
        depth = scale_sq * s_scaled
        grad = np.empty_like(v_dir)
        grad_norm = None
        for j in range(n):
            column = scale * v[j]
            column += depth * normal[j]
            column -= x[j]
            column *= 2.0
            column /= r_sq[j]
            grad[..., j] = column
            column *= column
            if grad_norm is None:
                grad_norm = column
            else:
                grad_norm += column
        np.sqrt(grad_norm, out=grad_norm)
        secant = grad_norm / np.abs(grad @ normal)
        values = np.where(
            in_support, radius ** (-(n - 1)) * level**-beta * secant, 0.0
        )
        values *= prefactor
        return (
            np.mean(values, axis=1),
            np.std(values, axis=1, ddof=1) / math.sqrt(m),
            np.count_nonzero(in_support, axis=1),
            np.max(np.abs(s_scaled), axis=1),
        )

    blocks = ordered_map(run_block, -(-L // block))
    terms, std_errors, survivors, normal_extent = (np.concatenate(col) for col in zip(*blocks))

    return ShellSeries(
        terms=terms,
        std_errors=std_errors,
        survivors=survivors,
        low_confidence=survivors < max(4, m // 16),
        normal_extent=normal_extent,
        surface_measure=surface_measure,
        m=m,
    )


def dyadic_block_slope(partial_sums: Sequence[float], blocks: int = 3) -> ScalingFit:
    """Growth exponent of a partial-sum sequence from its top dyadic blocks.

    ``partial_sums[k-1]`` is ``S_k``.  With ``J = floor(log2(len))``, the
    blocks are ``B_j = S_(2**j) - S_(2**(j-1))`` for the top ``blocks``
    values ``j = J-blocks+1 .. J``, and the fit is of ``log B_j`` against
    ``log 2**j``.  If ``S_L = a*L**b + c + O(L**(b-1))`` then

        B_j = a*(1 - 2**-b) * 2**(j*b) * (1 + O(2**-j)),

    so the offset ``c`` cancels exactly and the slope is ``b``.  A fit of
    ``log S_L`` itself sees the local slope ``b*a*L**b / (a*L**b + c)``
    instead, which approaches ``b`` only like ``L**-b``: for the shell series
    (``b = 1/4``, ``c < 0``) it still reads about 0.30 at ``L = 2**12``.
    """
    sums = np.asarray(partial_sums, dtype=float)
    if sums.ndim != 1:
        raise ValueError("partial sums must be a 1-d sequence")
    if blocks < 3:
        raise ValueError(f"dyadic block slope needs blocks >= 3, got {blocks}")
    if sums.shape[0] < 2**blocks:
        raise ValueError(
            f"dyadic block slope with {blocks} blocks needs at least "
            f"{2**blocks} partial sums, got {sums.shape[0]}"
        )
    top = sums.shape[0].bit_length() - 1
    exponents = range(top - blocks + 1, top + 1)
    sizes = [2.0**j for j in exponents]
    block_sums = [float(sums[2**j - 1] - sums[2 ** (j - 1) - 1]) for j in exponents]
    for j, value in zip(exponents, block_sums):
        if not value > 0.0:
            raise ValueError(
                f"dyadic block S_{2**j} - S_{2**(j - 1)} is not positive: {value!r}"
            )
    return fit_power_law(sizes, block_sums)
