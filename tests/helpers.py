"""Shared numerical oracles for the test suite.

These are intentionally written from first principles (finite differences,
grid quadrature) so they constitute independent routes to the quantities the
package computes analytically or by Monte-Carlo.
"""

from __future__ import annotations

import numpy as np

from homoeoid import geometry as geo
from homoeoid import volumes as vol
from homoeoid.mc import derive_stream, mc_mean, rng_stream


def fd_jacobian(fn, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central-difference Jacobian of ``fn`` at ``x`` (columns = directions)."""
    x = np.asarray(x, dtype=float)
    f0 = np.atleast_1d(np.asarray(fn(x), dtype=float))
    jac = np.empty((f0.shape[0], x.shape[0]))
    for j in range(x.shape[0]):
        step = np.zeros_like(x)
        step[j] = h
        jac[:, j] = (np.atleast_1d(fn(x + step)) - np.atleast_1d(fn(x - step))) / (2.0 * h)
    return jac


def fd_jacobian_richardson(fn, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Richardson-extrapolated central differences: O(h^4) accurate."""
    coarse = fd_jacobian(fn, x, h)
    fine = fd_jacobian(fn, x, h / 2.0)
    return (4.0 * fine - coarse) / 3.0


def grid_area_2d(indicator, lo, hi, cells: int = 4096) -> float:
    """Midpoint-rule area of ``{indicator == True}`` over a 2-d box."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    xs = lo[0] + (np.arange(cells) + 0.5) * (hi[0] - lo[0]) / cells
    ys = lo[1] + (np.arange(cells) + 0.5) * (hi[1] - lo[1]) / cells
    cell_area = (hi[0] - lo[0]) * (hi[1] - lo[1]) / (cells * cells)
    total = 0
    # row-by-row to keep memory flat at large resolutions
    for x in xs:
        pts = np.stack([np.full(cells, x), ys], axis=1)
        total += int(np.count_nonzero(indicator(pts)))
    return total * cell_area


def brute_intersection_volume(spec_a, spec_b, m: int, seed: int, stream: int = 0):
    """``(estimate, hits)`` of ``intersection_volume`` by drawing all ``m``
    points of ``spec_a``'s plain shell and scoring each: the route the hit
    zone replaces, on the same chunk streams.  ``hits`` holds the accepted
    reference points, chunk by chunk in completion order."""
    ell = spec_a.ellipsoid
    v_base = vol.shell_volume(ell.radii, spec_a.delta)
    sampler = vol.reference_shell_sampler(spec_a.delta, spec_a.n)
    hits = []

    def values(rng: np.random.Generator, k: int) -> np.ndarray:
        omega = sampler(rng, k)
        hit = np.ones(k, dtype=bool)
        if spec_a.axis is not None:
            hit &= geo.refinement_indicator(omega, spec_a.axis)
        hit &= geo.annulus_contains(spec_b, geo.affine_map(ell.centre, ell.radii, omega))
        hits.append(omega[hit])
        return v_base * hit

    (est,) = mc_mean(values, m, seed=seed, stream=derive_stream("ivol", stream))
    return est, np.concatenate(hits)


def per_radius_net_sups(f, xs, delta, net, m, seed, stream, axes=()):
    """``maximal.discretised_maximal`` with ``f`` called once per net radius,
    on a ``(len(xs), m, n)`` view of one coordinate-major buffer refilled for
    each radius: the loop the blocks of net radii replace."""
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    n = xs.shape[1]
    shell = rng_stream(seed, derive_stream("scan-shell", delta, stream))
    omega = vol.reference_shell_sampler(delta, n)(shell, m)
    masks = [geo.refinement_indicator(omega, axis) for axis in axes]
    best = np.full((1 + len(masks), xs.shape[0]), -np.inf)
    buffer = np.empty((n, xs.shape[0], m))
    points = buffer.transpose(1, 2, 0)
    columns = [omega[:, j].copy() for j in range(n)]
    for r in net.points:
        for j in range(n):
            np.add(columns[j] * r[j], xs[:, j, None], out=buffer[j])
        values = np.abs(f(points))
        np.maximum(best[0], np.mean(values, axis=1), out=best[0])
        for row, mask in enumerate(masks, 1):
            np.maximum(best[row], np.mean(values * mask, axis=1), out=best[row])
    return best


def last_counted(accepts, inside, outside, rounds=80):
    """Bisect each ``(inside, outside)`` parameter pair to the last value
    ``accepts`` still takes, to within the spacing of the floats there."""
    inside, outside = np.array(inside, dtype=float), np.array(outside, dtype=float)
    assert accepts(inside).all() and not accepts(outside).any()
    for _ in range(rounds):
        middle = 0.5 * (inside + outside)
        ok = accepts(middle)
        inside = np.where(ok, middle, inside)
        outside = np.where(ok, outside, middle)
    return inside
