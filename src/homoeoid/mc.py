"""Deterministic Monte-Carlo plumbing: keyed streams, chunked estimates, fits.

Reproducibility contract
------------------------
Every random draw in the package comes from a counter-based generator keyed
by ``(seed, stream)``.  Estimators split work into independent units (chunks
of one estimate, batches of one sampler, cells of one scan, blocks of shells
of one series), derive their sub-streams from the unit's own keys, and reduce
the units' results in index order (for shell blocks, shell order).  The
resulting numbers are therefore bit-identical whatever the worker count —
``HOMOEOID_THREADS`` only changes how many independent units
:func:`ordered_map` evaluates concurrently, never which generator produces
which sample.  :func:`mc_mean`, the chunked estimator, cuts every estimate
into chunks of ``DEFAULT_CHUNK`` draws and returns a tuple with one
:class:`MCEstimate` per column of the sampled statistic.

Stream ids for geometric contexts (points, radii, shell indices, …) are
derived from the IEEE-754 bit patterns of the defining floats through a
splitmix64-style mixer; Python's salted ``hash`` is never used.  The one loop
over many streams (:func:`homoeoid.volumes.keyed_shell_points`) re-keys one
generator with :func:`stream_rekeyer`, drawing what fresh generators draw.

Array layout
------------
The package's hot kernels run their arithmetic one coordinate at a time, on
contiguous ``(m,)`` (or ``(k, m)``) columns, instead of broadcasting or
reducing over a trailing axis of length ``n``, which numpy does several
times slower.  Per-coordinate terms are added in coordinate order: that is
the order ``np.sum`` and ``np.linalg.norm`` use over a trailing axis shorter
than 8, so for ``n < 8`` the columns give the trailing-axis formulas' bits.
Matrix products (``@``) stay single BLAS calls on the row-major arrays they
always had: a per-coordinate dot product rounds differently from BLAS and
would move bits.
"""

from __future__ import annotations

import dataclasses
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence, TypeVar

import numpy as np

Array = np.ndarray
T = TypeVar("T")

__all__ = [
    "DEFAULT_CHUNK",
    "MCEstimate",
    "ScalingFit",
    "derive_stream",
    "fit_power_law",
    "mc_mean",
    "ordered_map",
    "rng_stream",
    "stream_rekeyer",
    "stream_word",
    "worker_count",
]

DEFAULT_CHUNK = 1 << 16
_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(z: int) -> int:
    """splitmix64 finaliser: bijective avalanche mixer on 64-bit words."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def stream_word(part) -> int:
    """The 64-bit word one part of a stream context contributes.

    A word is an int, and an int's word is itself, so
    ``derive_stream(tag, i, stream_word(x))`` equals ``derive_stream(tag, i,
    x)``: a loop over ids that share an array part can hash it once.
    """
    if isinstance(part, (bool, np.bool_)):
        return int(part)
    if isinstance(part, (int, np.integer)):
        return int(part) & _MASK64
    if isinstance(part, (float, np.floating)):
        # IEEE-754 bit pattern: platform-stable, unlike hash(float)
        return int(np.float64(part).view(np.uint64))
    if isinstance(part, str):
        word = 1469598103934665603  # FNV-1a offset basis
        for b in part.encode("utf-8"):
            word = ((word ^ b) * 1099511628211) & _MASK64
        return word
    if isinstance(part, np.ndarray):
        word = 0
        for bits in np.asarray(part, np.float64).ravel().view(np.uint64).tolist():
            word = _mix64(word ^ bits ^ _GOLDEN)
        return word
    if isinstance(part, (tuple, list)):
        word = 0
        for p in part:
            word = _mix64(word ^ stream_word(p) ^ _GOLDEN)
        return word
    raise TypeError(f"cannot derive a stream id from {type(part).__name__}")


def derive_stream(*parts) -> int:
    """Collapse a context (ints, floats, strings, arrays) into a stream id.

    Deterministic across processes and platforms.  Distinct contexts should
    include a distinguishing leading tag (usually a short string) so that
    independently sampled quantities never share a stream by accident.
    """
    word = 0x8BADF00D
    for part in parts:
        word = _mix64(word ^ stream_word(part) ^ _GOLDEN)
    return word


def rng_stream(seed: int, stream: int = 0) -> np.random.Generator:
    """Generator for the (seed, stream) pair, via a keyed counter-based RNG."""
    key = np.array([int(seed) & _MASK64, int(stream) & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def stream_rekeyer(seed: int) -> Callable[[int], np.random.Generator]:
    """``rekey(stream)``: one generator, re-keyed to ``(seed, stream)`` per call.

    Each call resets the Philox state of the same generator to that of a
    fresh ``rng_stream(seed, stream)`` (key ``(seed, stream)``, counter
    zero, buffer empty) and returns it, so it draws what ``rng_stream``
    would.  That costs a fraction of building a bit generator, which first
    seeds a ``SeedSequence`` from OS entropy.  A call invalidates what the
    previous call returned, so a re-keyer belongs to one caller on one thread.
    """
    gen = rng_stream(seed)
    bits = gen.bit_generator
    word = int(seed) & _MASK64

    def rekey(stream: int) -> np.random.Generator:
        bits.state = {
            "bit_generator": "Philox",
            "state": {
                "counter": np.zeros(4, dtype=np.uint64),
                "key": np.array([word, int(stream) & _MASK64], dtype=np.uint64),
            },
            "buffer": np.zeros(4, dtype=np.uint64),
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        return gen

    return rekey


def worker_count() -> int:
    """Worker cap from ``HOMOEOID_THREADS``; ``1`` is serial.

    Unset (or empty), it is the number of CPUs this process may run on.  A
    value that is not a positive integer raises ``ValueError`` naming the
    variable.
    """
    raw = os.environ.get("HOMOEOID_THREADS", "").strip()
    if not raw:
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value < 1:
        raise ValueError(f"HOMOEOID_THREADS must be a positive integer, got {raw!r}")
    return value


_worker = threading.local()


def _mark_worker() -> None:
    _worker.active = True


def ordered_map(fn: Callable[[int], T], count: int) -> list[T]:
    """``[fn(0), ..., fn(count - 1)]`` over up to ``worker_count()`` threads.

    Units must be independent; results come back in index order, so a caller
    that reduces them in that order gets the same bits at any worker count.
    With one worker (or one unit) this is a plain loop.  A call made from
    inside a worker thread also runs serially, so nested fan-outs never
    oversubscribe.  An exception raised by a unit reaches the caller.
    """
    workers = min(worker_count(), count)
    if workers <= 1 or getattr(_worker, "active", False):
        return [fn(i) for i in range(count)]
    with ThreadPoolExecutor(max_workers=workers, initializer=_mark_worker) as pool:
        return list(pool.map(fn, range(count)))


@dataclasses.dataclass(frozen=True)
class MCEstimate:
    """A Monte-Carlo estimate with its standard error.

    ``std_error`` is the sample standard deviation divided by ``sqrt(n)``;
    ``inf`` when fewer than two samples contributed.
    """

    value: float
    std_error: float
    n_samples: int
    seed: int


@dataclasses.dataclass(frozen=True)
class ScalingFit:
    """Least-squares power-law fit in log-log coordinates.

    ``points`` holds the fitted ``(log-abscissa, log-ordinate)`` pairs;
    ``max_abs_residual`` is in the log-ordinate.
    """

    slope: float
    intercept: float
    max_abs_residual: float
    points: tuple[tuple[float, float], ...]


def fit_power_law(x: Sequence[float], y: Sequence[float]) -> ScalingFit:
    """OLS fit of ``log y = slope * log x + intercept``.

    Requires at least three strictly positive, finite points.  All supplied
    points participate in the fit — callers choose the window, the fit never
    discards data.
    """
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    if xa.shape != ya.shape or xa.ndim != 1:
        raise ValueError("x and y must be 1-d sequences of equal length")
    if xa.shape[0] < 3:
        raise ValueError(f"power-law fit needs >= 3 points, got {xa.shape[0]}")
    if not (np.all(np.isfinite(xa)) and np.all(np.isfinite(ya))):
        raise ValueError("power-law fit needs finite data")
    if np.any(xa <= 0) or np.any(ya <= 0):
        raise ValueError("power-law fit needs strictly positive data")
    lx, ly = np.log(xa), np.log(ya)
    design = np.stack([lx, np.ones_like(lx)], axis=1)
    (slope, intercept), *_ = np.linalg.lstsq(design, ly, rcond=None)
    resid = ly - (slope * lx + intercept)
    return ScalingFit(
        slope=float(slope),
        intercept=float(intercept),
        max_abs_residual=float(np.max(np.abs(resid))),
        points=tuple((float(a), float(b)) for a, b in zip(lx, ly)),
    )


def mc_mean(
    sample_fn: Callable[[np.random.Generator, int], Array],
    n_samples: int,
    *,
    seed: int,
    stream: int = 0,
) -> tuple[MCEstimate, ...]:
    """Chunked mean of ``sample_fn(rng, m)`` over ``n_samples`` draws.

    ``sample_fn`` must return one value per sample: shape ``(m,)`` for one
    statistic or ``(m, k)`` for ``k`` statistics evaluated on a shared batch.
    The result is a tuple with one estimate per column (a 1-tuple for an
    ``(m,)`` output); the columns' samples are *identical*, which is what
    makes partition checks exact.

    Chunking is deterministic: chunk ``c`` of ``DEFAULT_CHUNK`` draws always
    sees the generator ``rng_stream(seed, derive_stream("chunk", stream,
    c))``, and partial results are reduced in chunk order, so the result is
    independent of the worker count :func:`ordered_map` uses to evaluate
    chunks.  Each chunk returns its sum and its sum of squared deviations
    about the chunk mean (M2); the chunks' M2 are merged with the pairwise
    update of Chan, Golub and LeVeque (1979), so a large common offset in the
    values does not cancel the variance away.
    """
    if n_samples <= 0:
        raise ValueError("n_samples must be positive")
    step = DEFAULT_CHUNK
    bounds = [(lo, min(lo + step, n_samples)) for lo in range(0, n_samples, step)]

    def run_chunk(idx: int) -> tuple[Array, Array, int]:
        lo, hi = bounds[idx]
        rng = rng_stream(seed, derive_stream("chunk", stream, idx))
        values = np.asarray(sample_fn(rng, hi - lo), dtype=float)
        if values.shape[0] != hi - lo:
            raise ValueError("sample_fn returned a batch of the wrong length")
        chunk_sum = np.sum(values, axis=0)
        dev = values - chunk_sum / (hi - lo)
        dev *= dev
        return chunk_sum, np.sum(dev, axis=0), hi - lo

    partials = ordered_map(run_chunk, len(bounds))
    total = partials[0][0] * 0.0
    m2 = partials[0][1] * 0.0
    count = 0
    for s, chunk_m2, k in partials:  # fixed order: bit-identical for any worker count
        if count:
            gap = s / k - total / count
            chunk_m2 = chunk_m2 + gap * gap * (count * k / (count + k))
        m2 = m2 + chunk_m2
        total = total + s
        count += k

    def finish(s: float, sq_dev: float) -> MCEstimate:
        mean = s / n_samples
        if n_samples < 2:
            return MCEstimate(float(mean), math.inf, n_samples, seed)
        std_error = math.sqrt(sq_dev / (n_samples - 1) / n_samples)
        return MCEstimate(float(mean), std_error, n_samples, seed)

    return tuple(
        finish(float(s), float(v)) for s, v in zip(np.atleast_1d(total), np.atleast_1d(m2))
    )
