"""Monte-Carlo lab for thin ellipsoidal shells and their tangency geometry.

The package studies delta-thick shells around axis-aligned ellipsoids whose
semi-axes live in a thin "restricted" box above one: how pairs of shells
intersect, where the contact map between them degenerates, how refined
sub-shells cover the full shell, and what all of this implies for maximal
averages over shell families.  Modules:

``geometry``
    Shell/annulus primitives, the refinement sector, membership tests, and
    the tangency functional (Gram norm of the two defining gradients).
``mc``
    Keyed deterministic random streams, chunk-ordered Monte-Carlo estimates
    with standard errors, and power-law fitting.
``identities``
    Closed-form linear-algebra identities (float + exact rational modes)
    verified against independent oracles.
``volumes``
    Shell sampling, pairwise intersection volumes against the
    ``log(1/delta) * delta**2 / (delta + t)`` envelope, coarea band
    decompositions, low-Jacobian clustering, and seeded tangency ensembles.
``fibres``
    Predictor-corrector tracing of the intersection curve of two quadric
    level sets in R^3, with arc-length calibration.
``multiplicity``
    Overlap multiplicity of delta-separated shell families along an axis
    line: L^2 norms of indicator sums and their growth constants.
``knapp``
    Slab scaling exponents across the critical integrability index and the
    divergent shell series of the counterexample profile.
``maximal``
    Discretised maximal averages over restricted radii nets, refined-piece
    domination, and L^2 growth scans.
``cli``
    Seeded experiments with reproducible CSV/JSON artifacts (console script
    ``homoeoid``).
"""

__version__ = "0.1.0"

from homoeoid import (
    fibres,
    geometry,
    identities,
    knapp,
    maximal,
    mc,
    multiplicity,
    volumes,
)
from homoeoid.geometry import AnnulusSpec, Ellipsoid
from homoeoid.mc import MCEstimate, derive_stream, fit_power_law, mc_mean, rng_stream

__all__ = [
    "cli",
    "fibres",
    "geometry",
    "identities",
    "knapp",
    "maximal",
    "mc",
    "multiplicity",
    "volumes",
    "AnnulusSpec",
    "Ellipsoid",
    "MCEstimate",
    "derive_stream",
    "fit_power_law",
    "mc_mean",
    "rng_stream",
]


def __getattr__(name: str):
    # ``cli`` loads on first access, so ``python -m homoeoid.cli`` does not
    # find it already imported by the package (runpy warns when it does).
    if name == "cli":
        import importlib

        return importlib.import_module("homoeoid.cli")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
