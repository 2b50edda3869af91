"""The public surface: every exported name resolves, retired API stays gone,
and no module reaches into another module's private names."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

import homoeoid
from homoeoid import fibres, identities, knapp, maximal, mc, multiplicity, volumes

MODULES = ["cli", "fibres", "geometry", "identities", "knapp", "maximal", "mc", "multiplicity", "volumes"]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"homoeoid.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing
    assert len(set(module.__all__)) == len(module.__all__)


def test_package_exports_resolve():
    assert all(hasattr(homoeoid, attr) for attr in homoeoid.__all__)


@pytest.mark.parametrize(
    "owner, name",
    [
        (identities.IdentityReport, "merged_with"),
        (identities, "circulant_det_check"),
        (knapp, "knapp_slab"),
        (knapp, "counterexample_field"),
        (fibres, "fibre_length_in_ball"),
        (multiplicity, "neighbour_counts"),
        (volumes, "sample_annulus"),
        (mc.MCEstimate, "interval"),
        (mc.MCEstimate, "consistent_with"),
    ],
)
def test_retired_functions_are_gone(owner, name):
    assert not hasattr(owner, name)
    assert name not in getattr(owner, "__all__", ())


@pytest.mark.parametrize(
    "fn, knobs",
    [
        (mc.mc_mean, ["chunk"]),
        (fibres.trace_fibre, ["newton_tol", "max_newton", "max_steps"]),
        (knapp.shell_partial_sums, ["min_survivors"]),
        (maximal.discretised_maximal, ["axis"]),
        (maximal.l2_growth_scan, ["net_policy"]),
        (maximal.bump_mixture_family, ["centre_box", "scale_range"]),
        (maximal.RadiiNet.for_delta, ["cut"]),
        (multiplicity.generate_family, ["cut"]),
        (volumes.volume_bound_scan, ["cut"]),
        (volumes.banded_intersection_scan, ["cut", "dtilde"]),
        (volumes.low_jacobian_cluster, ["cut", "dtilde", "scale_factor"]),
        (identities.contact_jacobian_check, ["r_samples", "fd_step"]),
        (identities.nondeg_bounds_scan, ["axis"]),
    ],
)
def test_retired_keywords_are_gone(fn, knobs):
    params = inspect.signature(fn).parameters
    assert not [k for k in knobs if k in params]


# Private names that modules share on purpose: the validation helpers, and the
# exact-arithmetic cores that the identity suite runs in both arithmetics.
SHARED_PRIVATE = {
    "_shell_width",
    "_resolve_cut",
    "_width_grid",
    "_spec_parts",
    "_minor_core",
    "_axis_minors_core",
    "_system_jacobian_core",
}


def _private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def foreign_private_names(source):
    """The underscore names a module's source imports from, or reads off,
    another homoeoid module."""
    tree = ast.parse(source)
    modules, found = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("homoeoid")):
            package = node.module in (None, "homoeoid")  # from . import geometry as geo
            for alias in node.names:
                if package:
                    modules.add(alias.asname or alias.name)
                elif _private(alias.name):
                    found.add(alias.name)
        elif isinstance(node, ast.Import):  # import homoeoid.geometry as geo
            modules.update(a.asname for a in node.names if a.name.startswith("homoeoid."))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in modules and _private(node.attr):
                found.add(node.attr)
    return found


@pytest.mark.parametrize(
    "path", sorted(Path(homoeoid.__file__).parent.glob("*.py")), ids=lambda path: path.stem
)
def test_private_names_stay_in_their_module(path):
    assert foreign_private_names(path.read_text()) - SHARED_PRIVATE == set()


def test_private_name_check_sees_each_import_form():
    source = "\n".join(
        [
            "from . import geometry as geo",
            "import homoeoid.mc as mc",
            "from .volumes import _normalise, shell_volume",
            "geo._kernel, mc._mix64, geo.__name__",
        ]
    )
    assert foreign_private_names(source) == {"_normalise", "_kernel", "_mix64"}
