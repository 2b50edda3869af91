"""The public surface: every exported name resolves, and retired API stays gone."""

import importlib
import inspect

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
