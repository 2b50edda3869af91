"""The public surface: every exported name resolves, retired API stays gone,
and no module reaches into another module's private names."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

import homoeoid
from homoeoid import cli, fibres, geometry, identities, knapp, maximal, mc, multiplicity, volumes

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
        (geometry, "AxisFrame"),
        (geometry, "_resolve_cut"),
        (geometry, "RefinedAnnulusSpec"),
        (geometry, "_spec_parts"),
        (homoeoid, "RefinedAnnulusSpec"),
        (maximal.Field, "from_callable"),
        (knapp.CounterexampleField, "field"),
        (maximal, "lp_norm"),
        (identities.IdentityReport, "passed"),
        (multiplicity.MultiplicityScan, "drift"),
        (knapp, "_check_opening"),
        (cli, "_typed_override"),
    ],
)
def test_retired_functions_are_gone(owner, name):
    assert not hasattr(owner, name)
    assert name not in getattr(owner, "__all__", ())


@pytest.mark.parametrize(
    "fn, knobs",
    [
        (mc.mc_mean, ["chunk"]),
        (fibres.trace_fibre, ["newton_tol", "max_newton", "max_steps", "near"]),
        (fibres.FibreTrace, ["closed", "step"]),
        (knapp.shell_partial_sums, ["min_survivors", "C"]),
        (maximal.discretised_maximal, ["axis"]),
        (maximal.l2_growth_scan, ["net_policy"]),
        (maximal.bump_mixture_family, ["centre_box", "scale_range"]),
        (maximal.RadiiNet.for_delta, ["cut"]),
        (multiplicity.generate_family, ["cut"]),
        (volumes.volume_bound_scan, ["cut"]),
        (volumes.banded_intersection_scan, ["cut", "dtilde"]),
        (volumes.low_jacobian_cluster, ["cut", "dtilde", "scale_factor", "max_keep"]),
        (identities.contact_jacobian_check, ["r_samples", "fd_step"]),
        (identities.nondeg_bounds_scan, ["axis", "cbar", "max_attempts_factor"]),
        (geometry.refinement_indicator, ["cut"]),
        (geometry.shell_membership, ["cut"]),
        (geometry.covering_margin, ["cut"]),
        (geometry.restricted_radii_box, ["cut"]),
        (geometry.AnnulusSpec, ["cut"]),
        (geometry.TangencyConfig, ["frame"]),
        (geometry.affine_map, ["inverse"]),
        (multiplicity.EllipsoidFamily, ["cut"]),
        (multiplicity.refined_shell_volume, ["cut"]),
        (knapp.dyadic_block_slope, ["blocks"]),
        (multiplicity.multiplicity_scan, ["count_rule"]),
        (cli._exp_fibre, ["rho"]),
        (cli._exp_volume_bound, ["axis"]),
        (cli._exp_bands, ["axis", "t_lo", "t_hi"]),
        (cli._exp_multiplicity, ["axis"]),
        (cli._exp_explore_unrefined, ["axis"]),
        (cli.RunResult, ["experiment"]),
        (maximal.Field, ["evaluator"]),
        (knapp.CounterexampleField, ["C"]),
        (knapp.g_lp_norm, ["quad_points", "C"]),
        (knapp.sample_tangency_set, ["rho"]),
        (knapp.knapp_exponent, ["rho"]),
        (identities.identity_suite, ["axis"]),
        (cli._exp_clusters, ["delta"]),
        (cli._exp_l2_growth, ["components"]),
        (cli._exp_knapp_exponent, ["rho"]),
        (cli._exp_divergence, ["C"]),
        (cli._exp_glpnorm, ["samples", "C"]),
    ],
)
def test_retired_keywords_are_gone(fn, knobs):
    params = inspect.signature(fn).parameters
    assert not [k for k in knobs if k in params]


# Private names that modules share on purpose: the validation helpers, and the
# exact-arithmetic cores that the identity suite runs in both arithmetics.
SHARED_PRIVATE = {
    "_check_axis",
    "_shell_width",
    "_width_grid",
    "_HitZone",
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


def cut_options(source):
    """The function parameters and class fields named ``cut`` in a module's
    source: the refinement cut is ``default_refinement_cut(n)``, never an
    option."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            params = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
            name = getattr(node, "name", "<lambda>")
            found += [f"{name}({a.arg})" for a in params if a is not None and a.arg == "cut"]
        elif isinstance(node, ast.ClassDef):
            for stmt in node.body:
                if isinstance(stmt, ast.AnnAssign) and getattr(stmt.target, "id", None) == "cut":
                    found.append(f"{node.name}.cut")
    return found


@pytest.mark.parametrize(
    "path", sorted(Path(homoeoid.__file__).parent.glob("*.py")), ids=lambda path: path.stem
)
def test_no_cut_option(path):
    assert cut_options(path.read_text()) == []


def test_cut_option_check_sees_each_form():
    source = "\n".join(
        [
            "def f(x, cut=None): pass",
            "def g(x, *, cut): pass",
            "h = lambda cut: cut",
            "class Spec:",
            "    axis: int",
            "    cut: float = 0.1",
            "def k(x):",
            "    cut = 2.0",
            "    return cut",
        ]
    )
    assert sorted(cut_options(source)) == ["<lambda>(cut)", "Spec.cut", "f(cut)", "g(cut)"]


# the RunConfig fields that an experiment takes only as the keywords it declares
CONFIG_INPUTS = {"deltas", "samples", "p"}


def config_input_reads(source):
    """The ``config.deltas``, ``config.samples`` and ``config.p`` reads inside
    a module's ``_exp_*`` functions, nested functions included."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_exp_"):
            for inner in ast.walk(node):
                if (
                    isinstance(inner, ast.Attribute)
                    and isinstance(inner.value, ast.Name)
                    and inner.value.id == "config"
                    and inner.attr in CONFIG_INPUTS
                ):
                    found.append(f"{node.name}(config.{inner.attr})")
    return found


@pytest.mark.parametrize("name", sorted(cli.EXPERIMENTS))
def test_every_override_is_a_count(name):
    # an experiment's other keywords are overrides, and each is a repetition
    # count: a model constant is fixed where it is read, not an option
    defaults = cli.EXPERIMENTS[name].__kwdefaults__ or {}
    floats = {k: v for k, v in defaults.items() if k not in CONFIG_INPUTS and type(v) is not int}
    assert floats == {}


def test_no_experiment_reads_its_inputs_off_the_config():
    assert config_input_reads(Path(cli.__file__).read_text()) == []


def test_config_input_check_sees_each_form():
    source = "\n".join(
        [
            "def _exp_a(config, *, samples=1):",
            "    return config.samples + config.n",
            "def _exp_b(config):",
            "    return (lambda: config.p)(), [d for d in config.deltas]",
            "def helper(config):",
            "    return config.samples",
        ]
    )
    assert config_input_reads(source) == [
        "_exp_a(config.samples)", "_exp_b(config.p)", "_exp_b(config.deltas)"
    ]
