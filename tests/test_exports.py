"""Every name in an export list resolves, and only once: a name deleted
from a module but left in an __all__ fails here rather than at a
user's `from curvedcomb import *`. The package's public names are pinned,
and each is declared by the __all__ of exactly one submodule."""

import importlib
import pkgutil

import pytest

import curvedcomb

MODULES = ["curvedcomb"] + [
    f"curvedcomb.{info.name}" for info in pkgutil.iter_modules(curvedcomb.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_export_list_resolves_once(name):
    module = importlib.import_module(name)
    exported = list(getattr(module, "__all__", ()))
    assert [n for n in exported if not hasattr(module, n)] == []
    assert sorted({n for n in exported if exported.count(n) > 1}) == []


PUBLIC = [
    "ArcMode",
    "ArcProfile",
    "BridgeState",
    "CONCAVE_EDGE_MARGIN_REL",
    "DEFAULT_ARC_BOUNDS_M",
    "DriveModel",
    "ElectrodeConfig",
    "FDResult",
    "FaceKind",
    "FeedbackMode",
    "GapAnchor",
    "GapState",
    "GeometryDomainError",
    "MechanicalModel",
    "OverRangeError",
    "PlanarProfile",
    "QuadratureNonConvergence",
    "QuadratureResult",
    "STANDARD_GRAVITY",
    "SweepPlan",
    "SweepResult",
    "SweepRow",
    "TransductionPoint",
    "VACUUM_PERMITTIVITY",
    "ValidityReport",
    "Variant",
    "Violation",
    "allowed_displacement_interval",
    "bridge_at_side_nominals",
    "bridge_capacitances",
    "cap_concave",
    "cap_convex",
    "cap_planar",
    "dcap_dgap",
    "displacement",
    "face_capacitance",
    "fd_derivative",
    "fd_sensitivity",
    "gain",
    "gain_at_side_nominals",
    "gain_curve",
    "integrate_adaptive",
    "maximize_sensitivity",
    "net_sensitivity",
    "quad_capacitance",
    "sensitivity",
    "sensitivity_at_side_nominals",
    "sensitivity_sweep",
    "side_gap_bounds",
    "side_nominal_gaps",
    "validate_geometry",
]


def test_package_exports_the_pinned_public_names():
    assert sorted(curvedcomb.__all__) == PUBLIC


def test_star_import_binds_exactly_the_public_names():
    namespace: dict = {}
    exec("from curvedcomb import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == PUBLIC


def test_each_public_name_is_declared_by_one_submodule():
    declared = {m: getattr(importlib.import_module(m), "__all__", ()) for m in MODULES[1:]}
    owners = {name: [m for m, names in declared.items() if name in names] for name in PUBLIC}
    assert {name: mods for name, mods in owners.items() if len(mods) != 1} == {}
