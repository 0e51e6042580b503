"""No hot-path function reads a member off an Enum class.

On CPython 3.11 a member read such as FaceKind.FLAT costs about ten
times a module-level name, and the optimizer step, the sweeps and the
bridge run these functions for every point. Each enum is resolved once,
where it enters, into a module-level name (model._FLAT), a kernel or a
bool. The bytecode of each function, nested code included, is scanned
for a global load of an Enum class followed by an attribute read.
"""

import dis
import enum
import types

import pytest

from curvedcomb import FaceKind, capacitance, model, sweep, transduction

HOT_PATHS = [
    (capacitance, "_flat"),
    (capacitance, "_convex"),
    (capacitance, "_concave"),
    (capacitance, "_resolve_face"),
    (capacitance, "_resolve_at_arc"),
    (capacitance, "_resolve_flat"),
    (capacitance, "_out_of_domain"),
    (model, "displacement"),
    (model, "side_nominal_gaps"),
    (model, "_bowed_gap"),
    (model, "side_gap_bounds"),
    (model, "_concave_gaps"),
    (model, "_check_profile"),
    (transduction, "_cell"),
    (transduction, "_face"),
    (transduction, "_rest_feedback"),
    (transduction, "_evaluate"),
    (transduction, "_displacement_interval"),
    (transduction, "_check_range"),
    (transduction, "_over_range"),
    (transduction, "_point"),
    (transduction, "_gain"),
    (transduction, "_readout"),
    (transduction, "_sensitivity"),
    (transduction, "bridge_at_side_nominals"),
    (transduction, "gain_at_side_nominals"),
    (transduction, "sensitivity_at_side_nominals"),
    (transduction, "fd_sensitivity"),
    (transduction, "_fd_stencil"),  # its gain included
    (sweep, "_linspace"),
    (sweep, "_ordered_variants"),
    (sweep, "_kinds_of"),
    (sweep, "_arc_shape"),
    (sweep, "_profile_at"),
    (sweep, "_rest_faces"),
    (sweep, "_skip_reason"),
    (sweep, "_row_builder"),
    (sweep, "_rest_sweep"),  # the sweep's and compare's arc and variant loops
    (sweep, "_rest_points"),  # the fd column of sensitivity-sweep --verify
    (sweep, "gain_curve"),  # the curve's variant and acceleration loops
    (sweep, "_least_squares_slope"),
    (sweep, "_sensitivity_at_arc"),
]


def _codes(code: types.CodeType):
    yield code
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from _codes(const)


def enum_member_reads(func) -> list[str]:
    """Each 'EnumClass.attr' that func reads through a global name, also
    along an attribute chain such as model.FaceKind.FLAT."""
    reads = []
    for code in _codes(func.__code__):
        chain, obj = [], None
        for ins in dis.get_instructions(code):
            if ins.opname == "LOAD_GLOBAL":
                chain, obj = [ins.argval], func.__globals__.get(ins.argval)
            elif ins.opname in ("LOAD_ATTR", "LOAD_METHOD") and chain:
                chain.append(ins.argval)
                if isinstance(obj, enum.EnumMeta):
                    reads.append(".".join(chain))
                    chain = []
                else:
                    obj = getattr(obj, ins.argval, None)
            else:
                chain = []
    return reads


def _reads_members(kind):
    return [k for k in (kind,) if k is FaceKind.CONVEX or k is model.GapAnchor.APEX]


@pytest.mark.parametrize(
    "module, name", HOT_PATHS, ids=[f"{m.__name__.split('.')[-1]}.{n}" for m, n in HOT_PATHS]
)
def test_hot_path_reads_no_enum_member(module, name):
    assert enum_member_reads(getattr(module, name)) == []


def test_the_scan_sees_a_member_read():
    assert enum_member_reads(_reads_members) == ["FaceKind.CONVEX", "model.GapAnchor.APEX"]
