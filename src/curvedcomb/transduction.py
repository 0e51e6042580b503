"""Differential bridge readout: capacitances, voltage gain, sensitivity.

The movable plane sits between two fixed electrodes; displacement delta
narrows side 1 (capacitance C1 rises) and widens side 2. A charge
amplifier normalizes the imbalance to G = -(C2 - C1)/C_fb and the output
voltage is V_in * G. Sensitivity is the exact analytic dV_out/da, built
by the chain rule from the closed-form dC/dd of each face; a
finite-difference verification path over the gain is provided alongside
and the two are never merged.

Every operation here takes the closed-form gap of each side. Placement
conventions (model.GapAnchor) map a shared nominal gap to per-side
values, which the *_at_side_nominals forms accept directly; the plain
forms apply one gap to both sides.

Every evaluation reads one cell: the variant, the two side faces, each
resolved into its kind's (C, dC/dd) kernel, permittivity and gap
interval, and their two nominal gaps. Each public call, fd_sensitivity
included, builds its cell once, in one pass (_cell): each distinct face
kind is resolved once, with no type re-checked, as ElectrodeConfig has
checked the profiles and DriveModel the permittivity. A bool, non-number
or NaN gap, acceleration or displacement is refused by name with
ValueError. The plain forms, the bridge and the interval check up front.
_point, the one frame of the twins and fd_sensitivity, checks lazily, as
the oracle checks call it per point: a valid call pays one bool test,
and the numbers are diagnosed only once the travel check fails or the
arithmetic raises TypeError (an infinite acceleration stays over range).
Each displaced gap is tested once, by the travel check or by the
bridge's side-naming domain test; _evaluate then makes one kernel call
per side. Nominal feedback's rest C_fb is read off rest only, after that
test, and once per fd_sensitivity call, a symmetric pairing's one rest
face once: at rest C_fb = C1 + C2 under either mode. _gain and
_sensitivity (over _readout's constants) are the one G and S formula;
the sweeps call them from their face tables, and a curve's over-range
points take _over_range's message, as _check_range does.
"""

from __future__ import annotations

from typing import NamedTuple

from .capacitance import GeometryDomainError, _out_of_domain, _resolve_at_arc, _resolve_flat
from .model import (
    SIDE_KINDS,
    STANDARD_GRAVITY,
    VACUUM_PERMITTIVITY,
    DriveModel,
    ElectrodeConfig,
    GapState,
    MechanicalModel,
    _FLAT,
    _MATCHED_SUM,
    _require_in_envelope,
    _sagitta,
    displacement,
)
from .oracles import fd_derivative

__all__ = [
    "BridgeState",
    "TransductionPoint",
    "OverRangeError",
    "bridge_capacitances",
    "bridge_at_side_nominals",
    "gain",
    "gain_at_side_nominals",
    "sensitivity",
    "sensitivity_at_side_nominals",
    "net_sensitivity",
    "fd_sensitivity",
    "allowed_displacement_interval",
]


class BridgeState(NamedTuple):
    """The three capacitances of the readout bridge at one displacement."""

    c1_f: float  # side with gap d - delta
    c2_f: float  # side with gap d + delta
    c_fb_f: float  # feedback, per DriveModel mode


class TransductionPoint(NamedTuple):
    accel_m_s2: float
    displacement_m: float
    bridge: BridgeState
    gain: float  # G = V_out / V_in, dimensionless
    v_out_volts: float


class OverRangeError(ValueError):
    """The requested acceleration displaces the proof mass out of the
    valid gap range of at least one side."""

    def __init__(
        self,
        message: str,
        *,
        first_invalid_accel_m_s2: float,
        displacement_m: float,
    ):
        super().__init__(message)
        self.first_invalid_accel_m_s2 = first_invalid_accel_m_s2
        self.displacement_m = displacement_m


# (variant, resolved face of side 1, of side 2, nominal gap d1, d2)
_Cell = tuple
# (C1, dC1/dd, C2, dC2/dd, C_fb) of one bridge evaluation
_Evaluation = tuple[float, float, float, float, float]

_new = tuple.__new__  # what a NamedTuple's own __new__ calls, from a Python frame


def _cell(config: ElectrodeConfig, d1: float, d2: float, eps: float) -> _Cell:
    """The cell of one call, built in one pass: ElectrodeConfig has checked
    the profile types, so each distinct face kind is resolved once, with no
    re-check, the curved ones from one read of the arc and the flat one
    from planar_face. A symmetric pairing's two sides share one face."""
    k1, k2 = SIDE_KINDS[config.variant]
    flat = config.planar_face
    if k1 is _FLAT:  # Planar: side 1 is flat in no other pairing
        f1 = _resolve_flat(eps, flat.thickness_m, flat.length_m)
        return config.variant, f1, f1, d1, d2
    arc = config.profile
    r, phi, h = arc.radius_m, arc.angular_extent_rad, arc.thickness_m
    sag = _sagitta(r, phi)
    f1 = f2 = _resolve_at_arc(k1, r, phi, h, eps, sag)
    if k2 is _FLAT:
        f2 = _resolve_flat(eps, flat.thickness_m, flat.length_m)
    elif k2 is not k1:
        f2 = _resolve_at_arc(k2, r, phi, h, eps, sag)
    return config.variant, f1, f2, d1, d2


def _refuse_non_numbers(names: tuple, *values) -> None:
    """Raise ValueError naming the first of values that is a bool, not a
    real number or NaN, in _require_in_envelope's wording."""
    for name, value in zip(names, values):
        _require_in_envelope(name, value, "real")


def _face(face: tuple, side: int, gap_m: float) -> tuple[float, float]:
    if not face[1] < gap_m < face[2]:
        err = _out_of_domain(face, gap_m)
        raise GeometryDomainError(f"side {side}: {err}", kind=err.kind, gap_m=gap_m)
    return face[0](face, gap_m)


def _rest_feedback(cell: _Cell) -> float:
    # rest capacitance 2*C0, with C0 the mean of the two undisplaced sides
    _, f1, f2, d1, d2 = cell
    c1 = _face(f1, 1, d1)[0]
    return c1 + (c1 if f2 is f1 and d2 == d1 else _face(f2, 2, d2)[0])


def _evaluate(cell: _Cell, delta_m: float, c_fb: float | None) -> _Evaluation:
    """C1, dC1/dd, C2, dC2/dd and C_fb with side 1 at d1 - delta and side 2
    at d2 + delta, gaps the caller has tested; c_fb None is matched-sum
    feedback's C1 + C2."""
    _, f1, f2, d1, d2 = cell
    c1, dc1 = f1[0](f1, d1 - delta_m)
    c2, dc2 = f2[0](f2, d2 + delta_m)
    return c1, dc1, c2, dc2, c1 + c2 if c_fb is None else c_fb


def allowed_displacement_interval(
    config: ElectrodeConfig, d1: float, d2: float
) -> tuple[float, float]:
    """Open interval of displacements keeping both sides valid.

    d1 and d2 are the per-side closed-form nominal gaps; side 1 sees
    d1 - delta and side 2 sees d2 + delta.
    """
    _refuse_non_numbers(("d1", "d2"), d1, d2)
    # the gap intervals do not depend on the permittivity
    return _displacement_interval(_cell(config, d1, d2, VACUUM_PERMITTIVITY))


def _displacement_interval(cell: _Cell) -> tuple[float, float]:
    _, (_, lo1, hi1, *_), (_, lo2, hi2, *_), d1, d2 = cell
    return max(d1 - hi1, lo2 - d2), min(d1 - lo1, hi2 - d2)


def _check_range(cell: _Cell, mech: MechanicalModel, delta: float, accel: float) -> None:
    # test the displaced gaps the closed forms will see, so a passing check
    # always evaluates; the open intervals also reject a NaN displacement
    _, f1, f2, d1, d2 = cell
    if not (f1[1] < d1 - delta < f1[2] and f2[1] < d2 + delta < f2[2]):
        raise _over_range(cell, mech, delta, accel)


def _over_range(cell: _Cell, mech: MechanicalModel, delta: float, accel: float):
    """The OverRangeError of a displacement _check_range refuses."""
    lo, hi = _displacement_interval(cell)
    if not lo < hi:  # invalid at rest: no interval, every request is invalid
        return OverRangeError(
            f"no displacement keeps both sides of {cell[0].value} valid: the interval "
            f"({lo}, {hi}) m is empty; requested {accel} m/s^2",
            first_invalid_accel_m_s2=accel,
            displacement_m=delta,
        )
    # first invalid acceleration: the interval bound nearer the request (the
    # gap test can fail a displacement the interval still holds by an ulp)
    bound = hi if hi - delta <= delta - lo else lo
    first_bad = bound * mech.spring_n_per_m / mech.mass_kg
    return OverRangeError(
        f"displacement {delta} m leaves the valid interval ({lo}, {hi}) m for "
        f"{cell[0].value}; first invalid acceleration is "
        f"{first_bad} m/s^2 ({first_bad / STANDARD_GRAVITY} g), requested {accel} m/s^2",
        first_invalid_accel_m_s2=first_bad,
        displacement_m=delta,
    )


def bridge_at_side_nominals(
    config: ElectrodeConfig,
    d1: float,
    d2: float,
    delta_m: float,
    drive: DriveModel,
) -> BridgeState:
    """Bridge capacitances with independently placed sides."""
    _refuse_non_numbers(("d1", "d2", "delta_m"), d1, d2, delta_m)
    cell = _cell(config, d1, d2, drive.permittivity_f_per_m)
    c1, c2 = _face(cell[1], 1, d1 - delta_m)[0], _face(cell[2], 2, d2 + delta_m)[0]
    rest_fb = delta_m and drive.feedback_mode is not _MATCHED_SUM  # at rest: C1 + C2
    return _new(BridgeState, (c1, c2, _rest_feedback(cell) if rest_fb else c1 + c2))


def bridge_capacitances(
    config: ElectrodeConfig, gap: GapState, drive: DriveModel
) -> BridgeState:
    """C1, C2, C_fb at the given gap state (one nominal gap, both sides).

    Raises:
        GeometryDomainError: if either displaced gap leaves its face's
            domain; the message names the offending side.
    """
    return bridge_at_side_nominals(
        config, gap.gap_m, gap.gap_m, gap.displacement_m, drive
    )


def _point(config, d1, d2, mech, drive, accel) -> tuple[_Cell, float, float | None]:
    """_evaluate's arguments at one call's operating point: the cell, the
    displacement at accel, which the one travel check has passed, and off
    rest nominal feedback's rest C_fb, else None. d1, d2 and accel are
    refused if a bool, not a real number or NaN: on a TypeError from the
    arithmetic or a failed check, before it propagates, and for a bool,
    which the arithmetic takes as 0 or 1, by the one test a valid call pays."""
    cell = _cell(config, d1, d2, drive.permittivity_f_per_m)
    try:
        delta = displacement(mech, accel)
        _check_range(cell, mech, delta, accel)
    except (TypeError, OverRangeError):
        _refuse_non_numbers(("d1", "d2", "accel_m_s2"), d1, d2, accel)
        raise
    if type(d1) is bool or type(d2) is bool or type(accel) is bool:
        _refuse_non_numbers(("d1", "d2", "accel_m_s2"), d1, d2, accel)
    rest_fb = delta and drive.feedback_mode is not _MATCHED_SUM
    return cell, delta, _rest_feedback(cell) if rest_fb else None


def _gain(ev: _Evaluation) -> float:
    """G = -(C2 - C1)/C_fb of one evaluation."""
    c1, _, c2, _, c_fb = ev
    return -(c2 - c1) / c_fb


def _readout(mech: MechanicalModel, drive: DriveModel) -> tuple[float, bool]:
    """The constants _sensitivity reads: V_in*(m/k), and whether C_fb = C1 + C2."""
    v_m_per_k = drive.v_in_volts * (mech.mass_kg / mech.spring_n_per_m)
    return v_m_per_k, drive.feedback_mode is _MATCHED_SUM


def _sensitivity(ev: _Evaluation, v_m_per_k: float, matched_sum: bool) -> float:
    """dV_out/da in volts per g by the chain rule over one evaluation."""
    c1, dc1, c2, dc2, c_fb = ev
    # dC1/ddelta = -dc1 (side 1 narrows), dC2/ddelta = +dc2 (side 2 widens)
    if matched_sum:  # c_fb = c1 + c2
        dg_ddelta = -2.0 * (dc2 * c1 + dc1 * c2) / c_fb**2
    else:
        dg_ddelta = -(dc2 + dc1) / c_fb
    return v_m_per_k * dg_ddelta * STANDARD_GRAVITY


def gain_at_side_nominals(
    config: ElectrodeConfig,
    d1: float,
    d2: float,
    mech: MechanicalModel,
    drive: DriveModel,
    accel_m_s2: float,
) -> TransductionPoint:
    """Gain evaluation with independently placed sides."""
    cell, delta, c_fb = _point(config, d1, d2, mech, drive, accel_m_s2)
    ev = _evaluate(cell, delta, c_fb)
    g, bridge = _gain(ev), _new(BridgeState, (ev[0], ev[2], ev[4]))
    return _new(TransductionPoint, (accel_m_s2, delta, bridge, g, drive.v_in_volts * g))


def gain(
    config: ElectrodeConfig,
    gap_nominal_m: float,
    mech: MechanicalModel,
    drive: DriveModel,
    accel_m_s2: float,
) -> TransductionPoint:
    """Voltage gain G = -(C2 - C1)/C_fb and output voltage at one acceleration.

    For the planar variant under matched-sum feedback this collapses
    algebraically to G = delta/d.

    Raises:
        OverRangeError: if the proof-mass travel leaves the valid gap
            interval; the error names the first invalid acceleration.
    """
    _require_in_envelope("gap_nominal_m", gap_nominal_m, "real")
    return gain_at_side_nominals(config, gap_nominal_m, gap_nominal_m, mech, drive, accel_m_s2)


def sensitivity_at_side_nominals(
    config: ElectrodeConfig,
    d1: float,
    d2: float,
    mech: MechanicalModel,
    drive: DriveModel,
    accel_m_s2: float = 0.0,
) -> float:
    """Analytic sensitivity with independently placed sides (V per g)."""
    ev = _evaluate(*_point(config, d1, d2, mech, drive, accel_m_s2))
    return _sensitivity(ev, *_readout(mech, drive))


def sensitivity(
    config: ElectrodeConfig,
    gap_nominal_m: float,
    mech: MechanicalModel,
    drive: DriveModel,
    accel_m_s2: float = 0.0,
) -> float:
    """Exact analytic dV_out/da at the operating point, in volts per g.

    Computed as V_in * (m/k) * dG/ddelta * g0 with dG/ddelta from the
    quotient rule over (C1, C2) and the closed-form dC/dd. Presentation
    layers report this in mV/g.
    """
    _require_in_envelope("gap_nominal_m", gap_nominal_m, "real")
    return sensitivity_at_side_nominals(
        config, gap_nominal_m, gap_nominal_m, mech, drive, accel_m_s2
    )


def net_sensitivity(s_volts_per_g: float, mech: MechanicalModel) -> float:
    """Device-level sensitivity: the per-comb value scaled by the comb count.

    The scaling is the documented device-level convention. Note that in the
    ratio readout -(C2 - C1)/(C1 + C2) a common comb count cancels, so this
    is a reporting convention rather than a bridge-level consequence; both
    values are always reported side by side.
    """
    return s_volts_per_g * mech.comb_count


def fd_sensitivity(
    config: ElectrodeConfig,
    d1: float,
    d2: float,
    mech: MechanicalModel,
    drive: DriveModel,
    accel_m_s2: float = 0.0,
) -> float:
    """Finite-difference sensitivity (V per g): the verification route.

    Differentiates the gain in acceleration with a Richardson central
    stencil and scales by V_in * g0. Independent of dcap_dgap by
    construction; tests and --verify compare it against sensitivity().

    The step is a small fraction of the distance to contact so the
    stencil stays inside the valid travel range.
    """
    cell, delta, c_fb = _point(config, d1, d2, mech, drive, accel_m_s2)
    if c_fb is None and drive.feedback_mode is not _MATCHED_SUM:  # at rest
        c_fb = _rest_feedback(cell)
    return _fd_stencil(cell, delta, c_fb, mech, drive, accel_m_s2)


def _fd_stencil(cell: _Cell, delta, c_fb, mech, drive, accel_m_s2) -> float:
    """fd_sensitivity on a resolved cell: _point's cell and delta, and the
    rest C_fb under nominal feedback (None under matched-sum)."""
    lo, hi = _displacement_interval(cell)
    a_margin = min(hi - delta, delta - lo) * mech.spring_n_per_m / mech.mass_kg
    rel_step = 1e-3 * a_margin / max(abs(accel_m_s2), 1.0)

    def gain_of_accel(a: float) -> float:
        delta = displacement(mech, a)
        _check_range(cell, mech, delta, a)
        return _gain(_evaluate(cell, delta, c_fb))

    slope = fd_derivative(gain_of_accel, accel_m_s2, rel_step).value
    return drive.v_in_volts * slope * STANDARD_GRAVITY
