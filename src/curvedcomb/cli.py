"""Command-line surface.

Subcommands: capacitance, gain-curve, sensitivity-sweep, compare,
validate. Lengths on the command line and in config files are
micrometers (1 um = 1e-6 m); everything internal is SI meters.

Exit codes: 0 success, 1 usage error, 2 domain/validation error,
3 verification failure. CSV output uses '.' decimals, 17-significant-digit
scientific notation, LF line endings, and a fixed row order, so identical
configurations produce byte-identical files. Set CURVEDCOMB_NO_COLOR to
disable ANSI styling.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import typing
from dataclasses import dataclass, fields, replace

from . import _svg
from .capacitance import (
    GeometryDomainError,
    cap_concave,
    cap_convex,
    face_capacitance,
)
from .model import (
    STANDARD_GRAVITY,
    ArcProfile,
    DriveModel,
    ElectrodeConfig,
    FaceKind,
    FeedbackMode,
    GapAnchor,
    GapState,
    MechanicalModel,
    PlanarProfile,
    Variant,
    side_nominal_gaps,
    validate_geometry,
)
from .oracles import QuadratureSpec, quad_capacitance
from .sweep import (
    ArcMode,
    SweepPlan,
    SweepResult,
    gain_curve,
    sensitivity_sweep,
)
from .transduction import (
    OverRangeError,
    fd_sensitivity,
    net_sensitivity,
    sensitivity_at_side_nominals,
)

UM = 1e-6

_VARIANT_BY_NAME = {v.value.lower(): v for v in Variant}
_ANCHOR_BY_NAME = {a.value: a for a in GapAnchor}
_MODE_BY_NAME = {m.value: m for m in ArcMode}
_FEEDBACK_BY_NAME = {f.value: f for f in FeedbackMode}

_QUAD_TOL = 1e-9
_FD_TOL = 1e-6
_SYM_TOL = 1e-12


class UsageError(Exception):
    """Bad command line; maps to exit code 1."""


class VerifyFailure(Exception):
    """An oracle cross-check missed its tolerance; maps to exit code 3."""


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run parameters (SI units except the _um echo names)."""

    r_um: float = 100.0
    arc_um: float | None = 20.0
    phi_rad: float | None = None
    h_um: float = 2.0
    b_um: float | None = None
    gap_um: float = 2.0
    gap_anchor: str = "face-plane"
    m_kg: float = 2.6e-10
    k_n_per_m: float = 1.0
    combs: int = 21
    v_in_v: float = 1.0
    feedback_mode: str = "matched-sum"
    permittivity: float = 8.854e-12
    arc_mode: str = "vary-phi-fixed-r"
    arc_min_um: float = 5.0
    arc_max_um: float = 60.0
    arc_points: int = 20
    accel_min_g: float = -5.0
    accel_max_g: float = 5.0
    accel_points: int = 21
    variants: tuple[str, ...] = tuple(v.value for v in Variant)
    csv: str | None = None
    svg: str | None = None

    def resolved_phi(self) -> float:
        if self.phi_rad is not None and self.arc_um is not None:
            raise ValueError(
                "specify geometry.phi_rad or geometry.arc_um, not both"
            )
        if self.phi_rad is not None:
            return self.phi_rad
        if self.arc_um is not None:
            return self.arc_um / self.r_um
        raise ValueError("geometry needs phi_rad or arc_um")

    def profile(self) -> ArcProfile:
        return ArcProfile(self.r_um * UM, self.resolved_phi(), self.h_um * UM)

    def planar_face(self) -> PlanarProfile:
        b = self.b_um if self.b_um is not None else self.profile().arc_length() / UM
        return PlanarProfile(b * UM, self.h_um * UM)

    def gap_state(self) -> GapState:
        return GapState(self.gap_um * UM)

    def anchor(self) -> GapAnchor:
        return _parse_choice(self.gap_anchor, _ANCHOR_BY_NAME, "gap_anchor")

    def mech(self) -> MechanicalModel:
        return MechanicalModel(self.m_kg, self.k_n_per_m, self.combs)

    def drive(self) -> DriveModel:
        mode = _parse_choice(self.feedback_mode, _FEEDBACK_BY_NAME, "drive.feedback_mode")
        return DriveModel(self.v_in_v, mode, self.permittivity)

    def variant_list(self) -> tuple[Variant, ...]:
        out = []
        for name in self.variants:
            key = name.lower()
            if key not in _VARIANT_BY_NAME:
                raise ValueError(
                    f"unknown variant {name!r}; choose from "
                    + ", ".join(v.value for v in Variant)
                )
            out.append(_VARIANT_BY_NAME[key])
        return tuple(out)

    def plan(self) -> SweepPlan:
        return SweepPlan(
            variants=self.variant_list(),
            profile=self.profile(),
            gap=self.gap_state(),
            mech=self.mech(),
            drive=self.drive(),
            arc_mode=_parse_choice(self.arc_mode, _MODE_BY_NAME, "sweep.arc_mode"),
            gap_anchor=self.anchor(),
            arc_range_m=(self.arc_min_um * UM, self.arc_max_um * UM),
            arc_points=self.arc_points,
            accel_range_g=(self.accel_min_g, self.accel_max_g),
            accel_points=self.accel_points,
        )


def _parse_choice(value: str, table: dict, path: str):
    if value not in table:
        raise ValueError(
            f"{path}: unknown value {value!r}; choose from " + ", ".join(sorted(table))
        )
    return table[value]


# JSON schema: nested key -> RunConfig field (None marks a subtree).
_SCHEMA = {
    "geometry": {
        "r_um": "r_um",
        "phi_rad": "phi_rad",
        "arc_um": "arc_um",
        "h_um": "h_um",
        "b_um": "b_um",
    },
    "gap_um": "gap_um",
    "gap_anchor": "gap_anchor",
    "mech": {"m_kg": "m_kg", "k_n_per_m": "k_n_per_m", "combs": "combs"},
    "drive": {
        "v_in_v": "v_in_v",
        "feedback_mode": "feedback_mode",
        "permittivity": "permittivity",
    },
    "sweep": {
        "arc_mode": "arc_mode",
        "arc_min_um": "arc_min_um",
        "arc_max_um": "arc_max_um",
        "arc_points": "arc_points",
        "accel_min_g": "accel_min_g",
        "accel_max_g": "accel_max_g",
        "accel_points": "accel_points",
        "variants": "variants",
    },
    "output": {"csv": "csv", "svg": "svg"},
}


def _json_matches(value, hint) -> bool:
    """Whether a JSON leaf fits a RunConfig field annotation."""
    if typing.get_origin(hint) is tuple:  # tuple[T, ...] arrives as a list
        item = typing.get_args(hint)[0]
        return isinstance(value, list) and all(_json_matches(v, item) for v in value)
    allowed = typing.get_args(hint) or (hint,)  # T | None gives (T, NoneType)
    if float in allowed:
        allowed += (int,)  # a JSON number without a fraction parses as int
    return isinstance(value, allowed) and not isinstance(value, bool)


def _config_from_file(path: str) -> dict:
    """Flatten a JSON config document to RunConfig field overrides.

    Unknown keys and leaves whose JSON type does not fit the RunConfig
    field annotation are rejected with their full path.
    """
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("config file must hold a JSON object")
    hints = typing.get_type_hints(RunConfig)
    declared = {f.name: f.type for f in fields(RunConfig)}
    overrides: dict = {}

    def walk(node: dict, schema: dict, prefix: str) -> None:
        for key, value in node.items():
            where = f"{prefix}{key}"
            if key not in schema:
                raise ValueError(f"unknown config key: {where}")
            target = schema[key]
            if isinstance(target, dict):
                if not isinstance(value, dict):
                    raise ValueError(f"config key {where} must be an object")
                walk(value, target, where + ".")
            elif not _json_matches(value, hints[target]):
                raise ValueError(
                    f"config key {where} must be {declared[target]}, "
                    f"got {json.dumps(value)}"
                )
            else:
                overrides[target] = tuple(value) if isinstance(value, list) else value

    walk(doc, _SCHEMA, "")
    # a file that pins phi_rad should not fight the built-in arc default
    if "phi_rad" in overrides and "arc_um" not in overrides:
        overrides["arc_um"] = None
    return overrides


_FLAG_TO_FIELD = {
    "r_um": "r_um",
    "phi": "phi_rad",
    "arc_um": "arc_um",
    "h_um": "h_um",
    "b_um": "b_um",
    "gap_um": "gap_um",
    "gap_anchor": "gap_anchor",
    "m_kg": "m_kg",
    "k_n_per_m": "k_n_per_m",
    "combs": "combs",
    "v_in": "v_in_v",
    "feedback": "feedback_mode",
    "permittivity": "permittivity",
    "arc_mode": "arc_mode",
    "arc_min_um": "arc_min_um",
    "arc_max_um": "arc_max_um",
    "arc_points": "arc_points",
    "accel_min_g": "accel_min_g",
    "accel_max_g": "accel_max_g",
    "accel_points": "accel_points",
    "variants": "variants",
    "csv": "csv",
    "svg": "svg",
}


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Apply precedence: flags > config file > built-in defaults."""
    cfg = RunConfig()
    path = getattr(args, "config", None)
    if path:
        cfg = replace(cfg, **_config_from_file(path))
    flag_overrides = {}
    for flag, fieldname in _FLAG_TO_FIELD.items():
        value = getattr(args, flag, None)
        if value is None:
            continue
        if flag == "variants":
            value = tuple(s.strip() for s in value.split(",") if s.strip())
            if not value:
                raise UsageError("--variants needs at least one name")
        flag_overrides[fieldname] = value
    if "phi_rad" in flag_overrides and "arc_um" not in flag_overrides:
        flag_overrides["arc_um"] = None
    if "arc_um" in flag_overrides and "phi_rad" not in flag_overrides:
        flag_overrides["phi_rad"] = None
    return replace(cfg, **flag_overrides)


def _sci(x: float) -> str:
    return f"{x:.16e}"


def _write_csv(path: str, header: list[str], rows: list[list[str]]) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(row) for row in rows)
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def _style(text: str, code: str) -> str:
    if os.environ.get("CURVEDCOMB_NO_COLOR") or not sys.stdout.isatty():
        return text
    return f"\x1b[{code}m{text}\x1b[0m"


def _bold(text: str) -> str:
    return _style(text, "1")


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # usage problems exit 1, not argparse's 2
        raise UsageError(message)


def _add_shared_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file (flags override it)")
    g = p.add_argument_group("geometry (micrometers)")
    g.add_argument("--r-um", dest="r_um", type=float, help="arc radius R")
    g.add_argument("--phi", dest="phi", type=float, help="angular extent (rad)")
    g.add_argument("--arc-um", dest="arc_um", type=float, help="arc length R*phi")
    g.add_argument("--h-um", dest="h_um", type=float, help="structure thickness h")
    g.add_argument("--b-um", dest="b_um", type=float, help="flat face length b")
    g.add_argument("--gap-um", dest="gap_um", type=float, help="nominal gap d")
    g.add_argument(
        "--gap-anchor",
        dest="gap_anchor",
        choices=sorted(_ANCHOR_BY_NAME),
        help="how d places curved faces (default face-plane)",
    )
    m = p.add_argument_group("mechanics and drive")
    m.add_argument("--m-kg", dest="m_kg", type=float, help="proof mass (kg)")
    m.add_argument("--k-n-per-m", dest="k_n_per_m", type=float, help="stiffness (N/m)")
    m.add_argument("--combs", dest="combs", type=int, help="comb count N")
    m.add_argument("--v-in", dest="v_in", type=float, help="drive amplitude (V)")
    m.add_argument(
        "--feedback",
        dest="feedback",
        choices=sorted(_FEEDBACK_BY_NAME),
        help="feedback capacitance mode",
    )
    m.add_argument(
        "--permittivity", dest="permittivity", type=float, help="epsilon (F/m)"
    )
    s = p.add_argument_group("sweep grids")
    s.add_argument(
        "--arc-mode", dest="arc_mode", choices=sorted(_MODE_BY_NAME),
        help="how arc length varies",
    )
    s.add_argument("--arc-min-um", dest="arc_min_um", type=float)
    s.add_argument("--arc-max-um", dest="arc_max_um", type=float)
    s.add_argument("--arc-points", dest="arc_points", type=int)
    s.add_argument("--accel-min-g", dest="accel_min_g", type=float)
    s.add_argument("--accel-max-g", dest="accel_max_g", type=float)
    s.add_argument("--accel-points", dest="accel_points", type=int)
    s.add_argument(
        "--variants", dest="variants", help="comma-separated variant names"
    )
    o = p.add_argument_group("outputs")
    o.add_argument("--csv", dest="csv", help="CSV output path")
    o.add_argument("--svg", dest="svg", help="SVG chart output path")


def build_parser() -> _Parser:
    parser = _Parser(
        prog="curvedcomb",
        description="Curved-electrode capacitive accelerometer model",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_cap = sub.add_parser(
        "capacitance", help="closed-form capacitance of a single face"
    )
    p_cap.add_argument(
        "--kind", required=True, choices=[k.value for k in FaceKind]
    )
    p_cap.add_argument(
        "--verify", action="store_true", help="cross-check against quadrature"
    )
    _add_shared_flags(p_cap)

    p_gain = sub.add_parser("gain-curve", help="V_out vs acceleration per variant")
    _add_shared_flags(p_gain)

    p_sweep = sub.add_parser(
        "sensitivity-sweep", help="sensitivity vs arc length per variant"
    )
    p_sweep.add_argument(
        "--verify",
        action="store_true",
        help="add a finite-difference oracle column and check it",
    )
    _add_shared_flags(p_sweep)

    p_cmp = sub.add_parser(
        "compare", help="rank variant sensitivities at matched parameters"
    )
    _add_shared_flags(p_cmp)

    p_val = sub.add_parser("validate", help="run the full oracle suite")
    p_val.add_argument("--points", type=int, default=250, help="random points per suite")
    p_val.add_argument("--json", action="store_true", help="machine-readable summary")
    p_val.add_argument(
        "--inject-fault",
        dest="inject_fault",
        type=float,
        default=0.0,
        help="test hook: perturb the convex closed form by this relative amount",
    )
    _add_shared_flags(p_val)
    return parser


def cmd_capacitance(cfg: RunConfig, args: argparse.Namespace) -> int:
    kind = FaceKind(args.kind)
    eps = cfg.permittivity
    gap = cfg.gap_um * UM
    prof = cfg.planar_face() if kind is FaceKind.FLAT else cfg.profile()
    value = face_capacitance(kind, prof, gap, eps)
    if isinstance(prof, PlanarProfile):
        print(f"flat face: b = {prof.length_m / UM:g} um, h = {prof.thickness_m / UM:g} um")
    else:
        print(
            f"{kind.value} face: R = {prof.radius_m / UM:g} um, "
            f"phi = {prof.angular_extent_rad:g} rad, "
            f"arc = {prof.arc_length() / UM:g} um, h = {prof.thickness_m / UM:g} um"
        )
    print(f"gap = {cfg.gap_um:g} um")
    print(f"C = {_sci(value)} F")
    if args.verify:
        oracle = quad_capacitance(kind, prof, gap, eps)
        rel = abs(value - oracle.value) / abs(oracle.value)
        print(
            f"quadrature oracle = {_sci(oracle.value)} F "
            f"(error estimate {oracle.error_estimate:.3e}), rel diff = {rel:.3e}"
        )
        if rel >= _QUAD_TOL:
            raise VerifyFailure(
                f"closed form vs quadrature rel diff {rel:.3e} >= {_QUAD_TOL}"
            )
    return 0


def _require_csv(cfg: RunConfig) -> str:
    if not cfg.csv:
        raise UsageError("a CSV output path is required (--csv or output.csv)")
    return cfg.csv


def cmd_gain_curve(cfg: RunConfig) -> int:
    path = _require_csv(cfg)
    result = gain_curve(cfg.plan())
    header = ["variant", "accel_g", "displacement_m", "c1_f", "c2_f", "gain", "v_out_v"]
    rows = [
        [
            r.variant.value,
            _sci(r.accel_g),
            _sci(r.displacement_m),
            _sci(r.c1_f),
            _sci(r.c2_f),
            _sci(r.gain),
            _sci(r.v_out_v),
        ]
        for r in result.rows
    ]
    _write_csv(path, header, rows)
    print(f"wrote {len(rows)} rows to {path}")
    _report_incidents(result, "over_range")
    print(_bold("fitted slope per variant (least squares, mV/g):"))
    for name, slope in result.metadata["fitted_slope_mv_per_g"].items():
        print(f"  {name:16s} {slope:12.6f}")
    if cfg.svg:
        series = _series_by_variant(result, lambda r: (r.accel_g, r.v_out_v * 1e3))
        chart = _svg.line_chart(
            series, "Output voltage vs acceleration", "acceleration [g]", "V_out [mV]"
        )
        with open(cfg.svg, "w", encoding="utf-8", newline="") as fh:
            fh.write(chart)
        print(f"wrote chart to {cfg.svg}")
    return 0


def _series_by_variant(result: SweepResult, point) -> list[tuple[str, list]]:
    series: dict[str, list] = {}
    for r in result.rows:
        series.setdefault(r.variant.value, []).append(point(r))
    return list(series.items())


def _report_incidents(result: SweepResult, key: str) -> None:
    items = result.metadata.get(key, [])
    if items:
        print(f"{len(items)} grid point(s) {key.replace('_', '-')}; first:")
        print(f"  {items[0]['reason']}")


def cmd_sensitivity_sweep(cfg: RunConfig, args: argparse.Namespace) -> int:
    path = _require_csv(cfg)
    plan = cfg.plan()
    result = sensitivity_sweep(plan)
    header = [
        "variant",
        "arc_length_m",
        "radius_m",
        "phi_rad",
        "s_mv_per_g",
        "s_net_mv_per_g",
    ]
    verify_failures: list[str] = []
    if args.verify:
        header.append("fd_s_mv_per_g")
    rows = []
    for r in result.rows:
        row = [
            r.variant.value,
            _sci(r.arc_length_m),
            _sci(r.radius_m),
            _sci(r.phi_rad),
            _sci(r.s_mv_per_g),
            _sci(r.s_net_mv_per_g),
        ]
        if args.verify:
            prof = ArcProfile(r.radius_m, r.phi_rad, plan.profile.thickness_m)
            config = ElectrodeConfig.for_variant(r.variant, prof)
            d1, d2 = side_nominal_gaps(config, plan.gap.gap_m, plan.gap_anchor)
            fd = fd_sensitivity(config, d1, d2, plan.mech, plan.drive, 0.0) * 1e3
            row.append(_sci(fd))
            rel = abs(fd - r.s_mv_per_g) / max(abs(r.s_mv_per_g), 1e-300)
            if rel >= _FD_TOL:
                verify_failures.append(
                    f"{r.variant.value} at arc {r.arc_length_m:.3e} m: rel diff {rel:.3e}"
                )
        rows.append(row)
    _write_csv(path, header, rows)
    print(f"wrote {len(rows)} rows to {path}")
    _report_incidents(result, "skipped")
    if cfg.svg:
        series = _series_by_variant(
            result, lambda r: (r.arc_length_m / UM, r.s_mv_per_g)
        )
        chart = _svg.line_chart(
            series, "Sensitivity vs arc length", "arc length [um]", "S [mV/g]"
        )
        with open(cfg.svg, "w", encoding="utf-8", newline="") as fh:
            fh.write(chart)
        print(f"wrote chart to {cfg.svg}")
    if verify_failures:
        raise VerifyFailure(
            "finite-difference oracle disagrees: " + "; ".join(verify_failures[:3])
        )
    if args.verify:
        print(f"finite-difference oracle agreed within {_FD_TOL:g} on every row")
    return 0


def cmd_compare(cfg: RunConfig) -> int:
    prof = cfg.profile()
    mech = cfg.mech()
    drive = cfg.drive()
    anchor = cfg.anchor()
    gap = cfg.gap_state()
    ranked = []
    notes = []
    for variant in cfg.variant_list():
        config = ElectrodeConfig.for_variant(variant, prof)
        report = validate_geometry(config, gap, anchor)
        if not report.ok:
            notes.append(
                f"{variant.value}: skipped ("
                + "; ".join(v.rule for v in report.violations)
                + ")"
            )
            continue
        d1, d2 = side_nominal_gaps(config, gap.gap_m, anchor)
        s = sensitivity_at_side_nominals(config, d1, d2, mech, drive, 0.0)
        ranked.append((variant, s))
    if not ranked:
        raise GeometryDomainError(
            "no variant is valid at the given parameters",
            kind=FaceKind.FLAT,
            gap_m=gap.gap_m,
        )
    ranked.sort(key=lambda pair: -abs(pair[1]))
    print(
        _bold(
            f"{'rank':>4}  {'variant':16s} {'S [mV/g]':>12} {'S_net [mV/g]':>14}"
        )
    )
    rows = []
    for i, (variant, s) in enumerate(ranked, start=1):
        s_mv = s * 1e3
        s_net_mv = net_sensitivity(s, mech) * 1e3
        print(f"{i:>4}  {variant.value:16s} {s_mv:>12.6f} {s_net_mv:>14.6f}")
        rows.append([str(i), variant.value, _sci(s_mv), _sci(s_net_mv)])
    for note in notes:
        print(note)
    print(
        f"(arc {prof.arc_length() / UM:g} um, gap {cfg.gap_um:g} um, "
        f"{anchor.value} anchor, N = {mech.comb_count})"
    )
    if cfg.csv:
        _write_csv(cfg.csv, ["rank", "variant", "s_mv_per_g", "s_net_mv_per_g"], rows)
        print(f"wrote ranking to {cfg.csv}")
    return 0


def _validate_config_geometry(cfg: RunConfig) -> None:
    """Domain-gate the configured geometry before any suite runs."""
    prof = cfg.profile()
    gap = cfg.gap_state()
    anchor = cfg.anchor()
    for variant in cfg.variant_list():
        config = ElectrodeConfig.for_variant(variant, prof)
        report = validate_geometry(config, gap, anchor)
        if not report.ok:
            first = report.violations[0]
            raise GeometryDomainError(
                f"{variant.value}: side {first.side}: {first.rule}",
                kind=config.side_kinds()[first.side - 1],
                gap_m=gap.gap_m,
            )


def _suite_quadrature(rng: random.Random, points: int, fault_rel: float) -> float:
    """Max rel diff between closed forms and quadrature on random geometry."""
    worst = 0.0
    spec = QuadratureSpec()
    produced = 0
    while produced < points:
        r = rng.uniform(10e-6, 1000e-6)
        phi = rng.uniform(1e-3, 1.0)
        d = rng.uniform(0.5e-6, 10e-6)
        prof = ArcProfile(r, phi, 2e-6)
        convex = cap_convex(prof, d) * (1.0 + fault_rel)
        oracle = quad_capacitance(FaceKind.CONVEX, prof, d, spec=spec)
        worst = max(worst, abs(convex - oracle.value) / abs(oracle.value))
        if d - prof.sagitta() > 1e-3 * d:  # keep clear of the edge divergence
            concave = cap_concave(prof, d)
            oracle = quad_capacitance(FaceKind.CONCAVE, prof, d, spec=spec)
            worst = max(worst, abs(concave - oracle.value) / abs(oracle.value))
        produced += 1
    return worst


_CURVED_VARIANTS = (
    Variant.BICONVEX,
    Variant.BICONCAVE,
    Variant.CONCAVO_CONVEX,
    Variant.CONVEXO_CONCAVE,
    Variant.PLANO_CONVEX,
    Variant.PLANO_CONCAVE,
)


def _random_valid_setup(
    rng: random.Random, variant: Variant
) -> tuple[ElectrodeConfig, float, MechanicalModel, DriveModel, float]:
    """Draw a geometry/drive point whose rest state is valid for variant."""
    while True:
        r = rng.uniform(30e-6, 500e-6)
        phi = rng.uniform(0.02, 0.8)
        d = rng.uniform(0.8e-6, 8e-6)
        prof = ArcProfile(r, phi, 2e-6)
        config = ElectrodeConfig.for_variant(variant, prof)
        if not validate_geometry(config, GapState(d)).ok:
            continue
        mech = MechanicalModel(2.6e-10, 1.0, 21)
        drive = DriveModel(1.0)
        accel = rng.uniform(-2.0, 2.0) * STANDARD_GRAVITY
        return config, d, mech, drive, accel


def _suite_derivative(rng: random.Random, points: int) -> float:
    worst = 0.0
    for variant in _CURVED_VARIANTS:
        for _ in range(points):
            config, d, mech, drive, accel = _random_valid_setup(rng, variant)
            s = sensitivity_at_side_nominals(config, d, d, mech, drive, accel)
            fd = fd_sensitivity(config, d, d, mech, drive, accel)
            worst = max(worst, abs(fd - s) / abs(s))
    return worst


def _suite_symmetry(rng: random.Random, points: int) -> float:
    from .transduction import gain_at_side_nominals

    worst = 0.0
    mech = MechanicalModel(2.6e-10, 1.0, 21)
    drive = DriveModel(1.0)
    for _ in range(points):
        r = rng.uniform(30e-6, 500e-6)
        phi = rng.uniform(0.02, 0.8)
        d = rng.uniform(0.8e-6, 8e-6)
        prof = ArcProfile(r, phi, 2e-6)
        accel = rng.uniform(0.1, 2.0) * STANDARD_GRAVITY
        for variant in (Variant.PLANAR, Variant.BICONVEX, Variant.BICONCAVE):
            config = ElectrodeConfig.for_variant(variant, prof)
            if not validate_geometry(config, GapState(d)).ok:
                continue
            plus = gain_at_side_nominals(config, d, d, mech, drive, accel).gain
            minus = gain_at_side_nominals(config, d, d, mech, drive, -accel).gain
            worst = max(worst, abs(plus + minus) / max(abs(plus), 1e-300))
        cc = ElectrodeConfig.for_variant(Variant.CONCAVO_CONVEX, prof)
        vc = ElectrodeConfig.for_variant(Variant.CONVEXO_CONCAVE, prof)
        if validate_geometry(cc, GapState(d)).ok:
            g_cc = gain_at_side_nominals(cc, d, d, mech, drive, accel).gain
            g_vc = gain_at_side_nominals(vc, d, d, mech, drive, -accel).gain
            worst = max(worst, abs(g_cc + g_vc) / max(abs(g_cc), 1e-300))
        planar = ElectrodeConfig.for_variant(Variant.PLANAR, prof)
        # delta/d = 1/4 so the c2 - c1 cancellation stays below the tolerance
        accel_p = 0.25 * d * mech.spring_n_per_m / mech.mass_kg
        point = gain_at_side_nominals(planar, d, d, mech, drive, accel_p)
        exact = point.displacement_m / d
        worst = max(worst, abs(point.gain - exact) / abs(exact))
        s = sensitivity_at_side_nominals(planar, d, d, mech, drive, 0.0)
        s_exact = drive.v_in_volts * mech.mass_kg * STANDARD_GRAVITY / (
            mech.spring_n_per_m * d
        )
        worst = max(worst, abs(s - s_exact) / abs(s_exact))
    return worst


def cmd_validate(cfg: RunConfig, args: argparse.Namespace) -> int:
    if args.points < 1:
        raise UsageError(f"--points must be >= 1, got {args.points}")
    _validate_config_geometry(cfg)
    rng = random.Random(20260816)
    n = max(10, args.points)
    suites = [
        (
            "quadrature vs closed forms",
            _suite_quadrature(rng, n, args.inject_fault),
            _QUAD_TOL,
        ),
        ("finite differences vs sensitivity", _suite_derivative(rng, max(5, n // 6)), _FD_TOL),
        ("symmetry and polarity identities", _suite_symmetry(rng, n), _SYM_TOL),
    ]
    all_ok = True
    summary = []
    for name, err, tol in suites:
        ok = err < tol
        all_ok = all_ok and ok
        summary.append({"suite": name, "max_rel_err": err, "tolerance": tol, "pass": ok})
    if args.json:
        print(json.dumps({"pass": all_ok, "suites": summary}, indent=2))
    else:
        for item in summary:
            status = "PASS" if item["pass"] else "FAIL"
            print(
                f"{_bold(status)}  {item['suite']:36s} "
                f"max rel err {item['max_rel_err']:.3e} (tol {item['tolerance']:g})"
            )
    if not all_ok:
        raise VerifyFailure("one or more validation suites exceeded tolerance")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = resolve_config(args)
        if args.command == "capacitance":
            return cmd_capacitance(cfg, args)
        if args.command == "gain-curve":
            return cmd_gain_curve(cfg)
        if args.command == "sensitivity-sweep":
            return cmd_sensitivity_sweep(cfg, args)
        if args.command == "compare":
            return cmd_compare(cfg)
        if args.command == "validate":
            return cmd_validate(cfg, args)
        raise UsageError(f"unknown command {args.command!r}")
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 1
    except VerifyFailure as err:
        print(f"verification failure: {err}", file=sys.stderr)
        return 3
    except (GeometryDomainError, OverRangeError) as err:
        print(f"domain error: {err}", file=sys.stderr)
        return 2
    except (ValueError, OSError, json.JSONDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
