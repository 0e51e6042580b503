"""Command-line surface.

Subcommands: capacitance, gain-curve, sensitivity-sweep, compare,
validate, each declared once in the _COMMANDS table with its help text,
its handler and its own flags. Lengths on the command line and in config
files are micrometers (1 um = 1e-6 m); everything internal is SI meters.

Each shared parameter is declared once, as one _Param of the _PARAMS
table that states its name, type, default, config-file section, help
text, flag and choices; the RunConfig fields, the config-file keys, the
shared flags and resolve_config are derived from that table when this
module is imported. main reads a valid command line off that table and
_COMMANDS: the first token names the subcommand, and a flag takes the
text after its "=", or else the next token whatever it starts with
("-inf" too), as its value. Help and any line with a usage error go to
the argparse parser of build_parser(), which words every usage error;
neither path abbreviates a flag. Each run resolves its RunConfig once into
a checked SweepPlan, so every subcommand checks every shared flag, also
those it does not read, such as the flat face length. compare ranks, and
validate gates its suites on, the sweep's rest rows (sweep._rest_sweep)
at the plan's own cell; both name every failing side of a variant invalid
there. validate's suites live in _validate, which only validate imports;
each evaluates one resolved cell per random draw, checked bit for bit
against the public functions by a replay test. sensitivity-sweep --verify
runs fd_sensitivity's stencil on each row's rest cell, off the face table
that the sweep itself built for the row's arc, so its column checks dC/dd
and the chain rule at the sweep's placement.

Exit codes: 0 success, 1 usage error, 2 domain/validation error,
3 verification failure, including a quadrature oracle whose error
estimate exceeds its tolerance. CSV output writes each row with one printf format, every value
as '%.16e' (17 significant digits, '.' decimals), with LF line endings
and a fixed row order, so identical configurations produce byte-identical
files. Only the runs that read a config file or print validate --json
import json, as only --svg runs import the chart writer.
"""

import collections
import operator
import sys
import typing
from types import SimpleNamespace

from .capacitance import GeometryDomainError, face_capacitance
from .model import (
    SIDE_KINDS,
    ArcProfile,
    DriveModel,
    FaceKind,
    FeedbackMode,
    GapAnchor,
    GapState,
    MechanicalModel,
    PlanarProfile,
    Variant,
    _ENVELOPE,
    _MATCHED_SUM,
    _Record,
)
from .oracles import QuadratureNonConvergence, quad_capacitance
from .sweep import ArcMode, SweepPlan, SweepResult, _rest_sweep, gain_curve, sensitivity_sweep
from .transduction import OverRangeError, _fd_stencil

UM = 1e-6

_VARIANT_BY_NAME = {v.value.lower(): v for v in Variant}

_QUAD_TOL = 1e-9
_FD_TOL = 1e-6
_SYM_TOL = 1e-12


class UsageError(Exception):
    """Bad command line; maps to exit code 1."""


class VerifyFailure(Exception):
    """An oracle cross-check missed its tolerance; maps to exit code 3."""


# One shared parameter, a RunConfig field. The config-file key is name
# inside section ("" for the top level); the flag is --name with "-" for
# "_" unless flag names it; choices is the Enum whose values it may take.
_Param = collections.namedtuple(
    "_Param", "name type default section help flag choices", defaults=(None, None, None)
)


_PARAMS = (
    _Param("r_um", float, 100.0, "geometry", "arc radius R"),
    _Param("phi_rad", float | None, None, "geometry", "angular extent (rad)", flag="phi"),
    _Param("arc_um", float | None, 20.0, "geometry", "arc length R*phi"),
    _Param("h_um", float, 2.0, "geometry", "structure thickness h"),
    _Param("b_um", float | None, None, "geometry", "flat face length b"),
    _Param("gap_um", float, 2.0, "", "nominal gap d"),
    _Param(
        "gap_anchor",
        str,
        "face-plane",
        "",
        "how d places curved faces (default face-plane)",
        choices=GapAnchor,
    ),
    _Param("m_kg", float, 2.6e-10, "mech", "proof mass (kg)"),
    _Param("k_n_per_m", float, 1.0, "mech", "stiffness (N/m)"),
    _Param("combs", int, 21, "mech", "comb count N"),
    _Param("v_in_v", float, 1.0, "drive", "drive amplitude (V)", flag="v-in"),
    _Param(
        "feedback_mode",
        str,
        "matched-sum",
        "drive",
        "feedback capacitance mode",
        flag="feedback",
        choices=FeedbackMode,
    ),
    _Param("permittivity", float, 8.854e-12, "drive", "epsilon (F/m)"),
    _Param(
        "arc_mode", str, "vary-phi-fixed-r", "sweep", "how arc length varies", choices=ArcMode
    ),
    _Param("arc_min_um", float, 5.0, "sweep"),
    _Param("arc_max_um", float, 60.0, "sweep"),
    _Param("arc_points", int, 20, "sweep"),
    _Param("accel_min_g", float, -5.0, "sweep"),
    _Param("accel_max_g", float, 5.0, "sweep"),
    _Param("accel_points", int, 21, "sweep"),
    _Param(
        "variants",
        tuple[str, ...],
        tuple(v.value for v in Variant),
        "sweep",
        "comma-separated variant names",
    ),
    _Param("csv", str | None, None, "output", "CSV output path"),
    _Param("svg", str | None, None, "output", "SVG chart output path"),
)


# the config-file key path of each RunConfig field
_BY_PATH = {f"{p.section}.{p.name}" if p.section else p.name: p for p in _PARAMS}
_SECTIONS = {p.section for p in _PARAMS} - {""}


class RunConfig(_Record):
    """Run parameters, one field per _Param of _PARAMS.

    Lengths are micrometers as the user gives them; the methods build the
    SI model objects.
    """

    __slots__ = tuple(p.name for p in _PARAMS)
    _defaults = {p.name: p.default for p in _PARAMS}

    def resolved_phi(self) -> float:
        if self.phi_rad is not None and self.arc_um is not None:
            raise ValueError(
                "specify geometry.phi_rad or geometry.arc_um, not both"
            )
        if self.phi_rad is not None:
            return self.phi_rad
        if self.arc_um is not None:
            if self.r_um == 0.0:  # arc_um / r_um has no value
                raise ValueError(f"geometry.r_um must be positive, got {self.r_um}")
            return self.arc_um / self.r_um
        raise ValueError("geometry needs phi_rad or arc_um")

    def planar_face(self, profile: ArcProfile) -> PlanarProfile:
        b = self.b_um if self.b_um is not None else profile.arc_length() / UM
        return PlanarProfile(b * UM, self.h_um * UM)

    def _choice(self, path: str):
        """The enum member that the choice field at config path `path` holds."""
        p = _BY_PATH[path]
        enum, value = p.choices, getattr(self, p.name)
        try:
            return enum(value)
        except ValueError:
            raise ValueError(
                f"{path}: unknown value {value!r}; choose from "
                + ", ".join(sorted(m.value for m in enum))
            ) from None

    def plan(self) -> SweepPlan:
        """The one place the fields become checked model objects; every
        subcommand reads the plan, so every field is checked on every run."""
        variants = []
        for name in self.variants:
            key = name.lower()
            if key not in _VARIANT_BY_NAME:
                raise ValueError(
                    f"unknown variant {name!r}; choose from "
                    + ", ".join(v.value for v in Variant)
                )
            variants.append(_VARIANT_BY_NAME[key])
        plan = SweepPlan(
            variants=tuple(variants),
            profile=ArcProfile(self.r_um * UM, self.resolved_phi(), self.h_um * UM),
            gap=GapState(self.gap_um * UM),
            mech=MechanicalModel(self.m_kg, self.k_n_per_m, self.combs),
            drive=DriveModel(self.v_in_v, self._choice("drive.feedback_mode"), self.permittivity),
            arc_mode=self._choice("sweep.arc_mode"),
            gap_anchor=self._choice("gap_anchor"),
            arc_range_m=(self.arc_min_um * UM, self.arc_max_um * UM),
            arc_points=self.arc_points,
            accel_range_g=(self.accel_min_g, self.accel_max_g),
            accel_points=self.accel_points,
        )
        self.planar_face(plan.profile)  # b_um, which only capacitance --kind flat reads
        return plan


def _json_matches(value, hint) -> bool:
    """Whether a JSON leaf fits the type of a RunConfig field."""
    if typing.get_origin(hint) is tuple:  # tuple[T, ...] arrives as a list
        item = typing.get_args(hint)[0]
        return isinstance(value, list) and all(_json_matches(v, item) for v in value)
    allowed = typing.get_args(hint) or (hint,)  # T | None gives (T, NoneType)
    if float in allowed and isinstance(value, int) and not isinstance(value, bool):
        return abs(value) <= sys.float_info.max  # a JSON number without a fraction
    return isinstance(value, allowed) and not isinstance(value, bool)


def _config_from_file(path: str) -> dict:
    """Flatten a JSON config document to RunConfig field overrides.

    Unknown keys and leaves whose JSON type does not fit the _Param type
    of their field are rejected with their full path.
    """
    import json  # only the runs that read a config file load the decoder

    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except RecursionError:  # the decoder recurses once per nesting level
            raise ValueError("config file nests too deeply") from None
    if not isinstance(doc, dict):
        raise ValueError("config file must hold a JSON object")
    overrides: dict = {}

    def leaf(where: str, value) -> None:
        p = _BY_PATH.get(where)
        if p is None:
            raise ValueError(f"unknown config key: {where}")
        if not _json_matches(value, p.type):
            kind = str(p.type) if typing.get_args(p.type) else p.type.__name__
            raise ValueError(f"config key {where} must be {kind}, got {json.dumps(value)}")
        overrides[p.name] = tuple(value) if isinstance(value, list) else value

    for key, value in doc.items():
        if key not in _SECTIONS:
            leaf(key, value)
        elif not isinstance(value, dict):
            raise ValueError(f"config key {key} must be an object")
        else:
            for sub, item in value.items():
                leaf(f"{key}.{sub}", item)
    return overrides


def _one_angle(overrides: dict) -> dict:
    """A source (the file or the flags) that sets only one of phi_rad and
    arc_um clears the other, so a pinned phi does not fight the default arc."""
    if ("phi_rad" in overrides) != ("arc_um" in overrides):
        return {"phi_rad": None, "arc_um": None, **overrides}
    return overrides


def resolve_config(args) -> RunConfig:
    """Apply precedence: flags > config file > built-in defaults, to the
    command line as main's reader or build_parser().parse_args read it."""
    values: dict = {}
    path = getattr(args, "config", None)
    if path:
        values.update(_one_angle(_config_from_file(path)))
    flags = {
        p.name: value
        for p in _PARAMS
        if (value := getattr(args, p.name, None)) is not None
    }
    if flags.get("variants") == ():
        raise UsageError("--variants needs at least one name")
    values.update(_one_angle(flags))
    return RunConfig(**values)


def _sci(x: float) -> str:
    return f"{x:.16e}"


def _write_csv(path: str, header: list[str], lines: list[str]) -> None:
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write("\n".join([",".join(header), *lines]) + "\n")


def _names(text: str) -> tuple[str, ...]:
    """A comma-separated --variants value as a tuple of names."""
    return tuple(s.strip() for s in text.split(",") if s.strip())


def _flag(p: _Param) -> tuple[str, dict]:
    """The flag of a _PARAMS entry and its argparse add_argument keywords."""
    flag = p.flag or p.name.replace("_", "-")
    kwargs = {"dest": p.name, "help": p.help}
    if p.choices:
        kwargs["choices"] = sorted(m.value for m in p.choices)
    else:
        kwargs["metavar"] = flag.replace("-", "_").upper()
        if typing.get_origin(p.type) is tuple:
            kwargs["type"] = _names
        else:  # T or T | None
            kwargs["type"] = (typing.get_args(p.type) or (p.type,))[0]
    return "--" + flag, kwargs


# flag -> add_argument keywords of each shared flag: --config, then _PARAMS
_FLAGS = {
    "--config": {"dest": "config", "help": "JSON config file (flags override it)"},
    **dict(map(_flag, _PARAMS)),
}


# argparse group of each config-file section ("" is the top level)
_GROUP_OF_SECTION = {
    "geometry": "geometry (micrometers)",
    "": "geometry (micrometers)",
    "mech": "mechanics and drive",
    "drive": "mechanics and drive",
    "sweep": "sweep grids",
    "output": "outputs",
}


def cmd_capacitance(cfg: RunConfig, plan: SweepPlan, args: SimpleNamespace) -> int:
    kind = FaceKind(args.kind)
    eps = plan.drive.permittivity_f_per_m
    gap = plan.gap.gap_m
    prof = cfg.planar_face(plan.profile) if kind is FaceKind.FLAT else plan.profile
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
        if not rel < _QUAD_TOL:
            raise VerifyFailure(
                f"closed form vs quadrature rel diff {rel:.3e} not below {_QUAD_TOL}"
            )
    return 0


def _require_csv(cfg: RunConfig) -> str:
    if not cfg.csv:
        raise UsageError("a CSV output path is required (--csv or output.csv)")
    return cfg.csv


def _lines(rows, header: list[str]) -> list[str]:
    """The CSV lines of sweep rows: the variant, then the field that each
    later header name names, as %.16e (the bytes of _sci), one format per row."""
    fields = operator.attrgetter("variant._value_", *header[1:])  # .value: a Python call per row
    fmt = "%s" + ",%.16e" * (len(header) - 1)
    return [fmt % fields(r) for r in rows]


def cmd_gain_curve(cfg: RunConfig, plan: SweepPlan, args: SimpleNamespace) -> int:
    path = _require_csv(cfg)
    result = gain_curve(plan)
    header = ["variant", "accel_g", "displacement_m", "c1_f", "c2_f", "gain", "v_out_v"]
    lines = _lines(result.rows, header)
    _write_csv(path, header, lines)
    print(f"wrote {len(lines)} rows to {path}")
    _report_incidents(result, "over_range")
    print("fitted slope per variant (least squares, mV/g):")
    for name, slope in result.metadata["fitted_slope_mv_per_g"].items():
        print(f"  {name:16s} {slope:12.6f}")
    if cfg.svg:
        _write_chart(cfg.svg, result, lambda r: (r.accel_g, r.v_out_v * 1e3),
                     "Output voltage vs acceleration", "acceleration [g]", "V_out [mV]")
    return 0


def _write_chart(path: str, result: SweepResult, point, *labels: str) -> None:
    """One series per variant of point(row); labels: title, x label, y label."""
    from . import _svg  # only the --svg runs load the chart writer

    series: dict[str, list] = {}
    for r in result.rows:
        series.setdefault(r.variant._value_, []).append(point(r))
    chart = _svg.line_chart(list(series.items()), *labels)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(chart)
    print(f"wrote chart to {path}")


def _report_incidents(result: SweepResult, key: str) -> None:
    items = result.metadata.get(key, [])
    if items:
        print(f"{len(items)} grid point(s) {key.replace('_', '-')}; first:")
        print(f"  {items[0]['reason']}")


def cmd_sensitivity_sweep(cfg: RunConfig, plan: SweepPlan, args: SimpleNamespace) -> int:
    path = _require_csv(cfg)
    tables = {} if args.verify else None  # each row's rest cell, off the sweep's face table
    result = sensitivity_sweep(plan, _tables=tables)
    header = ["variant", "arc_length_m", "radius_m", "phi_rad", "s_mv_per_g", "s_net_mv_per_g"]
    lines = _lines(result.rows, header)
    verify_failures: list[str] = []
    if args.verify:
        header.append("fd_s_mv_per_g")
        nominal = plan.drive.feedback_mode is not _MATCHED_SUM  # rest C_fb: the row's c1 + c2
        for i, r in enumerate(result.rows):
            cell = tables[r.radius_m, r.phi_rad][r.variant]
            c_fb = r.c1_f + r.c2_f if nominal else None
            fd = _fd_stencil(cell, 0.0, c_fb, plan.mech, plan.drive, 0.0) * 1e3
            lines[i] += ",%.16e" % fd
            rel = abs(fd - r.s_mv_per_g) / max(abs(r.s_mv_per_g), 1e-300)
            if not rel < _FD_TOL:
                verify_failures.append(
                    f"{r.variant.value} at arc {r.arc_length_m:.3e} m: rel diff {rel:.3e}"
                )
    _write_csv(path, header, lines)
    print(f"wrote {len(lines)} rows to {path}")
    _report_incidents(result, "skipped")
    if cfg.svg:
        _write_chart(cfg.svg, result, lambda r: (r.arc_length_m / UM, r.s_mv_per_g),
                     "Sensitivity vs arc length", "arc length [um]", "S [mV/g]")
    if verify_failures:
        raise VerifyFailure(
            "finite-difference oracle disagrees: " + "; ".join(verify_failures[:3])
        )
    if args.verify:
        print(f"finite-difference oracle agreed within {_FD_TOL:g} on every row")
    return 0


def _rest_cell(plan: SweepPlan) -> tuple:
    """The sweep's rest (rows, skipped) at the plan's own cell: compare's and validate's."""
    prof = plan.profile  # itself: phi rebuilt as (R*phi)/R can be an ulp off
    return _rest_sweep(plan, list(plan.variants), [prof.arc_length()], [prof])


def cmd_compare(cfg: RunConfig, plan: SweepPlan, args: SimpleNamespace) -> int:
    rows, skipped = _rest_cell(plan)
    if not rows:
        raise GeometryDomainError(
            "no variant is valid at the given parameters",
            kind=FaceKind.FLAT,
            gap_m=plan.gap.gap_m,
        )
    print(f"{'rank':>4}  {'variant':16s} {'S [mV/g]':>12} {'S_net [mV/g]':>14}")
    rows = sorted(rows, key=lambda r: -abs(r.s_mv_per_g))
    for i, r in enumerate(rows, start=1):
        print(f"{i:>4}  {r.variant.value:16s} {r.s_mv_per_g:>12.6f} {r.s_net_mv_per_g:>14.6f}")
    for entry in skipped:
        print(f"{entry['variant']}: skipped ({entry['reason']})")
    print(
        f"(arc {plan.profile.arc_length() / UM:g} um, gap {cfg.gap_um:g} um, "
        f"{plan.gap_anchor.value} anchor, N = {plan.mech.comb_count})"
    )
    if cfg.csv:
        header = ["rank", "variant", "s_mv_per_g", "s_net_mv_per_g"]
        lines = _lines(rows, header[1:])
        _write_csv(cfg.csv, header, [f"{i},{line}" for i, line in enumerate(lines, start=1)])
        print(f"wrote ranking to {cfg.csv}")
    return 0


def cmd_validate(cfg: RunConfig, plan: SweepPlan, args: SimpleNamespace) -> int:
    if args.points < 1:
        raise UsageError(f"--points must be >= 1, got {args.points}")
    if args.points > (ceiling := _ENVELOPE["points"][1]):
        raise UsageError(f"--points must be <= {ceiling}, got {args.points}")
    _, skipped = _rest_cell(plan)
    if skipped:  # the first variant invalid at rest, with each side that fails
        variant, reason = Variant(skipped[0]["variant"]), skipped[0]["reason"]
        raise GeometryDomainError(
            f"{variant.value}: {reason}",
            kind=SIDE_KINDS[variant][reason.startswith("side 2")],  # the first failing side's
            gap_m=plan.gap.gap_m,
        )
    from . import _validate  # only validate compiles the suites

    errs = _validate.max_rel_errs(args.points, plan.drive.feedback_mode)
    names = ("quadrature vs closed forms", "finite differences vs sensitivity",
             "symmetry and polarity identities")
    all_ok = True
    summary = []
    for name, err, tol in zip(names, errs, (_QUAD_TOL, _FD_TOL, _SYM_TOL)):
        ok = err < tol
        all_ok = all_ok and ok
        summary.append({"suite": name, "max_rel_err": err, "tolerance": tol, "pass": ok})
    if args.json:
        import json

        print(json.dumps({"pass": all_ok, "suites": summary}, indent=2))
    else:
        for item in summary:
            status = "PASS" if item["pass"] else "FAIL"
            print(
                f"{status}  {item['suite']:36s} "
                f"max rel err {item['max_rel_err']:.3e} (tol {item['tolerance']:g})"
            )
    if not all_ok:
        raise VerifyFailure("one or more validation suites exceeded tolerance")
    return 0


# Each subcommand: name -> (help, handler(cfg, plan, args), its own flags as
# (flag, add_argument keywords)); every one also takes the shared flags.
_COMMANDS = {
    "capacitance": (
        "closed-form capacitance of a single face",
        cmd_capacitance,
        [
            ("--kind", {"required": True, "choices": [k.value for k in FaceKind]}),
            ("--verify", {"action": "store_true", "help": "cross-check against quadrature"}),
        ],
    ),
    "gain-curve": ("V_out vs acceleration per variant", cmd_gain_curve, []),
    "sensitivity-sweep": (
        "sensitivity vs arc length per variant",
        cmd_sensitivity_sweep,
        [
            ("--verify", {
                "action": "store_true",
                "help": "add a finite-difference oracle column and check it",
            }),
        ],
    ),
    "compare": ("rank variant sensitivities at matched parameters", cmd_compare, []),
    "validate": (
        "run the full oracle suite",
        cmd_validate,
        [
            ("--points", {"type": int, "default": 250, "help": "random points per suite"}),
            ("--json", {"action": "store_true", "help": "machine-readable summary"}),
        ],
    ),
}


def build_parser():
    """The command line as an argparse parser, which prints --help: each
    subcommand inherits one shared parent that holds --config and a flag
    per _PARAMS entry, then adds its own."""
    import argparse  # only the runs that end here load argparse and gettext

    class _Parser(argparse.ArgumentParser):
        def error(self, message: str):  # usage problems exit 1, not argparse's 2
            raise UsageError(message)

    shared = _Parser(add_help=False, allow_abbrev=False)
    shared.add_argument("--config", **_FLAGS["--config"])
    groups = {t: shared.add_argument_group(t) for t in _GROUP_OF_SECTION.values()}
    for p in _PARAMS:
        flag, kwargs = _flag(p)
        groups[_GROUP_OF_SECTION[p.section]].add_argument(flag, **kwargs)
    parser = _Parser(prog="curvedcomb", allow_abbrev=False,
                     description="Curved-electrode capacitive accelerometer model")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, own_flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text, parents=[shared], allow_abbrev=False)
        for flag, kwargs in own_flags:
            p.add_argument(flag, **kwargs)
    return parser


def _read_args(argv: list[str]):
    """A valid command line as build_parser().parse_args reads it, except that a flag
    takes the next token as its value whatever it starts with. Any other line goes to
    that parse_args, which words every usage error, each value joined to its flag by "="
    ("-1e-3" after a space is a flag there), but "--" apart ("--r-um=--" is no value)."""
    if not argv or argv[0] not in _COMMANDS or "-h" in argv or "--help" in argv:
        return build_parser().parse_args(argv)
    spec = {**_FLAGS, **{f: {"dest": f[2:], **kw} for f, kw in _COMMANDS[argv[0]][2]}}
    args = {kw["dest"]: kw.get("default", False if "action" in kw else None)
            for kw in spec.values()}
    tokens, read, valid = iter(argv[1:]), argv[:1], True
    for token in tokens:
        flag, eq, value = token.partition("=")
        kw, given = spec.get(flag, {}), [token]
        if "action" in kw and not eq:  # a store_true switch
            args[kw["dest"]] = True
        elif not kw or "action" in kw or not eq and (value := next(tokens, None)) is None:
            valid = False  # an unknown token, a switch given a value or a flag given none
        else:
            given = [flag, value] if value == "--" else [f"{flag}={value}"]
            try:
                value = kw.get("type", str)(value)
            except ValueError:
                valid = False
            if "choices" in kw and value not in kw["choices"]:
                valid = False
            args[kw["dest"]] = value
        read += given
    if not valid or any(kw.get("required") and args[kw["dest"]] is None for kw in spec.values()):
        return build_parser().parse_args(read)
    return SimpleNamespace(command=argv[0], **args)


def main(argv: list[str] | None = None) -> int:
    try:
        args = _read_args(sys.argv[1:] if argv is None else argv)
        cfg = resolve_config(args)
        return _COMMANDS[args.command][1](cfg, cfg.plan(), args)
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 1
    except (VerifyFailure, QuadratureNonConvergence) as err:
        print(f"verification failure: {err}", file=sys.stderr)
        return 3
    except (GeometryDomainError, OverRangeError) as err:
        print(f"domain error: {err}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
