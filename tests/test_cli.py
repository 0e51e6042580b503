import json
import math
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from curvedcomb import (
    STANDARD_GRAVITY,
    ArcProfile,
    DriveModel,
    ElectrodeConfig,
    FeedbackMode,
    GapState,
    QuadratureResult,
    SweepRow,
    Variant,
    _validate,
    cli,
    fd_sensitivity,
    gain,
    sensitivity,
    sensitivity_sweep,
    side_nominal_gaps,
    validate_geometry,
)
from curvedcomb.cli import main

ROOT = Path(__file__).resolve().parent.parent


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCapacitance:
    def test_reference_value_printed(self, capsys):
        code, out, _ = run(capsys, "capacitance", "--kind", "convex")
        assert code == 0
        assert "1.642107826" in out

    def test_verify_against_quadrature(self, capsys):
        code, out, _ = run(capsys, "capacitance", "--kind", "concave", "--verify")
        assert code == 0
        assert "rel diff" in out

    def test_verify_that_cannot_converge_is_verification_failure(self, capsys):
        # 7e-15 m above the edge-contact bound 0.4995834722974 um: the
        # quadrature spends its whole subdivision budget
        code, _, err = run(
            capsys, "capacitance", "--kind", "concave", "--r-um", "100",
            "--phi", "0.2", "--gap-um", "0.49958348", "--verify",
        )
        assert code == 3
        assert err.startswith("verification failure: concave face at gap 4.9958348e-07 m")
        assert "error estimate" in err

    @pytest.mark.parametrize(
        "argv",
        [
            # gap/R = 2.6e-9 on a short arc: R(1 - cos theta) in the oracle's
            # integrand lost the gap's digits (rel diff 3.9e-8)
            ["--r-um", "1e6", "--phi", "1e-9", "--h-um", "4.381797174763395",
             "--gap-um", "0.0026485987911782187", "--permittivity", "6.186890260978055e-12"],
            # gap/R = 5.8e-9 on a wide arc: the same loss spent the whole
            # subdivision budget
            ["--r-um", "1e6", "--phi", "0.1", "--h-um", "1e6",
             "--gap-um", "0.005824877754427293", "--permittivity", "6.9e-9"],
        ],
    )
    def test_verify_holds_at_gaps_far_below_the_radius(self, capsys, argv):
        code, out, err = run(capsys, "capacitance", "--kind", "convex", "--verify", *argv)
        assert code == 0, err
        assert float(out.split("rel diff = ")[1]) < 1e-14

    def test_nan_relative_difference_is_verification_failure(self, capsys, monkeypatch):
        # no input of the model envelope makes the oracle NaN (a permittivity
        # of 1e308 once did, see TestModelEnvelope); a NaN still fails
        nan = QuadratureResult(math.nan, math.nan, 0)
        monkeypatch.setattr(cli, "quad_capacitance", lambda *args: nan)
        code, out, err = run(capsys, "capacitance", "--kind", "flat", "--verify")
        assert code == 3
        assert "rel diff = nan" in out
        assert err.startswith("verification failure")

    def test_flat_kind_uses_face_length(self, capsys):
        code, out, _ = run(
            capsys, "capacitance", "--kind", "flat", "--b-um", "20", "--gap-um", "2"
        )
        assert code == 0
        printed = next(line for line in out.splitlines() if line.startswith("C = "))
        assert float(printed.split()[2]) == pytest.approx(1.7708e-16, rel=1e-12)

    def test_contact_geometry_is_domain_error(self, capsys):
        code, _, err = run(
            capsys,
            "capacitance",
            "--kind", "concave",
            "--arc-um", "60",
            "--gap-um", "0.4",
        )
        assert code == 2
        assert "domain error" in err


class TestUsageErrors:
    def test_missing_required_flag(self, capsys):
        code, _, err = run(capsys, "capacitance")
        assert code == 1
        assert "usage error" in err

    def test_unknown_subcommand(self, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == 1

    def test_empty_variant_list(self, capsys):
        code, _, err = run(capsys, "compare", "--variants", ",,")
        assert code == 1

    @pytest.mark.parametrize("radius", ["0", "-0.0"])
    def test_zero_radius_names_the_radius(self, capsys, radius):
        code, _, err = run(capsys, "compare", f"--r-um={radius}")
        assert code == 2
        assert "r_um" in err

    def test_unknown_variant_name(self, capsys):
        code, _, err = run(capsys, "compare", "--variants", "Triconvex")
        assert code == 2
        assert "Triconvex" in err

    @pytest.mark.parametrize("value", ["-1e-3", "-5E2", "-.5e1", "-1", "-inf", "-nan"])
    def test_a_negative_number_is_a_value_in_every_form(self, tmp_path, capsys, value):
        # "--flag value" reads as "--flag=value", exponent forms included;
        # -inf and -nan reach the envelope check, not a usage error
        results = []
        for i, flag in enumerate((["--accel-min-g", value], [f"--accel-min-g={value}"])):
            out_csv = tmp_path / f"{i}.csv"
            code, out, err = run(
                capsys, "gain-curve", "--csv", str(out_csv), *flag, "--accel-max-g", "1e-3",
                "--variants", "Planar",
            )
            written = out_csv.read_bytes() if out_csv.exists() else None
            results.append((code, out.replace(str(out_csv), ""), err, written))
        assert results[0] == results[1]
        code, out, err, written = results[0]
        if math.isfinite(float(value)):
            assert code == 0
        else:
            assert (code, out, written) == (2, "", None)
            assert err == (
                f"error: accel_range_g min = {float(value)} is outside the model's "
                "accel_g range [-1000000.0, 1000000.0]\n"
            )


class TestConfigFile:
    def test_unknown_key_rejected_with_path(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"geometry": {"radius": 5}}')
        code, _, err = run(capsys, "compare", "--config", str(cfg))
        assert code == 2
        assert "geometry.radius" in err

    def test_flags_override_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"gap_um": 3.0, "mech": {"combs": 4}}))
        code, out, _ = run(capsys, "compare", "--config", str(cfg), "--gap-um", "2.5")
        assert code == 0
        assert "gap 2.5 um" in out  # flag wins
        assert "N = 4" in out  # file survives where no flag is given

    def test_nested_overrides_apply(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "geometry": {"r_um": 200.0, "arc_um": 40.0},
                    "sweep": {"variants": ["Biconvex", "Planar"]},
                }
            )
        )
        code, out, _ = run(capsys, "compare", "--config", str(cfg))
        assert code == 0
        assert "arc 40 um" in out
        assert "Biconcave" not in out

    def test_malformed_json_is_reported(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        code, _, err = run(capsys, "compare", "--config", str(cfg))
        assert code == 2

    def test_deeply_nested_json_is_reported(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[" * 100_000)
        code, _, err = run(capsys, "compare", "--config", str(cfg))
        assert code == 2
        assert err == "error: config file nests too deeply\n"

    @pytest.mark.parametrize(
        "doc, path",
        [
            ({"geometry": {"r_um": "100"}}, "geometry.r_um"),
            ({"gap_um": None}, "gap_um"),
            ({"mech": {"combs": 2.5}}, "mech.combs"),
            ({"mech": {"combs": True}}, "mech.combs"),
            ({"sweep": {"variants": "Biconvex"}}, "sweep.variants"),
            ({"output": {"csv": 3}}, "output.csv"),
        ],
    )
    def test_leaf_of_wrong_type_names_its_path(self, tmp_path, capsys, doc, path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        code, _, err = run(capsys, "compare", "--config", str(cfg))
        assert code == 2
        assert path in err

    def test_zero_radius_names_the_radius(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"geometry": {"r_um": 0}}')
        code, _, err = run(capsys, "compare", "--config", str(cfg))
        assert code == 2
        assert "r_um" in err

    @pytest.mark.parametrize(
        "source",
        [
            pytest.param("README.md", id="readme"),
            pytest.param("demos/reference-cell.json", id="reference-cell"),
        ],
    )
    def test_documented_config_runs(self, tmp_path, monkeypatch, capsys, source):
        text = (ROOT / source).read_text(encoding="utf-8")
        if source == "README.md":  # the JSON block of the "Config files" section
            section = text.split("### Config files", 1)[1]
            text = re.search(r"```json\n(.*?)```", section, re.S).group(1)
        (tmp_path / "cfg.json").write_text(text)
        monkeypatch.chdir(tmp_path)
        code, _, err = run(capsys, "compare", "--config", "cfg.json")
        assert code == 0, err

    def test_phi_and_arc_conflict(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"geometry": {"phi_rad": 0.2, "arc_um": 20.0}}')
        code, _, err = run(capsys, "compare", "--config", str(cfg))
        assert code == 2
        assert "not both" in err


# the behaviour corpus's sweep plans as flags: at R = 15 um the phi grid
# passes pi (unrealizable arcs) and on the face plane the convex bow leaves
# no gap (skipped arcs); the last cell's Biconvex has no valid point on the
# face plane. The variants of the first come unordered and one twice.
VERIFY_CELLS = (
    ("--r-um", "100", "--phi", "0.2", "--h-um", "2", "--gap-um", "2",
     "--variants", ",".join([v.value for v in reversed(Variant)] + ["Biconvex"])),
    ("--r-um", "15", "--phi", "0.9", "--h-um", "3", "--gap-um", "1"),
    ("--r-um", "15", "--phi", "0.9", "--h-um", "3", "--gap-um", "0.1", "--variants", "Biconvex"),
)
VERIFY_PLANS = [
    (*cell, "--gap-anchor", anchor, "--arc-mode", mode, "--feedback", feedback,
     "--arc-points", "8")
    for cell in VERIFY_CELLS
    for anchor in ("face-plane", "apex")
    for mode in ("vary-phi-fixed-r", "vary-r-fixed-arc")
    for feedback in ("matched-sum", "nominal")
]


class TestSensitivitySweepCommand:
    def test_csv_layout(self, tmp_path, capsys):
        out_csv = tmp_path / "s.csv"
        code, _, _ = run(
            capsys,
            "sensitivity-sweep",
            "--csv", str(out_csv),
            "--arc-mode", "vary-r-fixed-arc",
            "--arc-points", "5",
            "--variants", "Planar,Biconvex",
        )
        assert code == 0
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "variant,arc_length_m,radius_m,phi_rad,s_mv_per_g,s_net_mv_per_g"
        assert len(lines) == 1 + 2 * 5
        first = lines[1].split(",")
        assert first[0] == "Planar"
        assert "e-" in first[1]  # 17-significant-digit scientific notation

    def test_nan_oracle_is_verification_failure(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_fd_stencil", lambda *args: math.nan)
        code, _, err = run(
            capsys, "sensitivity-sweep", "--verify", "--csv", str(tmp_path / "s.csv"),
            "--arc-points", "3", "--variants", "Planar",
        )
        assert code == 3
        assert err.startswith("verification failure")

    def test_requires_csv_path(self, capsys):
        code, _, err = run(capsys, "sensitivity-sweep")
        assert code == 1
        assert "CSV" in err

    def test_verify_adds_oracle_column(self, tmp_path, capsys):
        out_csv = tmp_path / "s.csv"
        code, out, _ = run(
            capsys,
            "sensitivity-sweep",
            "--csv", str(out_csv),
            "--arc-mode", "vary-r-fixed-arc",
            "--arc-points", "3",
            "--variants", "Biconvex,PlanoConcave",
            "--verify",
        )
        assert code == 0
        header = out_csv.read_text().splitlines()[0]
        assert header.endswith(",fd_s_mv_per_g")
        assert "agreed" in out

    # ids: R, gap, anchor, arc mode, feedback
    @pytest.mark.parametrize(
        "argv", VERIFY_PLANS, ids=lambda a: "/".join((a[1], a[7], *a[-7:-1:2]))
    )
    def test_verify_column_is_the_public_oracle(self, tmp_path, capsys, argv):
        # the column reads each row's cell off the sweep's rest face table;
        # bit for bit it is fd_sensitivity on the row's own config and gaps
        out_csv = tmp_path / "s.csv"
        code, _, _ = run(capsys, "sensitivity-sweep", "--verify", "--csv", str(out_csv), *argv)
        plan = cli.resolve_config(cli._read_args(["sensitivity-sweep", *argv])).plan()
        try:
            rows = sensitivity_sweep(plan).rows
        except ValueError:  # no valid point: the run writes nothing
            assert (code, out_csv.exists()) == (2, False)
            return
        assert code == 0
        column = [float(line.rsplit(",", 1)[1]) for line in out_csv.read_text().splitlines()[1:]]
        oracle = []
        for r in rows:
            profile = ArcProfile(r.radius_m, r.phi_rad, plan.profile.thickness_m)
            config = ElectrodeConfig.for_variant(r.variant, profile)
            d1, d2 = side_nominal_gaps(config, plan.gap.gap_m, plan.gap_anchor)
            oracle.append(fd_sensitivity(config, d1, d2, plan.mech, plan.drive, 0.0) * 1e3)
        assert column == oracle

    def test_svg_written(self, tmp_path, capsys):
        out_csv = tmp_path / "s.csv"
        out_svg = tmp_path / "s.svg"
        code, _, _ = run(
            capsys,
            "sensitivity-sweep",
            "--csv", str(out_csv),
            "--svg", str(out_svg),
            "--arc-mode", "vary-r-fixed-arc",
            "--arc-points", "4",
        )
        assert code == 0
        svg = out_svg.read_text()
        assert svg.startswith("<svg")
        assert svg.rstrip().endswith("</svg>")
        assert "polyline" in svg
        assert 'width="800"' in svg and 'height="600"' in svg


class TestGainCurveCommand:
    def test_csv_layout_and_slopes(self, tmp_path, capsys):
        out_csv = tmp_path / "g.csv"
        code, out, _ = run(
            capsys,
            "gain-curve",
            "--csv", str(out_csv),
            "--accel-min-g", "-1",
            "--accel-max-g", "1",
            "--accel-points", "5",
            "--variants", "Planar",
        )
        assert code == 0
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "variant,accel_g,displacement_m,c1_f,c2_f,gain,v_out_v"
        assert len(lines) == 1 + 5
        assert "1.274864" in out  # fitted slope report

    def test_accelerations_without_float_spread_get_no_slope(self, tmp_path, capsys):
        # the x spread of 0 and 1e-200 g squares to 0: rows, but no fitted slope
        code, out, _ = run(
            capsys,
            "gain-curve",
            "--csv", str(tmp_path / "g.csv"),
            "--accel-min-g", "0",
            "--accel-max-g", "1e-200",
            "--accel-points", "2",
            "--variants", "Planar",
        )
        assert code == 0
        assert out.splitlines()[-1].startswith("fitted slope")

    def test_widest_accel_span_evaluates_zero_g(self, tmp_path, capsys):
        # the accelerations of the model envelope span +-1e6 g; the midpoint
        # of that grid is still exactly 0 g
        out_csv = tmp_path / "g.csv"
        code, out, _ = run(
            capsys,
            "gain-curve",
            "--csv", str(out_csv),
            "--accel-min-g=-1e6",
            "--accel-max-g=1e6",
            "--accel-points", "3",
        )
        assert code == 0
        rows = out_csv.read_text().splitlines()[1:]
        assert len(rows) == 7
        assert {float(row.split(",")[1]) for row in rows} == {0.0}
        assert "14 grid point(s) over-range" in out

    def test_infinite_accel_bound_is_rejected(self, tmp_path, capsys):
        code, _, err = run(
            capsys,
            "gain-curve",
            "--csv", str(tmp_path / "g.csv"),
            "--accel-min-g=-inf",
        )
        assert code == 2
        assert "accel_range_g" in err
        assert not (tmp_path / "g.csv").exists()


class TestCompareCommand:
    def test_biconvex_leads_at_reference_cell(self, capsys):
        code, out, _ = run(capsys, "compare")
        assert code == 0
        first_data_line = out.splitlines()[1]
        assert first_data_line.split()[0] == "1"
        assert "Biconvex" in first_data_line

    def test_ordering_spans_planar(self, capsys):
        code, out, _ = run(capsys, "compare")
        names = [line.split()[1] for line in out.splitlines()[1:8]]
        assert names.index("Biconvex") < names.index("Planar") < names.index(
            "Biconcave"
        )

    def test_skip_note_names_each_side_as_validate_does(self, capsys):
        # both Biconvex sides fail the same rule: only the side tells them apart
        code, out, _ = run(capsys, "compare", "--phi", "0.9", "--gap-um", "1")
        assert code == 0
        assert (
            "Biconvex: skipped (side 1: gap not positive; side 2: gap not positive)"
        ) in out.splitlines()
        code, _, err = run(capsys, "validate", "--phi", "0.9", "--gap-um", "1")
        assert code == 2
        assert err == "domain error: Biconvex: side 1: gap not positive; side 2: gap not positive\n"


class TestModelEnvelope:
    """Input outside the model envelope exits 2 with the envelope's message
    before any output. Each of these once reached a float under- or
    overflow, a ZeroDivisionError or a NaN."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            # the 1e-300 m radius made C underflow, and the gain divided by 0
            (["gain-curve", "--csv", "g.csv", "--r-um", "1e-294", "--phi", "0.2"],
             "radius_m = 1e-300 is outside the model's length range [1e-09, 1.0]"),
            # the zero arc printed C = 0, then divided by the oracle's 0
            (["capacitance", "--kind", "convex", "--verify", "--arc-um", "0"],
             "arc_length_m must be positive and finite, got 0.0"),
            # the quadrature overflowed to inf: a NaN relative difference
            (["capacitance", "--kind", "flat", "--verify", "--permittivity", "1e308"],
             "permittivity_f_per_m = 1e+308 is outside the model's permittivity range"),
            # C * C overflowed, or C underflowed to 0 and divided the gain
            (["compare", "--permittivity", "1e308"],
             "permittivity_f_per_m = 1e+308 is outside the model's"),
            (["compare", "--permittivity", "5e-324"],
             "permittivity_f_per_m = 5e-324 is outside the model's"),
            # 1e308 - (-1e308) overflowed the grid span
            (["gain-curve", "--csv", "g.csv", "--accel-min-g=-1e308",
              "--accel-max-g=1e308", "--accel-points", "3"],
             "accel_range_g min = -1e+308 is outside the model's accel_g range"),
            # the grid step (hi - lo) / (n - 1) could not convert n to a float
            (["gain-curve", "--csv", "g.csv", f"--accel-points={10**400}"],
             "is outside the model's points range [2, 1000000]"),
            # capacitance took the raw gap: C printed at 1e-18 m and at
            # 1.5 m, and a NaN gap was reported as a face-domain error
            (["capacitance", "--kind", "flat", "--gap-um", "1e-12"],
             "gap_m = 9.999999999999999e-19 is outside the model's length range [1e-09, 1.0]"),
            (["capacitance", "--kind", "convex", "--gap-um", "1500000"],
             "gap_m = 1.5 is outside the model's length range [1e-09, 1.0]"),
            (["capacitance", "--kind", "concave", "--verify", "--gap-um", "nan"],
             "gap_m must be positive and finite, got nan"),
        ],
    )
    def test_out_of_envelope_input_exits_2_before_any_output(
        self, tmp_path, monkeypatch, capsys, argv, message
    ):
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert err.startswith("error: ") and message in err
        assert out == ""
        assert not (tmp_path / "g.csv").exists()

    def test_single_point_chart_of_a_huge_sensitivity(self, tmp_path, capsys):
        # the 400 um arc needs phi = 4 rad at R = 100 um, so one row is left,
        # with S about 1e22 mV/g: y +- 0.5 rounded back to y, a zero span
        svg = tmp_path / "s.svg"
        code, out, err = run(
            capsys, "sensitivity-sweep", "--csv", str(tmp_path / "s.csv"),
            "--svg", str(svg), "--variants", "Planar", "--m-kg", "1",
            "--k-n-per-m", "1e-6", "--v-in", "1000", "--gap-um", "0.001",
            "--arc-min-um", "60", "--arc-max-um", "400", "--arc-points", "2",
        )
        assert code == 0, err
        assert "wrote 1 rows" in out
        assert "nan" not in svg.read_text() and "inf" not in svg.read_text()


def public_derivative(rng, points: int, feedback: FeedbackMode) -> tuple[list, list]:
    """The derivative suite's draws through the public functions: each
    draw's (variant, validate_geometry verdict) and each point's rel diff."""
    verdicts, rels = [], []
    mech, drive = _validate._SUITE_MECH, DriveModel(1.0, feedback)
    for variant in _validate._CURVED_VARIANTS:
        for _ in range(points):
            while True:  # R, phi, then the gap; redrawn until valid at rest
                prof = ArcProfile(rng.uniform(30e-6, 500e-6), rng.uniform(0.02, 0.8), 2e-6)
                d = rng.uniform(0.8e-6, 8e-6)
                config = ElectrodeConfig.for_variant(variant, prof)
                verdicts.append((variant, validate_geometry(config, GapState(d)).ok))
                if verdicts[-1][1]:
                    break
            accel = rng.uniform(-2.0, 2.0) * STANDARD_GRAVITY
            s = sensitivity(config, d, mech, drive, accel)
            fd = fd_sensitivity(config, d, d, mech, drive, accel)
            rels.append(abs(fd - s) / abs(s))
    return verdicts, rels


def public_symmetry(rng, points: int) -> tuple[list, list]:
    """The symmetry suite's draws through the public functions: the
    (variant, validate_geometry verdict) of each pairing it places, in
    order, and each identity's rel error."""
    verdicts, rels = [], []
    mech, drive = _validate._SUITE_MECH, _validate._SUITE_DRIVE
    for _ in range(points):
        prof = ArcProfile(rng.uniform(30e-6, 500e-6), rng.uniform(0.02, 0.8), 2e-6)
        d = rng.uniform(0.8e-6, 8e-6)
        accel = rng.uniform(0.1, 2.0) * STANDARD_GRAVITY

        def placed(variant):
            config = ElectrodeConfig.for_variant(variant, prof)
            verdicts.append((variant, validate_geometry(config, GapState(d)).ok))
            return config if verdicts[-1][1] else None

        for variant in (Variant.PLANAR, Variant.BICONVEX, Variant.BICONCAVE):
            if config := placed(variant):
                plus = gain(config, d, mech, drive, accel).gain
                minus = gain(config, d, mech, drive, -accel).gain
                rels.append(abs(plus + minus) / max(abs(plus), 1e-300))
        if cc := placed(Variant.CONCAVO_CONVEX):
            g_cc = gain(cc, d, mech, drive, accel).gain
            g_vc = gain(placed(Variant.CONVEXO_CONCAVE), d, mech, drive, -accel).gain
            rels.append(abs(g_cc + g_vc) / max(abs(g_cc), 1e-300))
        planar = placed(Variant.PLANAR)
        point = gain(planar, d, mech, drive, 0.25 * d * mech.spring_n_per_m / mech.mass_kg)
        exact = point.displacement_m / d
        rels.append(abs(point.gain - exact) / abs(exact))
        s = sensitivity(planar, d, mech, drive, 0.0)
        s_exact = drive.v_in_volts * mech.mass_kg * STANDARD_GRAVITY / (mech.spring_n_per_m * d)
        rels.append(abs(s - s_exact) / abs(s_exact))
    return verdicts, rels


class TestValidateCommand:
    @pytest.mark.parametrize("feedback", list(FeedbackMode), ids=lambda f: f.value)
    @pytest.mark.parametrize("points", [10, 61, 250])
    def test_suites_replay_on_the_public_functions(self, monkeypatch, capsys, points, feedback):
        # the suites evaluate resolved cells; drawn from the same seeded
        # stream, the public path makes every accept or redraw and every
        # per-point value the same, bit for bit
        seen = {"_suite_derivative": ([], []), "_suite_symmetry": ([], [])}
        cell_of, worse = _validate._cell_of, _validate._worse

        def recorded_cell(variant, faces, d):
            cell = cell_of(variant, faces, d)
            seen[sys._getframe(1).f_code.co_name][0].append((variant, cell is not None))
            return cell

        def recorded_worse(worst, rel):
            suite = sys._getframe(1).f_code.co_name
            if suite in seen:
                seen[suite][1].append(rel)
            return worse(worst, rel)

        monkeypatch.setattr(_validate, "_cell_of", recorded_cell)
        monkeypatch.setattr(_validate, "_worse", recorded_worse)
        code, out, _ = run(capsys, "validate", "--json", "--points", str(points),
                           "--feedback", feedback.value)
        assert code == 0
        worst = [s["max_rel_err"] for s in json.loads(out)["suites"]]
        # the suites' one stream: quadrature, derivative, then symmetry
        rng, n = random.Random(20260816), max(10, points)
        _validate._suite_quadrature(rng, n)
        derivative = public_derivative(rng, max(5, n // 6), feedback)
        symmetry = public_symmetry(rng, n)
        assert seen == {"_suite_derivative": derivative, "_suite_symmetry": symmetry}
        assert worst[1:] == [max(derivative[1]), max(symmetry[1])]
        assert not all(ok for _, ok in derivative[0] + symmetry[0])  # both decisions occur

    def test_all_suites_pass(self, capsys):
        code, out, _ = run(capsys, "validate", "--points", "25", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["pass"] is True
        assert len(doc["suites"]) == 3
        assert all(s["max_rel_err"] < s["tolerance"] for s in doc["suites"])

    def test_injected_fault_is_caught(self, capsys, monkeypatch):
        exact = _validate.cap_convex
        monkeypatch.setattr(_validate, "cap_convex", lambda p, d: exact(p, d) * (1.0 + 1e-6))
        code, out, err = run(capsys, "validate", "--points", "15")
        assert code == 3
        assert "verification failure" in err

    def test_worse_keeps_a_nan(self):
        nan, worse = math.nan, _validate._worse
        assert worse(0.0, 1e-3) == 1e-3 and worse(1e-3, 0.0) == 1e-3
        assert math.isnan(worse(0.0, nan))
        assert math.isnan(worse(nan, 1e-3))
        assert math.isnan(worse(nan, nan))

    # the first call of each suite's own oracle or identity: the quadrature
    # suite's closed form, the derivative suite's stencil, the symmetry
    # suite's gain
    @pytest.mark.parametrize(
        "suite", ["cap_convex", "_fd_stencil", "_gain"],
        ids=["quadrature", "derivative", "symmetry"],
    )
    def test_nan_in_a_suite_is_caught(self, capsys, monkeypatch, suite):
        # only the first call is NaN: the finite relative differences after
        # it must not replace it as the suite's worst
        original = getattr(_validate, suite)
        calls = []

        def first_nan(*args):
            calls.append(args)
            out = original(*args)
            return math.nan if len(calls) == 1 else out

        monkeypatch.setattr(_validate, suite, first_nan)
        code, out, err = run(capsys, "validate", "--points", "15", "--json")
        assert code == 3
        assert "verification failure" in err
        failed = [s for s in json.loads(out)["suites"] if not s["pass"]]
        assert len(failed) == 1 and math.isnan(failed[0]["max_rel_err"])

    @pytest.mark.parametrize("mode", ["matched-sum", "nominal"])
    def test_derivative_suite_runs_under_the_selected_feedback(self, capsys, monkeypatch, mode):
        # the symmetry suite stays on matched-sum: its G = delta/d holds only
        # there; each (suite, feedback mode) of an evaluation and a stencil,
        # with whether the stencil was given nominal feedback's rest C_fb
        seen = set()
        for name in ("_operating_point", "_fd_stencil"):
            original = getattr(_validate, name)

            def recording(cell, *args, original=original, name=name):
                drive = args[1] if name == "_operating_point" else args[3]
                frame = sys._getframe(1)
                while not frame.f_code.co_name.startswith("_suite_"):  # gain's caller
                    frame = frame.f_back
                suite = frame.f_code.co_name
                if name == "_fd_stencil":
                    name = (name, args[1] is not None)  # (cell, delta, c_fb, mech, drive, a)
                seen.add((name, suite, drive.feedback_mode.value))
                return original(cell, *args)

            monkeypatch.setattr(_validate, name, recording)
        code, out, _ = run(capsys, "validate", "--points", "10", "--json", "--feedback", mode)
        assert code == 0 and json.loads(out)["pass"] is True
        assert seen == {
            ("_operating_point", "_suite_derivative", mode),
            (("_fd_stencil", mode == "nominal"), "_suite_derivative", mode),
            ("_operating_point", "_suite_symmetry", "matched-sum"),
        }

    @pytest.mark.parametrize("points", ["0", "-5"])
    def test_points_below_one_is_usage_error(self, capsys, points):
        code, out, err = run(capsys, "validate", "--points", points)
        assert code == 1
        assert "--points" in err
        assert out == ""

    @pytest.mark.parametrize("points", ["1000001", str(10**400)])
    def test_points_above_the_grid_ceiling_is_usage_error(self, monkeypatch, capsys, points):
        # refused before the rest-cell gate, so before any suite runs
        gated = []
        monkeypatch.setattr(cli, "_rest_cell", lambda plan: gated.append(plan))
        code, out, err = run(capsys, "validate", "--points", points)
        assert (code, out, gated) == (1, "", [])
        assert err == f"usage error: --points must be <= 1000000, got {points}\n"

    def test_contact_config_rejected_before_suites(self, capsys):
        code, _, err = run(capsys, "validate", "--arc-um", "60", "--gap-um", "0.4")
        assert code == 2
        assert "domain error" in err


# each subcommand, with its outputs and checks switched on
SUBCOMMANDS = [
    ["capacitance", "--kind", "convex", "--verify"],
    ["gain-curve", "--csv", "out.csv", "--svg", "out.svg"],
    ["sensitivity-sweep", "--csv", "out.csv", "--svg", "out.svg", "--verify"],
    ["compare", "--csv", "out.csv"],
    ["validate", "--points", "10"],
]


class TestOneParser:
    """One argument reader, read off the flag table with no set-up per call
    and shared by every subcommand; argparse only for help and usage
    errors; and one plan resolved before any subcommand runs."""

    @pytest.mark.parametrize("command", SUBCOMMANDS, ids=lambda command: command[0])
    def test_main_never_builds_the_argparse_parser(
        self, tmp_path, monkeypatch, capsys, command
    ):
        def build():
            raise AssertionError("main built the argparse parser")

        monkeypatch.setattr(cli, "build_parser", build)
        monkeypatch.chdir(tmp_path)
        code, _, err = run(capsys, *command)
        assert code == 0, err

    def test_each_shared_flag_is_one_action_of_every_subcommand(self):
        subparsers = cli.build_parser()._subparsers._group_actions[0].choices
        assert sorted(subparsers) == sorted(cli._COMMANDS)
        for param in cli._PARAMS:
            actions = {
                id(action)
                for parser in subparsers.values()
                for action in parser._actions
                if action.dest == param.name
            }
            assert len(actions) == 1, param.name

    def test_the_shared_parser_keeps_no_state_between_calls(self, capsys):
        code, out, _ = run(capsys, "capacitance", "--kind", "convex", "--verify")
        assert code == 0 and "quadrature oracle" in out
        code, out, _ = run(capsys, "capacitance", "--kind", "convex")
        assert code == 0 and "quadrature oracle" not in out

    @pytest.mark.parametrize(
        "bad", [["--m-kg", "nan"], ["--accel-min-g", "nan"], ["--arc-points", "1"],
                ["--variants", "bogus"]], ids=lambda bad: bad[0]
    )
    @pytest.mark.parametrize("command", SUBCOMMANDS, ids=lambda command: command[0])
    def test_every_subcommand_checks_every_shared_flag(
        self, tmp_path, monkeypatch, capsys, command, bad
    ):
        # a subcommand once built only the model objects it read, so a bad
        # value of any other shared flag exited 0
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, *command, *bad)
        assert code == 2, err
        assert err.startswith("error: ")
        assert out == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "bad", [["--b-um", "nan"], ["--b-um", "-1"], {"geometry": {"b_um": 0}}],
        ids=["flag-nan", "flag-negative", "config-zero"],
    )
    @pytest.mark.parametrize("command", SUBCOMMANDS, ids=lambda command: command[0])
    def test_every_subcommand_checks_the_flat_face_length(
        self, tmp_path, monkeypatch, capsys, command, bad
    ):
        # only capacitance --kind flat reads b_um, and every other run once
        # exited 0 whatever its value
        monkeypatch.chdir(tmp_path)
        if isinstance(bad, dict):
            Path("cfg.json").write_text(json.dumps(bad))
            bad = ["--config", "cfg.json"]
        code, out, err = run(capsys, *command, *bad)
        assert code == 2, err
        assert err.startswith("error: ") and "length_m must be positive and finite" in err
        assert out == ""
        assert [p.name for p in tmp_path.iterdir() if p.name != "cfg.json"] == []

    def test_importing_the_cli_leaves_the_chart_writer_unloaded(self):
        probe = "import sys, curvedcomb.cli; print('curvedcomb._svg' in sys.modules)"
        proc = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        )
        assert proc.stdout.strip() == "False"

    def test_neither_import_nor_a_run_loads_argparse(self):
        # argparse and the gettext it imports load only for --help and for
        # the lines main leaves to build_parser
        probe = (
            "import sys, curvedcomb.cli; late = {'argparse', 'gettext'}; "
            "print(sorted(late & set(sys.modules)), curvedcomb.cli.main(['compare']), "
            "sorted(late & set(sys.modules)))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        )
        assert proc.stdout.splitlines()[-1] == "[] 0 []"

    def test_import_and_compare_leave_heapq_and_the_suites_unloaded(self):
        # heapq serves only oracles.integrate_adaptive, and curvedcomb._validate
        # only the validate subcommand, so neither loads before it is used
        probe = (
            "import sys, curvedcomb.cli; late = {'heapq', 'curvedcomb._validate'}; "
            "print(sorted(late & set(sys.modules)), curvedcomb.cli.main(['compare']), "
            "sorted(late & set(sys.modules)), curvedcomb.cli.main(['validate', '--points', '10']), "
            "sorted(late & set(sys.modules)))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        )
        assert proc.stdout.splitlines()[-1] == "[] 0 [] 0 ['curvedcomb._validate']"

    def test_importing_the_cli_leaves_the_json_module_unloaded(self):
        # only a config file and validate --json read JSON
        probe = (
            "import sys; b = 'json' in sys.modules; import curvedcomb.cli; "
            "print(b or 'json' not in sys.modules)"
        )
        proc = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        )
        assert proc.stdout.strip() == "True"


class TestDeterminism:
    def test_sweep_csv_is_byte_stable(self, tmp_path, capsys):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for p in paths:
            code, _, _ = run(
                capsys,
                "sensitivity-sweep",
                "--csv", str(p),
                "--arc-mode", "vary-r-fixed-arc",
                "--arc-points", "6",
            )
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()


# Every CSV header the CLI writes, past the rank column of compare's ranking.
CSV_HEADERS = [
    ["variant", "accel_g", "displacement_m", "c1_f", "c2_f", "gain", "v_out_v"],
    ["variant", "arc_length_m", "radius_m", "phi_rad", "s_mv_per_g", "s_net_mv_per_g"],
    ["variant", "s_mv_per_g", "s_net_mv_per_g"],
]
# nan, +-inf, +-0.0, subnormals and +-max, and ints such as a config file's
# "accel_max_g": 5
CELLS = st.one_of(st.floats(), st.integers(-(2**53), 2**53))
SWEEP_ROWS = st.builds(
    lambda variant, values: SweepRow(variant, *values),
    st.sampled_from(list(Variant)),
    st.lists(CELLS, min_size=11, max_size=11),
)


class TestWriterBytes:
    """One format operation per CSV row and SVG point writes the bytes of one
    f"{x:.16e}" (or f"{x:.2f}") per value."""

    @settings(max_examples=300, deadline=None, database=None)
    @given(rows=st.lists(SWEEP_ROWS, max_size=4), header=st.sampled_from(CSV_HEADERS), fd=CELLS)
    def test_csv_lines_match_one_cell_per_value(self, rows, header, fd):
        expected = [
            ",".join([row.variant.value, *(f"{getattr(row, n):.16e}" for n in header[1:])])
            for row in rows
        ]
        assert cli._lines(rows, header) == expected
        assert ",%.16e" % fd == "," + f"{fd:.16e}"  # the --verify column

    @settings(max_examples=300, deadline=None, database=None)
    @given(x=CELLS, y=CELLS)
    def test_svg_point_matches_one_format_per_coordinate(self, x, y):
        assert "%.2f,%.2f" % (x, y) == f"{x:.2f},{y:.2f}"


# Property test: whatever the config document and shared flags, main()
# returns a documented exit code and never raises. Point counts stay <= 5
# so each example runs in milliseconds.
WORDS = st.sampled_from(
    ["apex", "face-plane", "matched-sum", "nominal", "vary-r-fixed-arc",
     "vary-phi-fixed-r", "Planar", "biconvex", "bogus", ""]
)
NUMBERS = st.one_of(
    st.floats(),  # nan, +-inf, +-0.0, subnormals and huge values included
    st.integers(-3, 50),
    st.sampled_from([0, -1, 10**400]),
)
COUNTS = st.integers(-1, 5)
PATHS = st.sampled_from(["out.csv", "", "missing/out.csv", "."])
LEAF = st.one_of(NUMBERS, WORDS, st.booleans(), st.none(), st.lists(WORDS, max_size=2))
COUNT_LEAF = st.one_of(COUNTS, st.floats(), WORDS, st.none())
SECTIONS = {
    "geometry": ["r_um", "phi_rad", "arc_um", "h_um", "b_um"],
    "mech": ["m_kg", "k_n_per_m", "combs"],
    "drive": ["v_in_v", "feedback_mode", "permittivity"],
    "sweep": ["arc_mode", "arc_min_um", "arc_max_um", "accel_min_g", "accel_max_g",
              "variants", "arc_points", "accel_points"],
    "output": ["csv", "svg"],
}


def _leaf(key: str):
    if key.endswith("_points"):
        return COUNT_LEAF
    return st.one_of(PATHS, st.none(), NUMBERS) if key in ("csv", "svg") else LEAF


CONFIG_DOCS = st.one_of(
    st.fixed_dictionaries(
        {},
        optional={
            **{
                name: st.one_of(
                    st.fixed_dictionaries({}, optional={k: _leaf(k) for k in keys}),
                    LEAF,
                )
                for name, keys in SECTIONS.items()
            },
            "gap_um": LEAF,
            "gap_anchor": LEAF,
            "unknown": LEAF,
        },
    ),
    st.lists(NUMBERS, max_size=2),
)
FLAGS = {
    **{flag: st.one_of(NUMBERS.map(str), WORDS) for flag in (
        "r-um", "phi", "arc-um", "h-um", "b-um", "gap-um", "m-kg", "k-n-per-m",
        "combs", "v-in", "permittivity", "arc-min-um", "arc-max-um",
        "accel-min-g", "accel-max-g",
    )},
    **{flag: WORDS for flag in ("gap-anchor", "feedback", "arc-mode")},
    "variants": st.sampled_from(["Planar,Biconvex", "biconcave", ",,", "bogus"]),
    "arc-points": st.one_of(COUNTS.map(str), WORDS),
    "accel-points": st.one_of(COUNTS.map(str), WORDS),
    "csv": PATHS,
    "svg": PATHS,
}
FLAG_SETS = st.dictionaries(st.sampled_from(sorted(FLAGS)), st.none(), max_size=4).flatmap(
    lambda chosen: st.fixed_dictionaries({f: FLAGS[f] for f in chosen})
)
KINDS = st.sampled_from(["convex", "concave", "flat", "bogus"])
# gaps from the reference cell's concave edge-contact bound (about
# 0.4995834722974 um) to 1e-3 um above it; within about 8e-5 um of the
# bound (d/e above about 6000) the edge gap's own rounding puts the
# quadrature's error estimate above its tolerance, and --verify exits 3
EDGE_GAPS = st.floats(-20.0, -3.0).map(lambda e: repr(0.4995834722974 + 10.0**e))
COMMANDS = st.one_of(
    st.just(["compare"]),
    st.just(["gain-curve"]),
    st.just(["sensitivity-sweep", "--csv", "s.csv"]),
    st.just(["validate", "--points", "1"]),
    KINDS.map(lambda kind: ["capacitance", f"--kind={kind}"]),
    st.tuples(KINDS, EDGE_GAPS).map(
        lambda kg: ["capacitance", f"--kind={kg[0]}", "--verify", f"--gap-um={kg[1]}"]
    ),
)


class TestExitCodes:
    @settings(
        max_examples=100,
        deadline=None,
        database=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(command=COMMANDS, doc=st.none() | CONFIG_DOCS, flags=FLAG_SETS)
    def test_main_never_raises(self, tmp_path, monkeypatch, command, doc, flags):
        monkeypatch.chdir(tmp_path)
        argv = list(command)
        if doc is not None:
            Path("cfg.json").write_text(json.dumps(doc))
            argv += ["--config", "cfg.json"]
        argv += [f"--{flag}={value}" for flag, value in flags.items()]
        assert main(argv) in (0, 1, 2, 3)
