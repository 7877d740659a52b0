"""Tests for the command-line layer: unit parsing, config files, scenario
runs with CSV/JSON outputs, parameter sweeps, and exit codes."""

import argparse
import errno
import json
import math
import re
import tracemalloc
import warnings
from dataclasses import fields, replace
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from whichway import cli, oracle
from whichway._floattext import BLOCK_ROWS, column_cells
from whichway.analytic import (PEAK_SINGLE_SLIT, UNIT_INTEGRAL, GridSpec,
                               IntensityPattern, ModelKind, sample_pattern)
from whichway.beam import BesselBeam, GaussianBeam, PlaneWave
from whichway.cli import (
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_NO_CONVERGENCE,
    EXIT_OK,
    SUMMARY_SCHEMA,
    ConfigError,
    ScenarioConfig,
    beam_center,
    build_apertures,
    build_beam,
    derived_spot_width,
    format_sweep_csv,
    main,
    parse_angle,
    parse_config,
    parse_length,
    path_probabilities,
    run_scenario,
    shared_grid,
    sweep_scenario,
    write_pattern_csv,
)
from whichway.geometry import SlitGeometry, half_fringe_angle
from whichway.metrics import visibility_fringe_local
from whichway.oracle import oracle_pattern, tilt_angles
from whichway.specs import QuadratureSpec

BASE_CONFIG = """\
# HeNe-laser two-slit bench
wavelength = 632.8nm
slit_width = 2um
slit_separation = 12.6um
screen_distance = 0.1m
"""


# Plates whose model phases overflow on a +-1 m grid.  (A): lambda D
# overflows.  (B): lambda D is finite, pi d x overflows.  (C): only
# general_two_slit's 2 pi d x overflows.
OVERFLOW_PLATES = {
    "lambda_d": "wavelength = 1e308m\nslit_width = 1um\n"
                "slit_separation = 1e308m\nscreen_distance = 1.5e308m\n"
                "grid_points = 11\n",
    "pi_d_x": "wavelength = 1e-3m\nslit_width = 1um\n"
              "slit_separation = 1e308m\nscreen_distance = 1.5e308m\n"
              "grid_points = 20001\n",
    "two_pi_d_x": "wavelength = 1e-3m\nslit_width = 1um\n"
                  "slit_separation = 5e307m\nscreen_distance = 6e307m\n"
                  "grid_points = 20001\n",
}
OVERFLOW_WINDOW = "grid_min = -1m\ngrid_max = 1m\nspot_width = 1um\n"
# A model washout samples the first model on the grid shifted by D sin t, up
# to D sin(1 rad) here.  (A): the model's phase overflows on the shifted
# window.  (B): the shifted window collapses to one float.
WASHOUT = "spot_width = 1um\nwashout_theta = 1\nwashout_tilts = 3\n"
WASHOUT_WINDOW_PLATES = {
    "phase_overflow": "wavelength = 1e150m\nslit_width = 1e153m\n"
                      "slit_separation = 1e154m\nscreen_distance = 2e154m\n"
                      "grid_min = -1e152m\ngrid_max = 1e152m\n"
                      "grid_points = 4001\n" + WASHOUT,
    "collapse": "wavelength = 1e-300m\nslit_width = 1m\n"
                "slit_separation = 1e10m\nscreen_distance = 1e11m\n"
                "grid_min = -1e-297m\ngrid_max = 1e-297m\n" + WASHOUT,
}
# Windows too narrow for their points in floating point: the floats of the
# first are not distinct, those of the second not evenly spaced.
NARROW_GRIDS = ("grid_min = 1m\ngrid_max = 1.0000000000000004m\n"
                "grid_points = 5\n",
                "grid_min = 1m\ngrid_max = 1.0000001m\ngrid_points = 11\n")


def make_config(extra: str = "") -> ScenarioConfig:
    return parse_config(BASE_CONFIG + extra)


class TestUnitParsing:
    @pytest.mark.parametrize("text,expected", [
        ("632.8nm", 632.8e-9),
        ("2um", 2e-6),
        ("12.6 µm", 12.6e-6),
        ("5mm", 5e-3),
        ("1cm", 1e-2),
        ("0.1m", 0.1),
        ("3e-6", 3e-6),
        ("7pm", 7e-12),
    ])
    def test_length(self, text, expected):
        assert parse_length(text) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("text,expected", [
        ("25mrad", 0.025),
        ("500urad", 5e-4),
        ("2 µrad", 2e-6),
        ("1deg", math.pi / 180.0),
        ("0.02", 0.02),
        ("-3mrad", -3e-3),
    ])
    def test_angle(self, text, expected):
        assert parse_angle(text) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("text", ["blue", "", "12 parsec", "nm", "1..2m"])
    def test_rejects_garbage_length(self, text):
        with pytest.raises(ValueError):
            parse_length(text)

    def test_rejects_length_unit_on_angle(self):
        with pytest.raises(ValueError):
            parse_angle("3nm")


class TestParseConfig:
    def test_minimal_defaults(self):
        cfg = make_config()
        assert cfg.geometry.wavelength_m == pytest.approx(632.8e-9, rel=1e-12)
        assert cfg.geometry.slit_separation_m == pytest.approx(12.6e-6,
                                                               rel=1e-12)
        assert cfg.beam_kind == "plane"
        assert cfg.alignment == "cover_both"
        assert cfg.models == (ModelKind.STANDARD_TWO_SLIT,)
        assert not cfg.oracle_enabled
        assert cfg.grid_min_m is None and cfg.grid_max_m is None
        assert cfg.grid_points == 4001
        assert cfg.washout_theta_rad is None
        assert cfg.csv_prefix == "pattern"

    def test_full_options(self):
        cfg = make_config(
            "beam = gaussian\n"
            "waist = 3um\n"
            "alignment = focus_a\n"
            "models = empty_wave_a, standard_focused_a\n"
            "oracle = yes\n"
            "oracle_nodes = 64\n"
            "oracle_rtol = 1e-10\n"
            "oracle_refinements = 5\n"
            "focusing_angle = 2mrad\n"
            "spot_width = 1.5um\n"
            "washout_theta = 25mrad\n"
            "washout_tilts = 51\n"
            "grid_min = -40mm\n"
            "grid_max = 40mm\n"
            "grid_points = 2001\n"
            "alpha = 0.8\n"
            "beta = 0.6\n"
            "normalization = unit_integral\n"
            "csv_prefix = run7\n")
        assert cfg.beam_kind == "gaussian"
        assert cfg.waist_m == pytest.approx(3e-6)
        assert cfg.alignment == "focus_a"
        assert cfg.models == (ModelKind.EMPTY_WAVE_A,
                              ModelKind.STANDARD_FOCUSED_A)
        assert cfg.oracle_enabled
        assert cfg.quadrature.nodes_per_interval == 64
        assert cfg.quadrature.relative_tolerance == 1e-10
        assert cfg.quadrature.max_refinements == 5
        assert cfg.focusing_angle_rad == pytest.approx(2e-3)
        assert cfg.spot_width_m == pytest.approx(1.5e-6)
        assert cfg.washout_theta_rad == pytest.approx(0.025)
        assert cfg.washout_tilts == 51
        assert shared_grid(cfg) == GridSpec(-0.04, 0.04, 2001)
        assert cfg.alpha == 0.8
        assert cfg.beta == 0.6
        assert cfg.normalization == UNIT_INTEGRAL
        assert cfg.csv_prefix == "run7"

    def test_comments_and_blank_lines_ignored(self):
        cfg = parse_config(
            "\n# lead comment\nwavelength = 632.8nm  # HeNe\n\n"
            "slit_width = 2um\nslit_separation = 12.6um\n"
            "screen_distance = 0.1m\n")
        assert cfg.geometry.wavelength_m == pytest.approx(632.8e-9)

    @pytest.mark.parametrize("text,fragment", [
        ("oracle = on\n", True),
        ("oracle = off\n", False),
        ("oracle = 1\n", True),
        ("oracle = no\n", False),
    ])
    def test_boolean_forms(self, text, fragment):
        assert make_config(text).oracle_enabled is fragment

    def test_missing_required_key(self):
        with pytest.raises(ConfigError, match="wavelength"):
            parse_config("slit_width = 2um\nslit_separation = 12.6um\n"
                         "screen_distance = 0.1m\n")

    def test_unknown_key_names_line(self):
        with pytest.raises(ConfigError) as excinfo:
            make_config("wavelenght = 632.8nm\n")
        assert excinfo.value.key == "wavelenght"
        assert excinfo.value.line == 6
        assert "line 6" in str(excinfo.value)

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            make_config("wavelength = 500nm\n")

    def test_missing_equals_sign(self):
        with pytest.raises(ConfigError, match="key = value"):
            make_config("oracle true\n")

    def test_grid_bounds_must_pair(self):
        with pytest.raises(ConfigError, match="together"):
            make_config("grid_min = -1mm\n")

    def test_bom_and_crlf_parse_as_plain(self, tmp_path, capsys):
        path = tmp_path / "bom.cfg"
        path.write_bytes(b"\xef\xbb\xbf"
                         + BASE_CONFIG.replace("\n", "\r\n").encode("utf-8"))
        assert cli._read_config(argparse.Namespace(config=str(path))) \
            == parse_config(BASE_CONFIG)
        assert main(["check", "--config", str(path)]) == EXIT_OK
        assert capsys.readouterr().err == ""

    def test_unknown_model_lists_valid_names(self):
        with pytest.raises(ConfigError, match="standard_two_slit"):
            make_config("models = interference\n")

    def test_bad_geometry_reported_as_config_error(self):
        with pytest.raises(ConfigError):
            parse_config("wavelength = 632.8nm\nslit_width = 20um\n"
                         "slit_separation = 12.6um\nscreen_distance = 0.1m\n")

    def test_bad_value_names_key_and_line(self):
        with pytest.raises(ConfigError) as excinfo:
            parse_config("wavelength = blue\nslit_width = 2um\n"
                         "slit_separation = 12.6um\nscreen_distance = 0.1m\n")
        assert excinfo.value.key == "wavelength"
        assert excinfo.value.line == 1

    def test_config_error_is_value_error(self):
        assert issubclass(ConfigError, ValueError)


class TestReadmeConfigTable:
    """The README config table lists exactly the keys parse_config accepts,
    and states each key's range as the key table does."""

    @staticmethod
    def rows() -> dict[str, str]:
        text = (Path(__file__).parents[1] / "README.md").read_text("utf-8")
        section = text.split("### Config format", 1)[1].split("\n### ", 1)[0]
        rows = {}
        for line in section.splitlines():
            if line.startswith("| `"):
                first, rest = line[1:].split("|", 1)
                rows.update(dict.fromkeys(re.findall(r"`(\w+)`", first), rest))
        return rows

    def test_keys_are_the_accepted_keys(self):
        rows = self.rows()
        assert set(rows) == set(cli._KEYS)
        for key in rows:
            text = "".join(line for line in BASE_CONFIG.splitlines(True)
                           if not line.startswith(key + " "))
            try:
                parse_config(text + f"{key} = ?\n")
            except ConfigError as exc:
                assert not str(exc).startswith("unknown key"), exc
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(BASE_CONFIG + "no_such_key = ?\n")

    def test_rules_as_the_table_states_them(self):
        rows = self.rows()
        for key, spec in cli._KEYS.items():
            assert spec.rule in rows[key], key

    def test_defaults_as_the_table_states_them(self):
        rows = self.rows()
        defaults = {f.name: f.default
                    for cls in (ScenarioConfig, QuadratureSpec)
                    for f in fields(cls)}
        for key, spec in cli._KEYS.items():
            stated = rows[key].split("|")[0].strip()
            if stated in ("required", "-", "derived", "off"):
                assert spec.owner == "geometry" \
                    or defaults[spec.field] is None, key
            else:
                assert spec.parse(stated.strip("`")) == defaults[spec.field], \
                    key


class TestScenarioValidation:
    def test_plane_beam_cannot_focus(self):
        with pytest.raises(ConfigError, match="finite spot"):
            make_config("alignment = focus_a\n")

    def test_gaussian_needs_waist(self):
        with pytest.raises(ConfigError, match="waist"):
            make_config("beam = gaussian\n")

    def test_bessel_needs_radial_wavenumber(self):
        with pytest.raises(ConfigError, match="radial_wavenumber"):
            make_config("beam = bessel\n")

    def test_needs_model_or_oracle(self):
        with pytest.raises(ConfigError, match="at least one"):
            make_config("models =\n")

    def test_washout_tilts_must_be_odd(self):
        with pytest.raises(ConfigError, match="odd"):
            make_config("washout_tilts = 10\n")

    def test_unknown_normalization(self):
        with pytest.raises(ConfigError, match="normalization"):
            make_config("normalization = max\n")


class TestBuilders:
    def test_beam_center_follows_alignment(self):
        cfg = make_config("beam = gaussian\nwaist = 3um\nalignment = focus_a\n")
        assert beam_center(cfg) == cfg.geometry.slit_a_center_m
        assert beam_center(make_config()) == 0.0

    def test_build_plane_beam_with_tilt(self):
        cfg = make_config("tilt = 2mrad\n")
        beam = build_beam(cfg)
        assert isinstance(beam, PlaneWave)
        assert beam.tilt_rad == pytest.approx(2e-3)

    def test_build_gaussian_beam(self):
        cfg = make_config("beam = gaussian\nwaist = 3um\nalignment = focus_b\n")
        beam = build_beam(cfg)
        assert isinstance(beam, GaussianBeam)
        assert beam.waist_m == pytest.approx(3e-6)
        assert beam.center_m == cfg.geometry.slit_b_center_m

    def test_build_bessel_beam(self):
        cfg = make_config("beam = bessel\nradial_wavenumber = 2.4e6\n")
        beam = build_beam(cfg)
        assert isinstance(beam, BesselBeam)
        assert beam.radial_wavenumber_per_m == 2.4e6

    def test_bessel_focus_marks_far_slit_phase(self):
        cfg = make_config("beam = bessel\nradial_wavenumber = 2.4e6\n"
                          "alignment = focus_a\n")
        apertures = build_apertures(cfg)
        assert apertures.phases_rad == (0.0, 0.5 * math.pi)
        flat = make_config("beam = bessel\nradial_wavenumber = 2.4e6\n"
                           "alignment = focus_b\nring_phase_flips = false\n")
        assert build_apertures(flat).phases_rad == (0.0, 0.0)

    def test_derived_spot_width(self):
        assert derived_spot_width(make_config("spot_width = 1um\n")) == 1e-6
        gaussian = make_config("beam = gaussian\nwaist = 3um\n")
        assert derived_spot_width(gaussian) == pytest.approx(6e-6)
        plane = make_config()
        assert derived_spot_width(plane) == pytest.approx(2.0 * (12.6e-6 + 2e-6))

    def test_path_probabilities(self):
        focus = make_config("beam = gaussian\nwaist = 3um\nalignment = focus_a\n")
        assert path_probabilities(focus) == (1.0, 0.0)
        assert path_probabilities(make_config()) == (0.5, 0.5)

    def test_shared_grid_symmetric_default_and_override(self):
        cfg = make_config()
        grid = shared_grid(cfg)
        assert grid.x_min_m == -grid.x_max_m
        geom = cfg.geometry
        lobe = geom.wavelength_m * geom.screen_distance_m / geom.slit_width_m
        assert grid.x_max_m == pytest.approx(
            0.5 * geom.slit_separation_m + 1.2 * lobe)
        custom = make_config("grid_min = -1mm\ngrid_max = 1mm\n"
                             "grid_points = 501\n")
        assert shared_grid(custom) == GridSpec(-1e-3, 1e-3, 501)

    def test_shared_grid_follows_grid_points_of_a_window(self):
        cfg = make_config("grid_min = -40mm\ngrid_max = 40mm\n"
                          "grid_points = 2001\n")
        assert shared_grid(replace(cfg, grid_points=801)) \
            == GridSpec(-0.04, 0.04, 801)


FOCUS_A_CONFIG = ("beam = gaussian\n"
                  "waist = 3um\n"
                  "alignment = focus_a\n"
                  "models = empty_wave_a, standard_focused_a\n"
                  "oracle = true\n")


class TestRunScenario:
    def test_summary_key_order(self):
        summary = run_scenario(make_config("spot_width = 20um\n")).summary
        assert list(summary["geometry"]) == [
            "wavelength_m", "slit_width_m", "slit_separation_m",
            "screen_distance_m"]
        assert list(summary["feasibility"]) == [
            "half_fringe_angle_rad", "focusing_angle_rad", "collimation_ok",
            "spot_fits_slit", "fraunhofer_ok", "messages"]
        assert isinstance(summary["feasibility"]["messages"], list)
        assert len(summary["feasibility"]["messages"]) == 1

    def test_focused_run_writes_outputs(self, tmp_path):
        cfg = make_config(FOCUS_A_CONFIG)
        report = run_scenario(cfg, out_dir=tmp_path)
        names = {p.name for p in report.csv_paths}
        assert names == {"pattern_empty_wave_a.csv",
                         "pattern_standard_focused_a.csv",
                         "pattern_oracle.csv"}
        assert report.json_path == tmp_path / "summary.json"
        assert all(p.exists() for p in report.csv_paths)
        on_disk = json.loads(report.json_path.read_text())
        assert on_disk == report.summary

    def test_summary_matches_schema(self, tmp_path):
        cfg = make_config(FOCUS_A_CONFIG)
        report = run_scenario(cfg, out_dir=tmp_path)
        jsonschema.validate(instance=report.summary, schema=SUMMARY_SCHEMA)

    @pytest.mark.parametrize("extra,out", [
        ("oracle = true\nwashout_theta = 2mrad\nwashout_tilts = 5\n"
         "grid_points = 801\nmodels = empty_wave_a, standard_two_slit\n",
         True),
        ("washout_theta = 25mrad\n", False),
    ], ids=["oracle_washout_out_dir", "model_washout"])
    def test_summary_has_exactly_the_schema_keys(self, tmp_path, extra, out):
        # A key the summary gains and the schema lacks, or the reverse,
        # fails here; the schema's validation only sees missing keys.
        summary = run_scenario(make_config(extra),
                               out_dir=tmp_path if out else None).summary
        props = SUMMARY_SCHEMA["properties"]

        def keys(schema):
            return sorted(schema["required"])

        assert sorted(summary) == keys(SUMMARY_SCHEMA)
        for name in ("geometry", "feasibility", "grid"):
            assert sorted(summary[name]) == keys(props[name])
        assert summary["washout"] is not None
        assert sorted(summary["washout"]) == keys(props["washout"]["oneOf"][1])
        sources = [entry["source"] for entry in summary["patterns"]]
        assert "washout" in sources and ("oracle" in sources) == out
        for entry in summary["patterns"]:
            assert sorted(entry) == sorted(
                ["csv", *props["patterns"]["items"]["required"]])
        assert len(summary["divergences"]) == (2 if out else 0)
        for div in summary["divergences"]:
            assert sorted(div) == keys(props["divergences"]["items"])

    def test_csv_round_trips_exactly(self, tmp_path):
        cfg = make_config(FOCUS_A_CONFIG)
        report = run_scenario(cfg, out_dir=tmp_path)
        pattern = report.patterns["empty_wave_a"]
        data = np.loadtxt(tmp_path / "pattern_empty_wave_a.csv",
                          delimiter=",", skiprows=1)
        assert np.array_equal(data[:, 0], pattern.x_m)
        assert np.array_equal(data[:, 1], pattern.intensity)

    def test_csv_bytes_match_per_value_formatting(self, tmp_path):
        x = np.linspace(-1e-3, 2e-3, 7)
        intensity = np.array([0.0, 5e-324, 1.0 / 3.0, 1.0, 2.5e-17,
                              0.1 + 0.2, 1e300])
        pattern = IntensityPattern(x, intensity, PEAK_SINGLE_SLIT)
        write_pattern_csv(pattern, tmp_path / "p.csv")
        reference = "".join([f"{a:.17g},{b:.17g}\n"
                             for a, b in zip(x, intensity)])
        assert (tmp_path / "p.csv").read_bytes() \
            == ("x_m,intensity\n" + reference).encode("ascii")

    def test_csv_with_shared_x_text_is_identical(self, tmp_path):
        x = np.linspace(-1.3e-3, 2.9e-3, 2 * BLOCK_ROWS + 5)
        pattern = IntensityPattern(x, np.cos(3e3 * x) ** 2, PEAK_SINGLE_SLIT)
        write_pattern_csv(pattern, tmp_path / "own.csv")
        write_pattern_csv(pattern, tmp_path / "shared.csv",
                          x_cells=list(column_cells(x, ",")))
        own = (tmp_path / "own.csv").read_bytes()
        assert (tmp_path / "shared.csv").read_bytes() == own
        reference = "".join(f"{a:.17g},{b:.17g}\n" for a, b in zip(
            x.tolist(), pattern.intensity.tolist()))
        assert own == ("x_m,intensity\n" + reference).encode("ascii")
        with pytest.raises(ValueError):
            write_pattern_csv(pattern, tmp_path / "short.csv",
                              x_cells=list(column_cells(x[:-1], ",")))

    def test_x_column_formatted_once_per_run(self, tmp_path, monkeypatch):
        texts = []
        real = cli.write_pattern_csv

        def spy(pattern, path, *, x_cells=None):
            texts.append(x_cells)
            real(pattern, path, x_cells=x_cells)

        monkeypatch.setattr(cli, "write_pattern_csv", spy)
        cfg = make_config("oracle = true\nwashout_theta = 2mrad\n"
                          "washout_tilts = 5\ngrid_points = 801\n"
                          "models = empty_wave_a, standard_two_slit\n")
        run_scenario(cfg, out_dir=tmp_path)
        assert len(texts) == 4
        assert all(text is texts[0] for text in texts)
        expected = list(column_cells(shared_grid(cfg).x(), ","))
        assert len(texts[0]) == len(expected)
        assert all(np.array_equal(block, want)
                   for block, want in zip(texts[0], expected))

    def test_every_pattern_is_on_the_preflight_grid(self):
        # The CSVs share one formatted x column, so every pattern of a run
        # (models, oracle, washout) must sit on the pre-flight grid exactly.
        cfg = make_config("oracle = true\nwashout_theta = 2mrad\n"
                          "washout_tilts = 5\ngrid_points = 801\n"
                          "models = empty_wave_a, standard_two_slit\n")
        x = shared_grid(cfg).x()
        patterns = run_scenario(cfg).patterns
        assert len(patterns) == 4
        for pattern in patterns.values():
            assert np.array_equal(pattern.x_m, x)

    def test_focused_duality_bookkeeping(self):
        # Focusing on slit A makes the path certain (P = 1); the slit-A
        # model keeps full fringes, so its duality sum lands near 2.
        report = run_scenario(make_config(FOCUS_A_CONFIG))
        assert report.summary["path_probability_a"] == 1.0
        entries = {e["model"]: e for e in report.summary["patterns"]}
        assert entries["empty_wave_a"]["duality_sum"] == pytest.approx(
            2.0, abs=1e-6)
        assert not entries["empty_wave_a"]["inequality_satisfied"]
        assert entries["oracle"]["visibility_fringe_local"] < 0.05
        for entry in entries.values():
            assert entry["duality_sum"] == entry["which_way_value"] ** 2 \
                + entry["visibility_fringe_local"] ** 2

    def test_cover_both_model_matches_oracle(self):
        report = run_scenario(make_config("oracle = true\n"))
        entries = {e["model"]: e for e in report.summary["patterns"]}
        std = entries["standard_two_slit"]
        assert std["which_way_value"] == 0.0
        assert std["visibility_fringe_local"] > 0.999
        assert std["duality_sum"] == pytest.approx(1.0, abs=1e-3)
        (div,) = report.summary["divergences"]
        assert div["model"] == "standard_two_slit"
        assert div["sup_relative"] < 1e-9

    def test_washout_kills_visibility(self):
        report = run_scenario(make_config("washout_theta = 25mrad\n"))
        entries = {e["model"]: e for e in report.summary["patterns"]}
        assert entries["washout"]["visibility_fringe_local"] < 0.02
        assert report.summary["washout"] == {"theta_rad": 0.025,
                                             "n_tilts": 101}

    def test_model_washout_shifts_by_d_sin_tilt(self):
        cfg = make_config("washout_theta = 0.3rad\nwashout_tilts = 5\n")
        washed = run_scenario(cfg).patterns["washout"].intensity
        grid = shared_grid(cfg)
        distance = cfg.geometry.screen_distance_m

        def average(shift_of):
            acc = np.zeros(grid.points)
            for tilt in tilt_angles(0.3, 5):
                shift = shift_of(float(tilt))
                acc += sample_pattern(
                    ModelKind.STANDARD_TWO_SLIT, cfg.geometry,
                    GridSpec(grid.x_min_m - shift, grid.x_max_m - shift,
                             grid.points)).intensity
            return acc / 5

        exact = average(lambda t: distance * math.sin(t))
        small_angle = average(lambda t: distance * t)
        assert np.array_equal(washed, exact)
        assert np.max(np.abs(washed - small_angle)) > 1e-3

    def test_oracle_washout_is_normalized_once(self):
        cfg = make_config("oracle = true\nwashout_theta = 25mrad\n"
                          "washout_tilts = 11\n")
        washed = run_scenario(cfg).patterns["washout"]
        assert washed.meta["model"] == "washout(oracle)"
        assert washed.intensity.max() == 1.0
        assert washed.meta["peak_abs"] > 0.0

    def test_runs_are_byte_identical(self, tmp_path):
        text = BASE_CONFIG + FOCUS_A_CONFIG
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        run_scenario(parse_config(text), out_dir=dir_a)
        run_scenario(parse_config(text), out_dir=dir_b)
        files = sorted(p.name for p in dir_a.iterdir())
        assert files == sorted(p.name for p in dir_b.iterdir())
        for name in files:
            assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()

    def test_model_listed_twice_gives_two_entries(self, tmp_path):
        cfg = make_config("models = pure_fringe, pure_fringe\n"
                          "oracle = true\ngrid_points = 801\n")
        report = run_scenario(cfg, out_dir=tmp_path)
        entries = report.summary["patterns"]
        assert [e["model"] for e in entries] == ["pure_fringe", "pure_fringe",
                                                 "oracle"]
        assert entries[0] == entries[1]
        assert [d["model"] for d in report.summary["divergences"]] == [
            "pure_fringe", "pure_fringe"]
        assert [p.name for p in report.csv_paths] == [
            "pattern_pure_fringe.csv", "pattern_pure_fringe.csv",
            "pattern_oracle.csv"]

    def test_oracle_enters_divergences_uncopied(self, monkeypatch):
        # The oracle pattern is at peak 1 with unit_scale 1, so a shape
        # copy of it would be bit-equal.
        against = []
        real = cli.pattern_divergence

        def spy(model, oracle):
            against.append(oracle)
            return real(model, oracle)

        monkeypatch.setattr(cli, "pattern_divergence", spy)
        report = run_scenario(make_config(FOCUS_A_CONFIG))
        oracle = report.patterns["oracle"]
        assert len(against) == 2
        assert all(pattern is oracle for pattern in against)
        assert oracle.meta["unit_scale"] == 1.0
        assert np.max(oracle.intensity) == 1.0
        assert np.array_equal(cli._shape_normalized(oracle).intensity,
                              oracle.intensity)

    def test_partial_outputs_removed_on_failure(self, tmp_path):
        out = tmp_path / "out"
        (out / "summary.json").mkdir(parents=True)
        with pytest.raises(OSError):
            run_scenario(make_config(), out_dir=out)
        assert list(out.glob("*.csv")) == []


ALL_MODELS = "models = " + ", ".join(kind.value for kind in ModelKind) + "\n"


def spy_on_csv_writes(monkeypatch) -> list[str]:
    """The names of the files ``write_pattern_csv`` formats from here on."""
    names = []
    real = cli.write_pattern_csv

    def spy(pattern, path, *, x_cells=None):
        names.append(path.name)
        real(pattern, path, x_cells=x_cells)

    monkeypatch.setattr(cli, "write_pattern_csv", spy)
    return names


class TestRepeatedColumns:
    """``single_slit_a`` and ``standard_focused_a`` are one formula: a run
    formats that column once and copies the file."""

    @pytest.mark.parametrize("normalization",
                             [PEAK_SINGLE_SLIT, UNIT_INTEGRAL])
    def test_one_formula_is_formatted_once(self, tmp_path, monkeypatch,
                                           normalization):
        formatted = spy_on_csv_writes(monkeypatch)
        cfg = make_config(ALL_MODELS + "grid_points = 801\n"
                          f"normalization = {normalization}\n")
        report = run_scenario(cfg, out_dir=tmp_path)
        names = [f"pattern_{kind.value}.csv" for kind in ModelKind]
        assert [p.name for p in report.csv_paths] == names
        assert sorted(p.name for p in tmp_path.glob("*.csv")) == sorted(names)
        assert formatted == [name for name in names
                             if name != "pattern_standard_focused_a.csv"]
        assert (tmp_path / "pattern_standard_focused_a.csv").read_bytes() \
            == (tmp_path / "pattern_single_slit_a.csv").read_bytes()
        for path in report.csv_paths:  # each file holds its own pattern
            pattern = report.patterns[path.stem.removeprefix("pattern_")]
            data = np.loadtxt(path, delimiter=",", skiprows=1)
            assert np.array_equal(data[:, 0], pattern.x_m)
            assert np.array_equal(data[:, 1], pattern.intensity)

    def test_model_listed_twice_is_not_copied_onto_itself(self, tmp_path,
                                                          monkeypatch):
        formatted = spy_on_csv_writes(monkeypatch)
        cfg = make_config("models = standard_focused_a, single_slit_a, "
                          "standard_focused_a, single_slit_a\n"
                          "grid_points = 801\n")
        report = run_scenario(cfg, out_dir=tmp_path)
        assert [p.name for p in report.csv_paths] == [
            "pattern_standard_focused_a.csv", "pattern_single_slit_a.csv",
            "pattern_standard_focused_a.csv", "pattern_single_slit_a.csv"]
        assert formatted == ["pattern_standard_focused_a.csv"]
        assert (tmp_path / "pattern_standard_focused_a.csv").read_bytes() \
            == (tmp_path / "pattern_single_slit_a.csv").read_bytes()

    def test_failed_summary_removes_the_copies(self, tmp_path):
        out = tmp_path / "out"
        (out / "summary.json").mkdir(parents=True)
        with pytest.raises(OSError):
            run_scenario(make_config(ALL_MODELS + "grid_points = 801\n"),
                         out_dir=out)
        assert list(out.glob("*.csv")) == []

    def test_failed_copy_removes_its_partial_file(self, tmp_path,
                                                  monkeypatch):
        def broken_copy(source, target):
            Path(target).write_bytes(b"x_m,intensity\n")
            raise OSError(errno.ENOSPC, "no space left on device")

        monkeypatch.setattr(cli.shutil, "copyfile", broken_copy)
        with pytest.raises(OSError):
            run_scenario(make_config(ALL_MODELS + "grid_points = 801\n"),
                         out_dir=tmp_path)
        assert list(tmp_path.iterdir()) == []


class TestCsvMemory:
    """Peak traced allocation of a long CSV write stays under a fixed
    limit: rows are formatted and written in blocks."""

    LIMIT_BYTES = 4 * 2**20

    def test_long_pattern(self, tmp_path):
        # formatting all rows at once would trace about 70 MB here
        x = np.linspace(-2e-3, 3e-3, 200_000)
        pattern = IntensityPattern(x, np.cos(3e3 * x) ** 2 + 1e-3,
                                   PEAK_SINGLE_SLIT)
        tracemalloc.start()
        try:
            write_pattern_csv(pattern, tmp_path / "long.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < self.LIMIT_BYTES


def palindrome(n: int) -> np.ndarray:
    """A column of n values, equal to its own reverse bit for bit, whose
    upper half spans many decades and holds exact zeros."""
    k = np.arange(n - n // 2)
    half = np.cos(0.37 * k) ** 2 * 10.0 ** (k % 41 - 20)
    half[::97] = 0.0
    return np.concatenate((half[::-1][:n // 2], half))


class TestMirroredCsv:
    """A column that equals its own reverse bit for bit is formatted from
    its upper half, with the bytes of formatting each value; any other
    column, however near, is formatted whole."""

    @staticmethod
    def formatted(tmp_path, spy_on_formatting, intensity) -> int:
        """Write ``intensity`` with shared x cells, check the file against
        Python's per-value ``.17g`` rows, and return the count of
        intensity values formatted."""
        x = np.linspace(-1e-3, 1e-3, intensity.size)
        x_cells = list(column_cells(x, ","))
        sizes = spy_on_formatting()
        write_pattern_csv(IntensityPattern(x, intensity, PEAK_SINGLE_SLIT),
                          tmp_path / "p.csv", x_cells=x_cells)
        reference = "".join(f"{a:.17g},{b:.17g}\n" for a, b in zip(
            x.tolist(), intensity.tolist()))
        assert (tmp_path / "p.csv").read_bytes() \
            == ("x_m,intensity\n" + reference).encode("ascii")
        return sum(sizes)

    @pytest.mark.parametrize("n", [2, 3, 2 * BLOCK_ROWS, 2 * BLOCK_ROWS + 1,
                                   4001, 3 * BLOCK_ROWS + 6])
    def test_palindrome_formats_its_upper_half(self, tmp_path,
                                               spy_on_formatting, n):
        assert self.formatted(tmp_path, spy_on_formatting, palindrome(n)) \
            == n - n // 2

    def test_constant_column(self, tmp_path, spy_on_formatting):
        assert self.formatted(tmp_path, spy_on_formatting,
                              np.full(4001, 0.25)) == 2001

    @pytest.mark.parametrize("n", [4000, 4001])
    @pytest.mark.parametrize("row", [0, 5])
    def test_one_ulp_off_is_formatted_whole(self, tmp_path,
                                            spy_on_formatting, n, row):
        intensity = palindrome(n)
        intensity[row] = np.nextafter(intensity[row], np.inf)
        assert self.formatted(tmp_path, spy_on_formatting, intensity) == n

    def test_signed_zeros_are_formatted_whole(self, tmp_path,
                                              spy_on_formatting):
        # +0.0 and -0.0 compare equal, and -0.0 passes IntensityPattern's
        # i < 0 check, but their bits and their text ("0", "-0") differ.
        intensity = palindrome(4001)
        intensity[3], intensity[-4] = 0.0, -0.0
        assert self.formatted(tmp_path, spy_on_formatting, intensity) == 4001

    @staticmethod
    def formatted_per_file(monkeypatch, spy_on_formatting
                           ) -> dict[str, int]:
        """The count of intensity values formatted for each CSV
        ``write_pattern_csv`` writes from here on, by pattern name."""
        counts = {}
        sizes = spy_on_formatting()
        real = cli.write_pattern_csv

        def spy(pattern, path, *, x_cells=None):
            sizes.clear()
            real(pattern, path, x_cells=x_cells)
            counts[path.stem.removeprefix("pattern_")] = sum(sizes)

        monkeypatch.setattr(cli, "write_pattern_csv", spy)
        return counts

    def test_folded_oracle_and_washout_format_half(self, tmp_path,
                                                   monkeypatch,
                                                   spy_on_formatting):
        cfg = make_config("beam = plane\nalignment = cover_both\n"
                          "oracle = true\nwashout_theta = 2mrad\n")
        counts = self.formatted_per_file(monkeypatch, spy_on_formatting)
        report = run_scenario(cfg, out_dir=tmp_path)
        n = cfg.grid_points
        # standard_two_slit is even, so it mirrors itself on the symmetric
        # window too.
        assert counts == {"standard_two_slit": n - n // 2,
                          "oracle": n - n // 2, "washout": n - n // 2}
        for name in ("oracle", "washout"):
            data = np.loadtxt(tmp_path / f"pattern_{name}.csv",
                              delimiter=",", skiprows=1)
            assert np.array_equal(data[:, 1],
                                  report.patterns[name].intensity)

    @pytest.mark.parametrize("setup,symmetric", [
        ("beam = bessel\nradial_wavenumber = 2.4e6\nalignment = focus_a\n",
         True),
        ("grid_min = -1mm\ngrid_max = 3mm\n", False),
    ], ids=["signed_ring_bessel", "off_centre_window"])
    def test_unfolded_run_formats_every_value(self, tmp_path, monkeypatch,
                                              spy_on_formatting, setup,
                                              symmetric):
        # The oracle and its washout are formatted whole; standard_two_slit
        # is even, and mirrors itself on a symmetric window.
        cfg = make_config(setup + "oracle = true\nwashout_theta = 2mrad\n")
        counts = self.formatted_per_file(monkeypatch, spy_on_formatting)
        run_scenario(cfg, out_dir=tmp_path)
        n = cfg.grid_points
        assert counts == {"standard_two_slit": n - n // 2 if symmetric else n,
                          "oracle": n, "washout": n}


class TestOracleStart:
    """The oracle starts at the default nodes per interval, and the bench's
    beams on the HeNe plate still converge at its first doubling: the
    cheap start costs no extra level."""

    @pytest.mark.parametrize("beam", [
        "beam = plane\n",
        "beam = gaussian\nwaist = 2um\nalignment = focus_a\n",
        "beam = gaussian\nwaist = 4um\nalignment = focus_a\n",
        "beam = bessel\nradial_wavenumber = 1.2e6\nalignment = focus_a\n",
        "beam = bessel\nradial_wavenumber = 3e6\nalignment = focus_a\n",
    ], ids=["plane", "gaussian_2um", "gaussian_4um", "bessel_1.2e6",
            "bessel_3e6"])
    def test_bench_beams_converge_at_the_first_doubling(self, monkeypatch,
                                                        beam):
        cfg = make_config(beam + "oracle = true\n")
        phi = half_fringe_angle(cfg.geometry)
        thetas = (0.0, phi / 10, phi / 2, phi)
        args = (build_beam(cfg), build_apertures(cfg), cfg.geometry,
                shared_grid(cfg))
        levels = []
        fixed = oracle._amplitude_fixed

        def spy(beam, apertures, geom, x, n, groups):
            levels.append(n)
            return fixed(beam, apertures, geom, x, n, groups)

        monkeypatch.setattr(oracle, "_amplitude_fixed", spy)
        patterns = oracle.oracle_patterns(*args, cfg.quadrature, thetas,
                                          cfg.washout_tilts)
        start = oracle.QuadratureSpec().nodes_per_interval
        assert cfg.quadrature.nodes_per_interval == start
        assert levels == [start, 2 * start]
        references = oracle.oracle_patterns(
            *args, oracle.QuadratureSpec(nodes_per_interval=128), thetas,
            cfg.washout_tilts)
        for pattern, reference in zip(patterns, references):
            peak = np.max(pattern.intensity)
            assert np.max(np.abs(pattern.intensity - reference.intensity)) \
                <= 1e-14 * peak


class TestSweepScenario:
    def test_theta_sweep_washes_out_oracle(self):
        cfg = make_config("oracle = true\nwashout_tilts = 21\n")
        thetas = [0.0, 5e-3, 15e-3, 25e-3]
        rows = sweep_scenario(cfg, "theta", thetas)
        visibilities = [row["visibility_oracle"] for row in rows]
        assert visibilities[0] > 0.999
        assert all(hi > lo + 1e-6 for hi, lo in zip(visibilities,
                                                    visibilities[1:]))
        assert rows[0]["collimation_ok"]
        assert not rows[-1]["collimation_ok"]

    # Two models, unit_integral and a washout: a row must drop all three.
    ROW_CONFIG = ("oracle = true\nmodels = empty_wave_sum, standard_two_slit\n"
                  "normalization = unit_integral\nwashout_theta = 2mrad\n"
                  "washout_tilts = 11\ngrid_points = 801\n")

    def test_row_is_the_simulate_comparison(self):
        cfg = make_config(self.ROW_CONFIG)
        values = [10e-6, 12.6e-6]
        for row, d in zip(sweep_scenario(cfg, "d", values), values):
            one = replace(cfg, geometry=replace(cfg.geometry,
                                                slit_separation_m=d),
                          models=cfg.models[:1],
                          normalization=PEAK_SINGLE_SLIT,
                          washout_theta_rad=None)
            summary = run_scenario(one).summary
            feas = summary["feasibility"]
            model, oracle = summary["patterns"]
            assert (model["source"], oracle["source"]) == ("model", "oracle")
            assert row == {
                "parameter": "d",
                "value": d,
                "half_fringe_angle_rad": feas["half_fringe_angle_rad"],
                "collimation_ok": feas["collimation_ok"],
                "spot_fits_slit": feas["spot_fits_slit"],
                "fraunhofer_ok": feas["fraunhofer_ok"],
                "visibility_model": model["visibility_fringe_local"],
                "visibility_oracle": oracle["visibility_fringe_local"],
                "divergence_sup_relative":
                    summary["divergences"][0]["sup_relative"],
            }

    def test_theta_row_washes_out_only_the_oracle(self):
        cfg = make_config(self.ROW_CONFIG)
        theta = 5e-3
        row, = sweep_scenario(cfg, "theta", [theta])
        washed = oracle_pattern(build_beam(cfg), build_apertures(cfg),
                                cfg.geometry, shared_grid(cfg),
                                cfg.quadrature, theta, cfg.washout_tilts)
        assert row["visibility_oracle"] == visibility_fringe_local(
            washed, cfg.geometry)
        model = sample_pattern(ModelKind.EMPTY_WAVE_SUM, cfg.geometry,
                               shared_grid(cfg), PEAK_SINGLE_SLIT)
        assert row["visibility_model"] == visibility_fringe_local(
            model, cfg.geometry)

    def test_geometry_sweep_updates_fringe_angle(self):
        cfg = make_config()
        rows = sweep_scenario(cfg, "d", [12.6e-6, 25.2e-6])
        geom = cfg.geometry
        for row, d in zip(rows, (12.6e-6, 25.2e-6)):
            expected = half_fringe_angle(
                type(geom)(geom.wavelength_m, geom.slit_width_m, d,
                           geom.screen_distance_m))
            assert row["half_fringe_angle_rad"] == pytest.approx(expected,
                                                                 rel=1e-12)

    def test_wavelength_sweep(self):
        rows = sweep_scenario(make_config(), "wavelength", [500e-9])
        assert rows[0]["value"] == 500e-9
        assert rows[0]["visibility_model"] > 0.999

    def test_invalid_parameter(self):
        with pytest.raises(ConfigError, match="sweep parameter"):
            sweep_scenario(make_config(), "tilt", [0.0])

    def test_invalid_swept_geometry(self):
        with pytest.raises(ConfigError):
            sweep_scenario(make_config(), "s", [20e-6])

    def test_swept_geometry_error_names_the_parameter(self):
        with pytest.raises(ConfigError) as excinfo:
            sweep_scenario(make_config(), "d", [1e-6])
        assert excinfo.value.key == "d"

    def test_empty_values_give_header_only(self):
        assert sweep_scenario(make_config(), "theta", []) == []


class TestSharedSweep:
    """A theta or spot_width sweep checks every value, then runs one
    pre-flight, one model sample and one oracle_patterns call over its
    distinct spreads; each row is the one the comparison of its value
    alone gives."""

    # Two models, unit_integral and a washout: a row must drop all three.
    CONFIG = ("oracle = true\nmodels = empty_wave_sum, standard_two_slit\n"
              "normalization = unit_integral\nwashout_theta = 2mrad\n"
              "washout_tilts = 21\ngrid_points = 801\n")
    FIELDS = {"theta": "focusing_angle_rad", "spot_width": "spot_width_m"}

    @classmethod
    def comparison_row(cls, cfg, parameter, value) -> dict:
        """The row of ``value`` from the comparison of that value alone,
        its oracle washed out over ``value`` when sweeping theta."""
        one = replace(cfg, models=cfg.models[:1],
                      normalization=PEAK_SINGLE_SLIT, washout_theta_rad=None,
                      **{cls.FIELDS[parameter]: value})
        summary, _ = cli._compare(one, value if parameter == "theta" else 0.0)
        feas = summary["feasibility"]
        model, oracle = summary["patterns"]
        assert (model["source"], oracle["source"]) == ("model", "oracle")
        return {
            "parameter": parameter,
            "value": value,
            "half_fringe_angle_rad": feas["half_fringe_angle_rad"],
            "collimation_ok": feas["collimation_ok"],
            "spot_fits_slit": feas["spot_fits_slit"],
            "fraunhofer_ok": feas["fraunhofer_ok"],
            "visibility_model": model["visibility_fringe_local"],
            "visibility_oracle": oracle["visibility_fringe_local"],
            "divergence_sup_relative":
                summary["divergences"][0]["sup_relative"],
        }

    @pytest.mark.parametrize("setup,parameter,values", [
        ("", "theta", [0.0, 2e-3, 2e-3, 10e-3, 0.0]),
        ("beam = gaussian\nwaist = 3um\nalignment = focus_a\n", "theta",
         [1e-3, 0.0, 3e-3]),
        ("", "spot_width", [5e-6, 12.6e-6, 30e-6]),
    ], ids=["theta_repeated", "theta_focus_a", "spot_width"])
    def test_rows_are_the_per_value_comparison(self, setup, parameter,
                                               values):
        cfg = make_config(setup + self.CONFIG)
        assert sweep_scenario(cfg, parameter, values) == [
            self.comparison_row(cfg, parameter, value) for value in values]

    @pytest.mark.parametrize("parameter,values,spreads", [
        ("theta", [0.0, 2e-3, 2e-3, 10e-3], [0.0, 2e-3, 10e-3]),
        ("spot_width", [5e-6, 12.6e-6, 30e-6], [0.0]),
    ])
    def test_one_pass_per_sweep(self, monkeypatch, parameter, values,
                                spreads):
        calls = {"_preflight": [], "sample_pattern": [],
                 "oracle_patterns": []}
        for name, seen in calls.items():
            def spy(*args, real=getattr(cli, name), seen=seen, **kwargs):
                seen.append(args)
                return real(*args, **kwargs)

            monkeypatch.setattr(cli, name, spy)
        sweep_scenario(make_config(self.CONFIG), parameter, values)
        assert len(calls["_preflight"]) == 1
        assert len(calls["sample_pattern"]) == 1
        [args] = calls["oracle_patterns"]
        assert list(args[5]) == spreads

    def test_batches_hold_two_washouts_and_the_plain_pattern(self):
        thetas = [0.0, 1e-3, 2e-3, 3e-3, 4e-3, 5e-3]
        assert list(cli._spread_batches(thetas, 101)) == [
            [0.0, 1e-3, 2e-3], [3e-3, 4e-3], [5e-3]]
        assert list(cli._spread_batches([0.0, 1e-3], 101)) == [[0.0, 1e-3]]
        assert list(cli._spread_batches([0.0, 1e-3, 2e-3, 3e-3], 1)) == [
            [0.0, 1e-3, 2e-3], [3e-3]]

    def test_oracle_memory_does_not_grow_with_the_value_count(self):
        cfg = make_config("oracle = true\n")
        phi = half_fringe_angle(cfg.geometry)

        def peak(count: int) -> int:
            values = np.linspace(0.0, 2.0 * phi, count).tolist()
            tracemalloc.start()
            try:
                sweep_scenario(cfg, "theta", values)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(2)  # tables built on first use are not the sweep's
        assert peak(33) <= 1.25 * peak(3)

    def test_later_value_out_of_range_exits_before_oracle_work(
            self, tmp_path, capsys, monkeypatch):
        calls = []
        for module, name in ((cli, "sample_pattern"),
                             (oracle, "fraunhofer_amplitude")):
            def spy(*args, real=getattr(module, name), **kwargs):
                calls.append(args)
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, spy)
        path = TestMain.write_config(tmp_path, "oracle = true\n")
        assert main(["sweep", "--config", str(path), "--param", "theta",
                     "--values", "0,2mrad,2"]) == EXIT_CONFIG
        assert "(key 'focusing_angle')" in capsys.readouterr().err
        with pytest.raises(ConfigError) as info:
            sweep_scenario(make_config("oracle = true\n"), "d",
                           [12.6e-6, 1e-6])
        assert info.value.key == "d"
        assert calls == []

    @pytest.mark.parametrize("parameter,values", [
        ("theta", "0,2mrad"), ("spot_width", "5um,10um")])
    def test_dark_spot_names_the_beam_scale(self, tmp_path, capsys,
                                            parameter, values):
        path = TestMain.write_config(
            tmp_path, "beam = gaussian\nalignment = focus_a\n"
                      "waist = 1e-300m\noracle = true\n")
        assert main(["sweep", "--config", str(path), "--param", parameter,
                     "--values", values]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "identically zero" in err and "(key 'waist')" in err


class TestFormatSweepCsv:
    def test_header_only_for_no_rows(self):
        text = format_sweep_csv([])
        assert text.startswith("parameter,value,")
        assert text.endswith("\n")
        assert len(text.splitlines()) == 1

    def test_cell_formatting(self):
        rows = sweep_scenario(make_config("oracle = true\n"
                                          "washout_tilts = 21\n"),
                              "theta", [0.0])
        text = format_sweep_csv(rows)
        header, line = text.splitlines()
        cells = dict(zip(header.split(","), line.split(",")))
        assert cells["parameter"] == "theta"
        assert cells["collimation_ok"] == "true"
        assert cells["spot_fits_slit"] == "false"
        assert float(cells["visibility_oracle"]) > 0.999

    def test_none_becomes_empty_cell(self):
        rows = sweep_scenario(make_config(), "theta", [0.0])
        line = format_sweep_csv(rows).splitlines()[1]
        assert line.endswith(",,")


class TestMain:
    @staticmethod
    def write_config(tmp_path, extra=""):
        # A key set in ``extra`` replaces the base line that sets it.
        keys = {line.split("=")[0].strip() for line in extra.splitlines()}
        base = "".join(line for line in BASE_CONFIG.splitlines(keepends=True)
                       if line.split("=")[0].strip() not in keys)
        path = tmp_path / "scenario.cfg"
        path.write_text(base + extra, encoding="utf-8")
        return path

    def test_simulate_success(self, tmp_path, capsys):
        path = self.write_config(tmp_path)
        assert main(["simulate", "--config", str(path)]) == EXIT_OK
        summary = json.loads(capsys.readouterr().out)
        assert summary["tool"] == "whichway"
        jsonschema.validate(instance=summary, schema=SUMMARY_SCHEMA)

    def test_simulate_with_out_dir(self, tmp_path, capsys):
        path = self.write_config(tmp_path)
        out = tmp_path / "results"
        assert main(["simulate", "--config", str(path),
                     "--out-dir", str(out)]) == EXIT_OK
        capsys.readouterr()
        assert (out / "summary.json").exists()
        assert (out / "pattern_standard_two_slit.csv").exists()

    def test_longest_csv_prefix_writes(self, tmp_path, capsys):
        # 232 bytes of prefix in 116 characters: the longest name a run
        # writes, <prefix>_standard_focused_a.csv, takes all 255 bytes.
        prefix = "µ" * 116
        path = self.write_config(tmp_path, f"csv_prefix = {prefix}\n"
                                 "models = standard_focused_a, pure_fringe\n")
        out = tmp_path / "results"
        assert main(["simulate", "--config", str(path),
                     "--out-dir", str(out)]) == EXIT_OK
        summary = json.loads(capsys.readouterr().out)
        names = [entry["csv"] for entry in summary["patterns"]]
        assert names == [f"{prefix}_standard_focused_a.csv",
                         f"{prefix}_pure_fringe.csv"]
        assert len(names[0].encode()) == 255
        assert sorted(p.name for p in out.iterdir()) \
            == sorted(names + ["summary.json"])

    def test_simulate_prints_summary_json(self, tmp_path, capsys,
                                          monkeypatch):
        # The summary is encoded once: stdout is summary.json less its
        # final newline, which print adds back.
        encoded = []
        real = cli._json_text

        def spy(value):
            encoded.append(value)
            return real(value)

        monkeypatch.setattr(cli, "_json_text", spy)
        path = self.write_config(tmp_path, "washout_theta = 2mrad\n"
                                           "washout_tilts = 11\n")
        out = tmp_path / "results"
        assert main(["simulate", "--config", str(path),
                     "--out-dir", str(out)]) == EXIT_OK
        text = (out / "summary.json").read_text(encoding="ascii")
        assert text.endswith("}\n")
        assert capsys.readouterr().out == text
        assert len(encoded) == 1

    def test_config_error_exits_1(self, tmp_path, capsys):
        path = self.write_config(tmp_path, "alignment = sideways\n")
        assert main(["simulate", "--config", str(path)]) == EXIT_CONFIG
        assert "error:" in capsys.readouterr().err

    def test_missing_config_exits_3(self, tmp_path, capsys):
        missing = tmp_path / "nope.cfg"
        assert main(["simulate", "--config", str(missing)]) == EXIT_IO
        assert "error:" in capsys.readouterr().err

    def test_coarse_grid_fails_before_the_oracle(self, tmp_path, capsys,
                                                 monkeypatch):
        calls = []
        real = oracle.fraunhofer_amplitude

        def spy(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(oracle, "fraunhofer_amplitude", spy)
        # The golden run whose oracle cannot converge, on a grid too coarse
        # for its fringes.
        beam = ("beam = bessel\nradial_wavenumber = 3e6\n"
                "alignment = focus_b\nring_phase_flips = false\n"
                "oracle = true\nmodels = empty_wave_b\n")
        path = self.write_config(tmp_path, beam + "grid_min = -1mm\n"
                                 "grid_max = 1mm\ngrid_points = 3\n")
        sweep = ["sweep", "--config", str(path), "--param", "d",
                 "--values", "12.6um"]
        assert main(sweep) == EXIT_CONFIG
        assert "(key 'grid_points')" in capsys.readouterr().err
        assert calls == []
        # The spy sees the oracle of a grid fine enough to pass.
        path = self.write_config(tmp_path, "oracle = true\n")
        assert main(sweep) == EXIT_OK
        assert calls

    def test_non_convergence_exits_2(self, tmp_path, capsys):
        # A screen point 100 m off axis needs far more quadrature nodes than
        # the refinement cap allows.  The grid is fine enough to pass the
        # resolution check, which runs before the oracle.
        path = self.write_config(tmp_path,
                                 "oracle = true\ngrid_min = 99.9995m\n"
                                 "grid_max = 100m\ngrid_points = 2\n")
        assert main(["simulate", "--config",
                     str(path)]) == EXIT_NO_CONVERGENCE
        err = capsys.readouterr().err
        assert "converge" in err
        self.assert_refinement_history(err)

    @staticmethod
    def assert_refinement_history(err):
        # one "nodes: max |diff| / scale" line per level under the error
        lines = err.splitlines()
        assert lines[0].startswith("error: ")
        assert lines[1].startswith("refinement history")
        levels = [line.split(":") for line in lines[2:]]
        quad = oracle.QuadratureSpec()
        assert [int(nodes) for nodes, _ in levels] == [
            quad.nodes_per_interval << level
            for level in range(1, quad.max_refinements + 1)]
        assert all(float(ratio) > 1e-12 for _, ratio in levels)

    def test_bessel_kinks_report_refinement_history(self, tmp_path, capsys):
        # |J0| has kinks inside slit B without ring phase flips, so the
        # Gauss-Legendre doubling stalls
        path = self.write_config(tmp_path,
                                 "beam = bessel\nradial_wavenumber = 3e6\n"
                                 "alignment = focus_b\n"
                                 "ring_phase_flips = false\noracle = true\n"
                                 "models = empty_wave_b\n")
        assert main(["simulate", "--config",
                     str(path)]) == EXIT_NO_CONVERGENCE
        err = capsys.readouterr().err
        assert "Traceback" not in err
        self.assert_refinement_history(err)

    def test_bad_flag_exits_1(self, tmp_path, capsys):
        path = self.write_config(tmp_path)
        code = main(["sweep", "--config", str(path), "--param", "tilt",
                     "--values", "1mrad"])
        capsys.readouterr()
        assert code == EXIT_CONFIG

    def test_version_exits_0(self, capsys):
        assert main(["--version"]) == EXIT_OK
        assert "whichway" in capsys.readouterr().out

    def test_parser_is_built_once_and_reused(self, tmp_path, capsys):
        path = self.write_config(tmp_path)
        calls = [
            (["sweep", "--config", str(path), "--param", "tilt",
              "--values", "1mrad"], EXIT_CONFIG),
            (["--version"], EXIT_OK),
            (["check", "--config", str(path)], EXIT_OK),
            (["mzi", "--mode", "marker", "--a", "0.8", "--b", "0.6"],
             EXIT_OK),
        ]

        def run(argv):
            return main(argv), capsys.readouterr()

        first = []  # each call on a newly built parser
        for argv, _ in calls:
            cli._parser.cache_clear()
            first.append(run(argv))
        cli._parser.cache_clear()
        reused = [run(argv) for argv, _ in calls]
        assert cli._parser.cache_info().misses == 1
        assert [code for code, _ in reused] == [code for _, code in calls]
        assert reused == first

    def test_sweep_to_file(self, tmp_path, capsys):
        path = self.write_config(tmp_path)
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--config", str(path), "--param", "theta",
                     "--values", "0,2mrad", "--out", str(out)])
        capsys.readouterr()
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0].startswith("parameter,")
        assert len(lines) == 3

    def test_sweep_bad_value_exits_1(self, tmp_path, capsys):
        path = self.write_config(tmp_path)
        code = main(["sweep", "--config", str(path), "--param", "theta",
                     "--values", "fast"])
        assert code == EXIT_CONFIG
        assert "error:" in capsys.readouterr().err

    def test_check_subcommand(self, tmp_path, capsys):
        path = self.write_config(tmp_path)
        assert main(["check", "--config", str(path)]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["half_fringe_angle_rad"] == pytest.approx(0.0251,
                                                                abs=2e-4)
        assert report["collimation_ok"] is True
        assert report["spot_fits_slit"] is False

    def test_mzi_knockout(self, capsys):
        assert main(["mzi", "--mode", "knockout"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["which_way_value"] == 1.0
        assert report["visibility"] == pytest.approx(1.0, abs=1e-12)
        assert report["duality_sum"] == pytest.approx(2.0, abs=1e-12)
        assert report["inequality_satisfied"] is False
        assert report["detected_fraction"] == 0.5

    def test_mzi_asymmetric(self, capsys):
        a, b = math.sqrt(0.9), math.sqrt(0.1)
        assert main(["mzi", "--mode", "asymmetric", "--a", str(a),
                     "--b", str(b)]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["which_way_value"] == pytest.approx(0.8, rel=1e-9)
        assert report["visibility"] == pytest.approx(0.6, rel=1e-9)
        assert report["duality_sum"] == pytest.approx(1.0, abs=1e-12)

    def test_mzi_blocked_without_arm_a_exits_1(self, capsys):
        code = main(["mzi", "--mode", "blocked", "--a", "0", "--b", "0.7"])
        assert code == EXIT_CONFIG
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["open", "asymmetric", "blocked"])
    def test_mzi_underflowing_amplitudes_exit_1(self, capsys, mode):
        # a*a + b*b underflows to 0 although a and b are positive
        code = main(["mzi", "--mode", mode, "--a", "1e-200", "--b", "1e-200"])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error: ")

    def test_mzi_phase_offset_flag_is_gone(self, capsys):
        code = main(["mzi", "--mode", "open", "--phase-offset", "0.3"])
        assert code == EXIT_CONFIG
        assert "--phase-offset" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,extra,key", [
        (["check"], "oracle_nodes = 4\n", "oracle_nodes"),
        (["check"], "oracle_rtol = 2\n", "oracle_rtol"),
        (["check"], "oracle_refinements = 0\n", "oracle_refinements"),
        # An output name must stay inside the output directory, and the
        # longest, <prefix>_standard_focused_a.csv, within 255 bytes: 233
        # bytes of prefix in 117 characters are one byte too many.
        *((argv, f"csv_prefix = {prefix}\n", "csv_prefix")
          for argv in (["check"], ["simulate", "--out-dir", "{out}"])
          for prefix in ("../escaped", "sub/p", "a\0b", "a" * 233,
                         "µ" * 116 + "a")),
        (["check"], "grid_min = -1mm\ngrid_max = 1mm\ngrid_points = 1\n",
         "grid_points"),
        (["check"], "grid_min = 1mm\ngrid_max = -1mm\n", "grid_min"),
        (["check"], "grid_min = -1mm\ngrid_max = 1mm\ngrid_points = 3\n",
         "grid_points"),
        (["simulate"], "grid_min = -1mm\ngrid_max = 1mm\ngrid_points = 3\n",
         "grid_points"),
        (["sweep", "--param", "d", "--values", "12.6um"],
         "grid_min = -1mm\ngrid_max = 1mm\ngrid_points = 3\n", "grid_points"),
        (["sweep", "--param", "wavelength", "--values", "30um"], "",
         "wavelength"),
        # A swept plate length keeps its key's rule and s < d < D.
        (["sweep", "--param", "s", "--values", "0um"], "", "s"),
        (["sweep", "--param", "s", "--values", "13um"], "", "s"),
        (["sweep", "--param", "D", "--values", "1e-300m"], "", "D"),
        (["mzi", "--mode", "open", "--a", "0.5", "--b", "-0.5"], None, "--b"),
        (["mzi", "--mode", "open", "--a", "-0.5", "--b", "0.5"], None, "--a"),
        (["mzi", "--mode", "open", "--a", "nan"], None, "--a"),
        (["mzi", "--mode", "knockout", "--b", "inf"], None, "--b"),
        # a^2 + b^2 > 1, a^2 + b^2 = 0 and a veto mode's a = 0 involve
        # --a; a rule on both names the first key
        (["mzi", "--mode", "open", "--a", "0.9", "--b", "0.9"], None, "--a"),
        (["mzi", "--mode", "open", "--a", "0", "--b", "0"], None, "--a"),
        (["mzi", "--mode", "blocked", "--a", "0", "--b", "0.5"], None,
         "--a"),
        # A spot far narrower than the node spacing lights no node, so the
        # oracle pattern is identically zero; at 1e-300 m, (xi / w)^2
        # overflows to inf first.
        (["simulate"], "beam = gaussian\nalignment = focus_a\n"
                       "waist = 1e-30m\noracle = true\n", "waist"),
        (["simulate"], "beam = gaussian\nalignment = focus_a\n"
                       "waist = 1e-300m\noracle = true\n", "waist"),
        # Every angular spread keeps the bound of a single tilt, the swept
        # theta included.
        (["check"], "washout_theta = 90deg\n", "washout_theta"),
        (["check"], "focusing_angle = 2\n", "focusing_angle"),
        (["sweep", "--param", "theta", "--values", "2"], "",
         "focusing_angle"),
        # A count that sizes an array is rejected before any array exists.
        *((argv, extra, key)
          for argv in (["check"], ["simulate"])
          for extra, key in (
              ("grid_points = 1000000000000\n", "grid_points"),
              ("oracle = true\nwashout_theta = 5mrad\n"
               "washout_tilts = 1000000000001\n", "washout_tilts"))),
        # The starting node count sizes leggauss's companion matrix; the
        # oracle stays off, so a count past the rule would allocate nothing.
        *((argv, "oracle_nodes = 4097\n", "oracle_nodes")
          for argv in (["check"], ["simulate", "--out-dir", "{out}"],
                       ["sweep", "--param", "d", "--values", "12.6um"])),
        # The refinement budget: 16 nodes doubled 10 times pass 8,192, and
        # a 13-digit count is rejected before 2^count is formed.
        *((argv, "oracle = true\noracle_nodes = 16\n"
                 f"oracle_refinements = {refinements}\n", "oracle_refinements")
          for refinements in (10, 10 ** 12)
          for argv in (["check"], ["simulate", "--out-dir", "{out}"],
                       ["sweep", "--param", "d", "--values", "12.6um"])),
        # check samples the beam on the oracle's node levels, so it rejects
        # the spot that simulate rejects; at 9 nodes the spot lights the
        # first level's middle node alone, and the next two levels none.
        *((["check"], "beam = gaussian\nalignment = focus_a\n"
                      "waist = 1e-30m\noracle = true\ngrid_points = 401\n"
                      f"washout_tilts = 11\n{nodes}", "waist")
          for nodes in ("", "oracle_nodes = 9\n")),
        # With one refinement, the middle node lights the first level so
        # faintly (its |field * weight|, 3.3e-7, is at most oracle_rtol /
        # sqrt(washout_tilts)) that the oracle's estimate agrees with the
        # next level's zeros; check rejects that spot as simulate does.
        *((argv, "beam = gaussian\nalignment = focus_a\nwaist = 1e-30m\n"
                 "oracle = true\noracle_nodes = 9\noracle_refinements = 1\n"
                 "oracle_rtol = 1e-3\ngrid_points = 401\n", "waist")
          for argv in (["check"], ["simulate", "--out-dir", "{out}"])),
    ])
    def test_error_names_its_own_key(self, tmp_path, capsys, argv, extra,
                                     key):
        argv = [a.replace("{out}", str(tmp_path / "out" / "o")) for a in argv]
        if extra is not None:
            argv = argv + ["--config", str(self.write_config(tmp_path, extra))]
        # pytest records warnings instead of printing them, so catch them
        # here: a failing run prints its error and nothing else.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv) == EXIT_CONFIG
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] \
            == []
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert f"(key '{key}'" in err
        # A rule reads "<name> must be", never with a dataclass field.
        assert "_m must" not in err
        # A rejected run writes nothing, inside the output directory or out.
        assert [p.name for p in tmp_path.rglob("*") if p.is_file()] \
            == (["scenario.cfg"] if extra is not None else [])

    @pytest.mark.parametrize("refinements,code", [
        (1, EXIT_NO_CONVERGENCE), (2, EXIT_CONFIG)])
    def test_check_walks_the_node_levels(self, tmp_path, capsys, refinements,
                                         code):
        # At 9 nodes a 1e-30 m spot lights the first level's middle node
        # alone.  With one refinement the oracle compares that estimate with
        # the second level's zeros and does not converge, which check cannot
        # tell; with two it converges on the zeros of the second and third
        # levels, which check rejects as simulate does.
        path = self.write_config(
            tmp_path, "beam = gaussian\nalignment = focus_a\n"
                      "waist = 1e-30m\noracle = true\noracle_nodes = 9\n"
                      f"oracle_refinements = {refinements}\n")
        assert main(["simulate", "--config", str(path)]) == code
        assert main(["check", "--config", str(path)]) \
            == (EXIT_OK if code == EXIT_NO_CONVERGENCE else code)

    def test_check_accepts_the_largest_budget(self, tmp_path, capsys):
        # 16 nodes doubled 9 times reach the bound, 8,192; check samples
        # the beam until two levels in a row light a node, the first two.
        path = self.write_config(tmp_path, "oracle = true\n"
                                 "oracle_nodes = 16\noracle_refinements = 9\n")
        assert main(["check", "--config", str(path)]) == EXIT_OK
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("extra,key", [
        ("alpha = 1e308\n", "alpha"),
        ("alpha = 1e200\nbeta = 1e200\n", "alpha"),
        ("alpha = 1e-200\nbeta = 1e-200\n", "alpha"),
        ("alpha = 0\nbeta = 0\n", "alpha"),
        ("alpha = -0.5\n", "alpha"),
        ("beta = inf\n", "beta"),
        ("beta = nan\n", "beta"),
        ("beam = bessel\nalignment = focus_a\nradial_wavenumber = nan\n",
         "radial_wavenumber"),
        ("beam = gaussian\nwaist = -1um\n", "waist"),
        ("spot_width = -1um\n", "spot_width"),
        ("spot_width = 0\n", "spot_width"),
        ("spot_width = 1e400um\n", "spot_width"),
        ("washout_theta = -1mrad\n", "washout_theta"),
        ("washout_theta = 1e400\n", "washout_theta"),
        ("tilt = 1e308\noracle = true\n", "tilt"),
        ("tilt = -1.6\n", "tilt"),
        ("tilt = 90deg\n", "tilt"),
        ("focusing_angle = -1mrad\n", "focusing_angle"),
        ("focusing_angle = 1e400\n", "focusing_angle"),
        # The plate: a bad length, s >= d, D <= d and lambda > 2 d.
        ("wavelength = 1e400\n", "wavelength"),
        ("wavelength = 0\n", "wavelength"),
        ("slit_width = -2um\n", "slit_width"),
        ("slit_separation = -12.6um\n", "slit_separation"),
        ("screen_distance = 1e400um\n", "screen_distance"),
        ("slit_width = 20um\n", "slit_width"),
        ("slit_width = 12.6um\n", "slit_width"),
        ("screen_distance = 10um\n", "screen_distance"),
        ("wavelength = 30um\n", "wavelength"),
        # The screen window derived from this plate is not finite.
        ("wavelength = 1e308\nslit_width = 1um\nslit_separation = 1e308\n"
         "screen_distance = 1.5e308\n", "grid_min"),
        # On a finite window, the derived spot width 2 (d + s) is not.
        ("wavelength = 1e308\nslit_width = 1um\nslit_separation = 1e308\n"
         "screen_distance = 1.5e308\ngrid_min = -1m\ngrid_max = 1m\n"
         "grid_points = 11\n", "spot_width"),
        ("beam = gaussian\nwaist = 1e308\n", "spot_width"),
        # A model's phase overflows on the grid.
        *((plate + OVERFLOW_WINDOW, "slit_separation")
          for plate in OVERFLOW_PLATES.values()),
        # A window a model washout shifts the grid to is not valid.
        *((plate, "washout_theta")
          for plate in WASHOUT_WINDOW_PLATES.values()),
        *((grid, "grid_points") for grid in NARROW_GRIDS),
    ])
    @pytest.mark.filterwarnings("error")
    def test_out_of_range_value_names_key(self, tmp_path, capsys, extra, key):
        path = self.write_config(tmp_path,
                                 "models = general_two_slit\n" + extra)
        for command in ("simulate", "check"):
            assert main([command, "--config", str(path)]) == EXIT_CONFIG
            err = capsys.readouterr().err
            assert err.startswith("error: ")
            assert f"(key '{key}'" in err
            assert "Traceback" not in err

    @pytest.mark.filterwarnings("error")
    def test_overflow_of_another_model_does_not_stop_a_run(self, tmp_path,
                                                           capsys):
        path = self.write_config(tmp_path, OVERFLOW_PLATES["two_pi_d_x"]
                                 + OVERFLOW_WINDOW
                                 + "models = standard_two_slit\n")
        for command in ("check", "simulate"):
            assert main([command, "--config", str(path)]) == EXIT_OK
            assert capsys.readouterr().err == ""

    def test_far_plate_runs(self, tmp_path, capsys):
        # (d + s)^2 overflows: the far-field threshold reads inf
        path = self.write_config(tmp_path, "slit_separation = 1e200\n"
                                 "screen_distance = 1e201\ngrid_min = -1um\n"
                                 "grid_max = 1um\ngrid_points = 401\n")
        for command in ("check", "simulate"):
            assert main([command, "--config", str(path)]) == EXIT_OK
            out = json.loads(capsys.readouterr().out)
            feas = out.get("feasibility", out)
            assert feas["fraunhofer_ok"] is False
            assert "far-field threshold inf m" in feas["messages"][-1]

    @pytest.mark.parametrize("value", ["-1mrad", "1e400"])
    def test_sweep_out_of_range_theta_names_key(self, tmp_path, capsys,
                                                value):
        path = self.write_config(tmp_path, "models = general_two_slit\n")
        assert main(["sweep", "--config", str(path), "--param", "theta",
                     f"--values={value}"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "(key 'focusing_angle'" in err
        assert "Traceback" not in err

    def test_io_failure_cleans_partial_outputs(self, tmp_path, capsys):
        path = self.write_config(tmp_path)
        out = tmp_path / "broken"
        (out / "summary.json").mkdir(parents=True)
        assert main(["simulate", "--config", str(path),
                     "--out-dir", str(out)]) == EXIT_IO
        capsys.readouterr()
        assert list(out.glob("*.csv")) == []

    def test_failed_summary_write_leaves_no_summary(self, tmp_path, capsys,
                                                    monkeypatch):
        def full_disk(text, path):
            Path(path).write_text(text[:10], encoding="ascii")
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(cli, "write_summary_json", full_disk)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(self.write_config(tmp_path)),
                     "--out-dir", str(out)]) == EXIT_IO
        assert "No space left" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("beam,key", [
        ("beam = gaussian\nwaist = 3um\n", "waist"),
        ("beam = bessel\nradial_wavenumber = 1e6\n", "radial_wavenumber"),
    ])
    def test_dark_oracle_names_the_beam_scale(self, monkeypatch, beam, key):
        def dark(*args, **kwargs):
            raise oracle.DarkPatternError("oracle pattern is identically zero")

        monkeypatch.setattr(cli, "oracle_patterns", dark)
        cfg = parse_config(BASE_CONFIG + beam + "oracle = true\n")
        with pytest.raises(ConfigError, match="identically zero") as info:
            run_scenario(cfg)
        assert info.value.key == key


def powers_of_ten(lo: int, hi: int):
    return st.integers(lo, hi).map(lambda k: 10.0 ** k)


class TestPreflightPhases:
    """The pre-flight samples the models at the grid's two ends only when
    the bound 2 pi (d + s)(|x| + d) / (lambda D) on their phases nears
    overflow.  Over plates and windows from 1e-300 to 1e308 m, it rejects
    a phase overflow exactly when some model cannot be sampled there."""

    def test_ordinary_plate_samples_no_model(self, monkeypatch):
        # Far from overflow the bound alone clears the plate, so the
        # pre-flight of an eight-model config evaluates nothing.
        calls = []
        real = cli.sample_pattern

        def spy(*args, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "sample_pattern", spy)
        cfg = replace(make_config(), models=tuple(ModelKind))
        cli._preflight(cfg)
        assert calls == []
        plate = parse_config(OVERFLOW_PLATES["two_pi_d_x"] + OVERFLOW_WINDOW)
        with pytest.raises(ConfigError):
            cli._preflight(replace(plate, models=tuple(ModelKind)))
        assert calls  # near overflow the models are sampled at the ends

    @settings(max_examples=300, deadline=None, derandomize=True,
              database=None)
    @given(s=powers_of_ten(-300, 300), d_over_s=powers_of_ten(0, 20),
           lam_over_d=st.sampled_from([1e-300, 1e-100, 1e-20, 1e-3, 1.9]),
           big_over_d=powers_of_ten(0, 20),
           centre=st.sampled_from([-1.0, 0.0, 1.0]),
           centre_scale=powers_of_ten(-300, 308),
           periods=powers_of_ten(-12, -2), points=st.sampled_from([2, 11]))
    def test_rejects_exactly_what_a_model_cannot_sample(
            self, s, d_over_s, lam_over_d, big_over_d, centre, centre_scale,
            periods, points):
        d = 1.5 * s * d_over_s
        try:
            geom = SlitGeometry(lam_over_d * d, s, d, 1.5 * big_over_d * d)
            x0 = centre * centre_scale
            half = periods * geom.wavelength_m * geom.screen_distance_m / d
            cfg = ScenarioConfig(geometry=geom, models=tuple(ModelKind),
                                 alpha=0.6, beta=0.3, spot_width_m=1e-6,
                                 grid_min_m=x0 - half, grid_max_m=x0 + half,
                                 grid_points=points)
        except ValueError:
            return  # not a plate or not a window
        try:
            cli._preflight(cfg)
            rejected = False
        except ConfigError as exc:
            if exc.key != "slit_separation":
                return  # rejected before the models, say for resolution
            rejected = True
        ends = GridSpec(cfg.grid_min_m, cfg.grid_max_m, 2)
        failing = []
        with np.errstate(all="ignore"):
            for kind in ModelKind:
                try:
                    sample_pattern(kind, geom, ends, PEAK_SINGLE_SLIT,
                                   cfg.alpha, cfg.beta)
                except ValueError:
                    failing.append(kind)
        assert rejected == bool(failing)
