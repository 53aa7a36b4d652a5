"""End-to-end tests for the experiment driver.

Configs are written to temp files and executed in process through
``cli.main`` so exit codes, stdout, and output files are all observable.
Expected numbers quoted here were pinned from seeded runs of the same
configs.
"""

import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import freesum.cli as cli
import freesum.geometry as geometry
from freesum.errors import ConvergenceError, InversionQualityError
from freesum.freeconv import CDF_TOL
from freesum.freeentropy import EntropyReport
from freesum.geometry import CheckReport, VolumeEstimate
from freesum.measure import moment, semicircle

from helpers import measure_from_json

SEMICIRCLE = {"family": "semicircle", "params": [1.0]}
BERNOULLI_SYM = {"family": "bernoulli", "params": [0.5, -1.0, 1.0]}
SC_PROFILE = {"quantiles_of": SEMICIRCLE}


def write_config(tmp_path, config, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(config, indent=2))
    return path


def run_cli(tmp_path, config, *extra, name="config.json"):
    path = write_config(tmp_path, config, name)
    return cli.main(["--config", str(path), *extra])


def last_stdout_json(capsys):
    out = capsys.readouterr().out
    return json.loads(out)


class TestValidation:
    def test_unknown_command_exits_1_with_line(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text('{\n  "command": "banana",\n  "params": {}\n}\n')
        assert cli.main(["--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert f"{path}:2:" in err
        assert "banana" in err

    def test_nested_schema_error_points_at_offending_line(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(
            "{\n"
            '  "command": "epi",\n'
            '  "params": {\n'
            '    "alpha": {"family": "semicircle", "params": [1.0]},\n'
            '    "beta": {"family": "gaussian", "params": [1.0]}\n'
            "  }\n"
            "}\n"
        )
        assert cli.main(["--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert f"{path}:5:" in err
        assert "gaussian" in err

    @staticmethod
    def write_disk_pair_config(tmp_path, *param_lines):
        """A theorem12 config on two unit disks; ``param_lines`` start at line 7."""
        path = tmp_path / "c.json"
        params = [
            '    "a": {"kind": "ball", "radius": 1.0, "dim": 2}',
            '    "b": {"kind": "ball", "radius": 1.0, "dim": 2}',
            *param_lines,
        ]
        path.write_text(
            '{\n  "command": "theorem12",\n  "seed": 1,\n  "params": {\n'
            + ",\n".join(params)
            + "\n  }\n}\n"
        )
        return path

    @pytest.mark.parametrize(
        "theta", ['{"kind": "custom"}', '{"kind": "custom", "predicate": "p"}']
    )
    def test_custom_theta_fails_schema_validation(self, tmp_path, capsys, theta):
        # a config cannot register a predicate, so the schema has no custom
        # kind; the error names the theta line, as every schema error does
        path = self.write_disk_pair_config(tmp_path, f'    "theta": {theta}')
        assert cli.main(["--config", str(path)]) == 1
        assert f"{path}:7:" in capsys.readouterr().err

    @pytest.mark.parametrize("knob, value", [
        ("n_streams", 2), ("pairing_rounds", 4), ("grid_cells_per_axis", 64),
        ("c", 0.2), ("C", 3.0),
    ])
    def test_stream_and_pairing_counts_fail_schema_validation(
        self, tmp_path, capsys, knob, value
    ):
        # the counts are constants of the estimator, c and C constants of the
        # checked statements, and the grid size follows from pair_samples
        # and n: none is a config field
        path = self.write_disk_pair_config(
            tmp_path,
            '    "theta": {"kind": "full"}',
            f'    "mc": {{"pair_samples": 20000, "{knob}": {value}}}',
        )
        assert cli.main(["--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert f"{path}:8:" in err
        assert knob in err

    @pytest.mark.parametrize("a_set, message", [
        ('{"kind": "ball", "dim": 2}', "'radius' is a required property"),
        ('{"kind": "ellipsoid", "center": [0, 0]}', "'semi_axes' is a required property"),
        ('{"kind": "scaled", "factor": 2}', "'base' is a required property"),
        ('{"kind": "box", "half_widths": [1, 1], "radius": 1}',
         "Additional properties are not allowed ('radius' was unexpected)"),
        ('{"kind": "intersection", "parts": [{"kind": "box", "half_widths": [1]}], "dim": 1}',
         "Additional properties are not allowed ('dim' was unexpected)"),
    ])
    def test_set_fields_follow_the_kind(self, tmp_path, capsys, a_set, message):
        # a set must carry every field its kind reads and no field it ignores
        path = self.write_disk_pair_config(tmp_path, '    "theta": {"kind": "full"}')
        path.write_text(path.read_text().replace(
            '"a": {"kind": "ball", "radius": 1.0, "dim": 2}', f'"a": {a_set}'))
        assert cli.main(["--config", str(path)]) == 1
        assert f"{path}:5: params: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("theta, message", [
        ('{"kind": "inner_product_leq"}', "'c' is a required property"),
        ('{"kind": "sum_norm_leq", "density": 0.5}', "'bound' is a required property"),
        ('{"kind": "complement_fraction"}', "'density' is a required property"),
        ('{"kind": "full", "c": 0.0}',
         "Additional properties are not allowed ('c' was unexpected)"),
        ('{"kind": "sum_norm_leq", "bound": 2.0, "c": 0.0}',
         "Additional properties are not allowed ('c' was unexpected)"),
    ])
    def test_theta_fields_follow_the_kind(self, tmp_path, capsys, theta, message):
        path = self.write_disk_pair_config(tmp_path, f'    "theta": {theta}')
        assert cli.main(["--config", str(path)]) == 1
        assert f"{path}:7: params: {message}" in capsys.readouterr().err

    def test_lemma13_has_no_scan_size(self, tmp_path, capsys):
        # c1 is read at the inner end of the r0 range, so there is no grid
        config = {"command": "lemma13", "params": {"n": 8, "rho": 0.1, "grid_r0": 33}}
        assert run_cli(tmp_path, config) == 1
        err = capsys.readouterr().err
        assert "params: Additional properties are not allowed ('grid_r0' was unexpected)" in err

    @pytest.mark.parametrize("command, params, message", [
        ("minkowski", '"example": "ball", "rho": 1.5, "n": 3',
         "1.5 is greater than or equal to the maximum of 1"),
        ("minkowski", '"example": "ball", "rho": 0, "n": 3',
         "0 is less than or equal to the minimum of 0"),
        ("lemma13", '"n": 4, "rho": 2.0', "2.0 is greater than the maximum of 1"),
    ], ids=["minkowski-above", "minkowski-zero", "lemma13-above"])
    def test_rho_outside_its_range_names_its_line(self, tmp_path, capsys, command, params,
                                                  message):
        # the ball example takes rho in (0, 1), Lemma 1.3 rho in (0, 1]
        path = tmp_path / "c.json"
        path.write_text(
            f'{{\n  "command": "{command}",\n  "params": {{\n    {params}\n  }}\n}}\n'
        )
        assert cli.main(["--config", str(path)]) == 1
        assert f"{path}:4: params: {message}" in capsys.readouterr().err

    def test_ball_example_on_the_line_exits_1(self, tmp_path, capsys):
        # on the line the orthogonal sum is [-1, 1]: there is no equality case
        config = {"command": "minkowski", "params": {"example": "ball", "rho": 0.7, "n": 1}}
        assert run_cli(tmp_path, config) == 1
        assert "params: 1 is less than the minimum of 2" in capsys.readouterr().err

    @pytest.mark.parametrize("params, missing", [
        (['"example": "ball"', '"rho": 0.7'], "'n'"),
        (['"example": "ball"', '"n": 3'], "'rho'"),
        (['"a": {"kind": "ball", "radius": 1.0, "dim": 2}', '"theta": {"kind": "full"}'], "'b'"),
        (['"a": {"kind": "ball", "radius": 1.0, "dim": 2}',
          '"b": {"kind": "ball", "radius": 1.0, "dim": 2}'], "'theta'"),
    ])
    def test_minkowski_missing_field_names_its_line(self, tmp_path, capsys, params, missing):
        # the ball example needs rho and n, Monte Carlo mode a, b and theta
        path = tmp_path / "c.json"
        path.write_text(
            '{\n  "command": "minkowski",\n  "seed": 1,\n  "params": {\n    '
            + ",\n    ".join(params)
            + "\n  }\n}\n"
        )
        assert cli.main(["--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert f"{path}:4: params: {missing} is a required property" in err

    BALL_3 = '{"kind": "ball", "radius": 1.0, "dim": 3}'

    @pytest.mark.parametrize("params, line, unexpected", [
        (['"example": "ball"', '"rho": 0.7', '"n": 3', f'"a": {BALL_3}'], 8, "'a' was"),
        (['"example": "ball"', '"rho": 0.7', '"n": 3', '"theta": {"kind": "full"}',
          '"mc": {"pair_samples": 20000}'], 8, "'mc', 'theta' were"),
        ([f'"a": {BALL_3}', f'"b": {BALL_3}', '"theta": {"kind": "full"}', '"rho": 0.7'],
         8, "'rho' was"),
        ([f'"a": {BALL_3}', '"n": 3', f'"b": {BALL_3}', '"theta": {"kind": "full"}'],
         6, "'n' was"),
    ], ids=["exact-with-a", "exact-with-theta-and-mc", "mc-with-rho", "mc-with-n"])
    def test_minkowski_fields_follow_the_mode(self, tmp_path, capsys, params, line, unexpected):
        # the ball example reads rho and n, Monte Carlo mode a, b, theta and
        # mc; a field the mode would drop is refused at its own line
        path = tmp_path / "c.json"
        path.write_text(
            '{\n  "command": "minkowski",\n  "seed": 1,\n  "params": {\n    '
            + ",\n    ".join(params)
            + "\n  }\n}\n"
        )
        assert cli.main(["--config", str(path)]) == 1
        message = f"Additional properties are not allowed ({unexpected} unexpected)"
        assert f"{path}:{line}: params: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("profile, line, message", [
        (['"quantiles_of": {"family": "semicircle", "params": [1.0]}', '"nodes": [0.0, 1.0]',
          '"values": [0.0, 1.0]'],
         9, "Additional properties are not allowed ('nodes', 'values' were unexpected)"),
        (['"nodes": [0.0, 1.0]', '"values": [0.0, 1.0]', '"n_nodes": 65'],
         10, "Additional properties are not allowed ('n_nodes' was unexpected)"),
        (['"nodes": [0.0, 1.0]'], 7, "'values' is a required property"),
        (['"values": [0.0, 1.0]'], 7, "'nodes' is a required property"),
    ], ids=["quantiles-with-table", "table-with-n_nodes", "nodes-alone", "values-alone"])
    def test_profile_fields_follow_the_mode(self, tmp_path, capsys, profile, line, message):
        # a profile is the quantiles of a law (n_nodes optional) or a
        # nodes/values table, never both; line 7 holds the profile's key
        path = tmp_path / "c.json"
        path.write_text(
            '{\n  "command": "microstates-volume",\n  "seed": 1,\n  "params": {\n'
            '    "k": 8,\n    "mc_samples": 10000,\n    "h": {\n      '
            + ",\n      ".join(profile)
            + "\n    }\n  }\n}\n"
        )
        assert cli.main(["--config", str(path)]) == 1
        assert f"{path}:{line}: params: {message}" in capsys.readouterr().err

    def test_every_command_has_a_schema_and_a_handler(self):
        assert cli.COMMANDS == tuple(cli._HANDLERS)
        assert set(cli._PARAM_SCHEMAS) == set(cli.COMMANDS)
        assert cli._TOP_SCHEMA["properties"]["command"]["enum"] == list(cli.COMMANDS)
        assert cli.STOCHASTIC_COMMANDS <= set(cli.COMMANDS)

    @pytest.mark.parametrize("missing", ["filter_max_len", "filter_eps"])
    def test_microstates_sum_needs_its_filter(self, tmp_path, capsys, missing):
        params = {"h1": SC_PROFILE, "h2": SC_PROFILE, "k": 16, "max_len": 2, "eps": 0.2,
                  "trials": 100, "filter_max_len": 2, "filter_eps": 0.06}
        del params[missing]
        config = {"command": "microstates-sum", "seed": 1, "params": params}
        assert run_cli(tmp_path, config) == 1
        assert f"params: '{missing}' is a required property" in capsys.readouterr().err

    def test_missing_required_param(self, tmp_path, capsys):
        code = run_cli(tmp_path, {"command": "theorem12", "seed": 1, "params": {}})
        assert code == 1
        assert "required" in capsys.readouterr().err

    def test_stochastic_command_requires_seed(self, tmp_path, capsys):
        config = {
            "command": "theorem12",
            "params": {
                "a": {"kind": "ball", "radius": 1.0, "dim": 2},
                "b": {"kind": "ball", "radius": 1.0, "dim": 2},
                "theta": {"kind": "full"},
            },
        }
        assert run_cli(tmp_path, config) == 1
        assert "seed is required" in capsys.readouterr().err

    def test_exact_ball_example_needs_no_seed(self, tmp_path, capsys):
        config = {"command": "minkowski", "params": {"example": "ball", "rho": 0.7, "n": 4}}
        assert run_cli(tmp_path, config) == 0

    def test_json_syntax_error_reports_line(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text('{\n  "command": "epi",\n  params: {}\n}\n')
        assert cli.main(["--config", str(path)]) == 1
        assert f"{path}:3:" in capsys.readouterr().err

    @pytest.mark.parametrize("command, a_set", [
        ("theorem12", '{"kind": "ball", "radius": NaN, "dim": 2}'),
        ("minkowski", '{"kind": "box", "half_widths": [1.0, Infinity]}'),
        ("minkowski", '{"kind": "box", "half_widths": [1.0, -Infinity]}'),
    ])
    def test_non_finite_number_tokens_rejected(self, tmp_path, capsys, command, a_set):
        # Python's json reads these tokens, which JSON lacks, as floats; the
        # schema would pass them, and the run would end inconclusive or crash
        # (the tokens inside the output string are not numbers and pass)
        path, output = tmp_path / "c.json", tmp_path / "NaN-Infinity.json"
        path.write_text(
            '{\n  "command": "%s",\n  "seed": 7,\n  "output": %s,\n  "params": {\n'
            '    "a": %s,\n'
            '    "b": {"kind": "box", "half_widths": [1.0, 1.0]},\n'
            '    "theta": {"kind": "full"}\n  }\n}\n' % (command, json.dumps(str(output)), a_set)
        )
        assert cli.main(["--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}:6: non-finite number")
        assert not output.exists()

    @pytest.mark.parametrize("seed, radius, line, literal", [
        ("7", "1e400", 6, "1e400"),
        ("-2.5E+999", "1.0", 3, "-2.5E+999"),
        ("7", "1" + "0" * 400, 6, "1" + "0" * 400),
        ("1" + "0" * 400, "1.0", 3, "1" + "0" * 400),
    ], ids=["radius", "seed", "integer-radius", "integer-seed"])
    def test_number_literals_too_large_for_a_float_rejected(self, tmp_path, capsys, seed,
                                                            radius, line, literal):
        # Python's json reads such a literal as an infinite float, or as an int
        # that no float holds; it is refused at its line like the NaN token (the
        # literal in the output string passes)
        path, output = tmp_path / "c.json", tmp_path / "1e400.json"
        path.write_text(
            '{\n  "command": "theorem12",\n  "seed": %s,\n  "output": %s,\n  "params": {\n'
            '    "a": {"kind": "ball", "radius": %s, "dim": 2},\n'
            '    "b": {"kind": "box", "half_widths": [1.0, 1.0]},\n'
            '    "theta": {"kind": "full"}\n  }\n}\n' % (seed, json.dumps(str(output)), radius)
        )
        assert cli.main(["--config", str(path)]) == 1
        assert capsys.readouterr().err == (
            f"error: {path}:{line}: non-finite number {literal} is not allowed\n"
        )
        assert not output.exists()

    TABLE = '{"nodes": [0.0, 1.0], "values": [0.0, 1.0]}'
    THETA_PARAMS = f'"h1": {TABLE},\n    "h2": {TABLE},\n    "k": 8,\n    "max_len": %s,\n' \
        '    "eps": 0.2,\n    "trials": 100'

    @pytest.mark.parametrize("command, seed, params, message", [
        ("theorem12", "1", '"a": {"kind": "ball", "radius": 1.0, "dim": 2.0},\n'
         '    "b": {"kind": "box", "half_widths": [1.0, 1.0]},\n    "theta": {"kind": "full"}',
         "5: params: 2.0 is not of type 'integer'"),
        ("microstates-theta", "1.0", THETA_PARAMS % "2",
         "3: 1.0 is not of type 'integer'"),
        ("microstates-theta", "1", THETA_PARAMS % "2.0",
         "8: params: 2.0 is not of type 'integer'"),
        ("lemma13", "1", '"n": 4.0,\n    "rho": 0.5', "5: params: 4.0 is not of type 'integer'"),
    ], ids=["dim", "seed", "max_len", "lemma13-n"])
    def test_whole_floats_in_integer_fields_rejected(self, tmp_path, capsys, command, seed,
                                                     params, message):
        # JSON Schema counts 2.0 as an integer, but the library calls need an
        # int: the float reached SetSpec.ball, stream_seed or the profile
        # moments and raised TypeError, or lemma13 echoed n as 4.0
        path = tmp_path / "c.json"
        path.write_text(
            '{\n  "command": "%s",\n  "seed": %s,\n  "params": {\n    %s\n  }\n}\n'
            % (command, seed, params)
        )
        assert cli.main(["--config", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}:{message}\n"

    def test_non_object_config_rejected(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text("[1, 2]\n")
        assert cli.main(["--config", str(path)]) == 1
        assert "JSON object" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        assert cli.main(["--config", str(tmp_path / "nope.json")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_top_level_key_rejected(self, tmp_path, capsys):
        config = {"command": "lemma13", "params": {"rho": 0.1, "n": 8}, "bogus": 1}
        assert run_cli(tmp_path, config) == 1

    def test_threads_key_rejected(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(
            '{\n  "command": "lemma13",\n  "threads": 2,\n  "params": {"rho": 0.1, "n": 8}\n}\n'
        )
        assert cli.main(["--config", str(path)]) == 1
        err = capsys.readouterr().err
        # the unexpected key's own line, not that of the object holding it
        assert err.startswith(f"error: {path}:3:")
        assert "'threads' was unexpected" in err

    @pytest.mark.parametrize("key, value", [
        ("sweep", '{"n": [2, 8]}'),
        ("format", '"csv"'),
    ])
    def test_removed_output_keys_rejected_at_their_line(self, tmp_path, capsys, key, value):
        # a result is one JSON document; no key asks for a grid or another format
        path = tmp_path / "c.json"
        path.write_text(
            '{\n  "command": "lemma13",\n  "params": {"rho": 0.1, "n": 8},\n'
            f'  "{key}": {value}\n}}\n'
        )
        assert cli.main(["--config", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {path}:4:")
        assert f"'{key}' was unexpected" in captured.err

    def test_grid_takes_only_n_cells(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(
            "{\n"
            '  "command": "freeconv",\n'
            '  "params": {\n'
            '    "alpha": {"family": "semicircle", "params": [1.0]},\n'
            '    "beta": {"family": "uniform", "params": [-1.0, 1.0]},\n'
            '    "grid": {\n'
            '      "n_cells": 256,\n'
            '      "padding": 1.5\n'
            "    }\n"
            "  }\n"
            "}\n"
        )
        assert cli.main(["--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}:8: params:")
        assert "'padding' was unexpected" in err

    @pytest.mark.parametrize("extra", [
        ["--threads", "4"],
        ["--seed", "abc"],
        ["--format", "csv"],
        None,
    ], ids=["threads-flag", "bad-seed", "bad-format", "no-config"])
    def test_usage_errors_exit_1(self, tmp_path, capsys, extra):
        # 2 is the exit code of a violated verdict, so argparse's own 2 is replaced
        path = write_config(tmp_path, {"command": "lemma13", "params": {"rho": 0.1, "n": 8}})
        argv = [] if extra is None else ["--config", str(path), *extra]
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "usage:" in captured.err

    def test_help_exits_0(self, capsys):
        assert cli.main(["--help"]) == 0
        assert "--config" in capsys.readouterr().out

    def test_unwritable_output_path_exits_1(self, tmp_path, capsys):
        target = tmp_path / "missing-dir" / "result.json"
        config = {"command": "lemma13", "params": {"rho": 0.1, "n": 8}, "output": str(target)}
        assert run_cli(tmp_path, config) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "missing-dir" in captured.err
        assert not target.parent.exists()

    def test_semantic_error_from_library_exits_1(self, tmp_path, capsys):
        # the schema admits any family parameter; the library rejects a
        # negative variance, and the error line names it
        config = {"command": "entropy", "params": {"mu": {"family": "semicircle",
                                                         "params": [-1.0]}}}
        assert run_cli(tmp_path, config) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "variance" in err


class TestRunExamples:
    def test_epi_semicircle_pair_holds(self, tmp_path, capsys):
        config = {"command": "epi", "params": {"alpha": SEMICIRCLE, "beta": SEMICIRCLE}}
        assert run_cli(tmp_path, config) == 0
        doc = last_stdout_json(capsys)
        assert doc["verdict"] == "holds"
        report = doc["result"]["report"]
        assert abs(report["deficit"]) <= doc["result"]["tolerance"]
        assert abs(report["deficit"]) < 1e-2 * report["power_sum"]
        assert doc["resolved"]["grid"] == {"n_cells": 2048}

    def test_minkowski_ball_example_gap_zero(self, tmp_path, capsys):
        config = {"command": "minkowski", "params": {"example": "ball", "rho": 0.7, "n": 4}}
        assert run_cli(tmp_path, config) == 0
        doc = last_stdout_json(capsys)
        assert doc["result"]["equality_gap"] == 0.0
        assert doc["result"]["theta_fraction"] == 0.5
        assert math.isclose(doc["result"]["sum_radius"], math.sqrt(1.49), rel_tol=1e-15)
        assert doc["verdict"] == "holds"

    @pytest.mark.parametrize("n", [207, 300, 1000, 5000])
    def test_minkowski_ball_example_holds_in_high_dimension(self, tmp_path, capsys, n):
        # kappa_n rho^n underflows from n = 207 at rho = 0.1, kappa_n itself near n = 450
        config = {"command": "minkowski", "params": {"example": "ball", "rho": 0.1, "n": n}}
        assert run_cli(tmp_path, config) == 0
        doc = last_stdout_json(capsys)
        assert doc["verdict"] == "holds"
        assert abs(doc["result"]["equality_gap"]) <= 1e-15

    def test_entropy_point_mass_reports_minus_infinity(self, tmp_path, capsys):
        config = {"command": "entropy", "params": {"mu": {"family": "point_mass", "params": [0.3]}}}
        assert run_cli(tmp_path, config) == 0
        raw = capsys.readouterr().out
        assert '"chi": -Infinity' in raw
        doc = json.loads(raw)
        assert doc["result"]["degenerate"] is True
        assert doc["result"]["chi"] == float("-inf")
        assert doc["verdict"] is None

    def test_entropy_uniform_matches_closed_form(self, tmp_path, capsys):
        config = {"command": "entropy", "params": {"mu": {"family": "uniform", "params": [0.0, 1.0]}}}
        assert run_cli(tmp_path, config) == 0
        doc = last_stdout_json(capsys)
        expected = -0.75 + 0.5 * math.log(2.0 * math.pi)
        assert abs(doc["result"]["chi"] - expected) < 1e-4
        assert doc["result"]["degenerate"] is False

    def test_freeconv_semicircles_add_variance(self, tmp_path, capsys):
        config = {"command": "freeconv", "params": {"alpha": SEMICIRCLE, "beta": SEMICIRCLE}}
        assert run_cli(tmp_path, config) == 0
        doc = last_stdout_json(capsys)
        assert abs(doc["result"]["variance"] - 2.0) < 1e-3
        assert abs(doc["result"]["mean"]) < 1e-9
        out = measure_from_json(doc["result"]["measure"])
        assert abs(moment(out, 0) - 1.0) < 1e-9

    def test_freeconv_diagnostics_reproducible(self, tmp_path, capsys):
        self._check_diagnostics_reproducible(tmp_path, capsys, "freeconv")

    def test_epi_diagnostics_reproducible(self, tmp_path, capsys):
        self._check_diagnostics_reproducible(tmp_path, capsys, "epi")

    @staticmethod
    def _check_diagnostics_reproducible(tmp_path, capsys, command):
        config = {
            "command": command,
            "params": {"alpha": SEMICIRCLE, "beta": BERNOULLI_SYM, "grid": {"n_cells": 512}},
        }
        texts = []
        for name in ("c1.json", "c2.json"):
            assert run_cli(tmp_path, config, name=name) == 0
            diag = last_stdout_json(capsys)["result"]["diagnostics"]
            assert set(diag) == {
                "cdf_end_error",
                "cdf_repair",
                "eta",
                "unconverged_points",
                "worst_residual",
                "solver_steps",
            }
            assert diag["cdf_end_error"] <= CDF_TOL
            assert diag["cdf_repair"] <= CDF_TOL
            assert diag["eta"] > 0
            assert diag["unconverged_points"] == 0
            assert isinstance(diag["solver_steps"], int) and diag["solver_steps"] > 0
            texts.append(cli.render_json(diag))
        assert texts[0] == texts[1]

    def test_stam_semicircle_pair(self, tmp_path, capsys):
        config = {"command": "stam", "params": {"alpha": SEMICIRCLE, "beta": {"family": "semicircle", "params": [2.0]}}}
        assert run_cli(tmp_path, config) == 0
        doc = last_stdout_json(capsys)
        assert abs(doc["result"]["stam_deficit"]) < 5e-3
        assert doc["verdict"] is None

    def test_lemma13_holds_with_positive_constant(self, tmp_path, capsys):
        config = {"command": "lemma13", "params": {"n": 8, "rho": 0.1}}
        assert run_cli(tmp_path, config) == 0
        doc = last_stdout_json(capsys)
        assert doc["verdict"] == "holds"
        assert doc["result"]["c1_estimate"] > 0.05
        assert doc["resolved"] == {}
        assert "grid_r0" not in doc["result"]["report"]["context"]

    def test_theorem12_full_theta_holds(self, tmp_path, capsys):
        config = {
            "command": "theorem12",
            "seed": 7,
            "params": {
                "a": {"kind": "ball", "radius": 1.0, "dim": 2},
                "b": {"kind": "ball", "radius": 0.5, "dim": 2},
                "theta": {"kind": "full"},
                "mc": {"pair_samples": 60000},
            },
        }
        assert run_cli(tmp_path, config) == 0
        doc = last_stdout_json(capsys)
        assert doc["verdict"] == "holds"
        assert doc["resolved"]["mc"] == {"pair_samples": 60000, "seed": 7}
        context = doc["result"]["report"]["context"]
        assert (context["c"], context["C"]) == (0.01, 3.0)

    def test_theorem12_failed_gate_is_inconclusive_exit_3(self, tmp_path, capsys):
        config = {
            "command": "theorem12",
            "seed": 42,
            "params": {
                "a": {"kind": "ball", "radius": 1.0, "dim": 3},
                "b": {"kind": "ball", "radius": 0.4, "dim": 3},
                "theta": {"kind": "inner_product_leq", "c": 0.1},
                "mc": {"pair_samples": 50000},
            },
        }
        assert run_cli(tmp_path, config) == 3
        doc = last_stdout_json(capsys)
        assert doc["verdict"] == "inconclusive"
        assert doc["result"]["report"]["context"]["gate"]["passed"] is False

    def test_minkowski_monte_carlo_mode(self, tmp_path, capsys):
        config = {
            "command": "minkowski",
            "seed": 3,
            "params": {
                "a": {"kind": "ball", "radius": 1.0, "dim": 3},
                "b": {"kind": "ball", "radius": 0.7, "dim": 3},
                "theta": {"kind": "inner_product_leq", "c": 0.0},
                "mc": {"pair_samples": 30000},
            },
        }
        assert run_cli(tmp_path, config) == 0
        doc = last_stdout_json(capsys)
        result = doc["result"]
        # half-space theta keeps about half of all pairs
        assert abs(result["theta_hits"] / result["pair_samples"] - 0.5) < 0.02
        ball = 4.0 / 3.0 * math.pi
        assert abs(result["theta_volume"]["value"] - 0.5 * ball * 0.7**3 * ball) < 0.2
        assert doc["resolved"]["mode"] == "monte-carlo"
        for key in ("volume_a", "volume_b", "theta_volume", "sum_volume"):
            assert set(result[key]) == {"value", "stderr", "samples", "method"}

    def test_minkowski_n6_balls_use_the_closed_form(self, tmp_path, capsys):
        config = {
            "command": "minkowski",
            "seed": 20240817,
            "params": {
                "a": {"kind": "ball", "radius": 1.0, "dim": 6},
                "b": {"kind": "ball", "radius": 0.8, "dim": 6},
                "theta": {"kind": "full"},
                "mc": {"pair_samples": 1_000_000},
            },
        }
        assert run_cli(tmp_path, config) == 0
        result = last_stdout_json(capsys)["result"]
        exact = math.pi**3 / math.gamma(4.0) * 1.8**6  # about 175.77
        est = result["sum_volume"]
        assert est["method"] == "closed_form"
        assert est["value"] <= exact <= est["value"] + est["stderr"]
        assert est["stderr"] <= 2e-12 * est["value"]
        assert result["rejection_proposals"] == 0

    def test_minkowski_ball_box_matches_steiner(self, tmp_path, capsys):
        config = {
            "command": "minkowski",
            "seed": 5,
            "params": {
                "a": {"kind": "ball", "radius": 0.5, "dim": 3, "center": [0.2, -0.1, 0.0]},
                "b": {"kind": "box", "half_widths": [0.3, 0.6, 0.9]},
                "theta": {"kind": "full"},
                "mc": {"pair_samples": 400_000},
            },
        }
        assert run_cli(tmp_path, config) == 0
        est = last_stdout_json(capsys)["result"]["sum_volume"]
        # Steiner: sum_j e_j(side lengths) kappa_(3-j) r^(3-j) with sides 0.6, 1.2, 1.8
        sides, r = (0.6, 1.2, 1.8), 0.5
        e = (1.0, sum(sides), 0.6 * 1.2 + 0.6 * 1.8 + 1.2 * 1.8, 0.6 * 1.2 * 1.8)
        kappas = (1.0, 2.0, math.pi, 4.0 / 3.0 * math.pi)
        exact = sum(e[j] * kappas[3 - j] * r ** (3 - j) for j in range(4))
        assert est["method"] == "mc_hit_or_miss"
        assert est["samples"] == 10_000
        assert abs(est["value"] - exact) <= 3.0 * est["stderr"]

    def test_minkowski_inner_product_off_origin_balls_exits_1(self, tmp_path, capsys):
        config = {
            "command": "minkowski",
            "seed": 5,
            "params": {
                "a": {"kind": "box", "half_widths": [1.0, 0.5]},
                "b": {"kind": "box", "half_widths": [0.5, 0.5]},
                "theta": {"kind": "inner_product_leq", "c": 0.0},
            },
        }
        assert run_cli(tmp_path, config) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "inner_product_leq sum volumes need origin-centred balls" in err

    def test_microstates_spectrum_with_reference(self, tmp_path, capsys):
        config = {
            "command": "microstates-spectrum",
            "seed": 11,
            "params": {
                "alpha": BERNOULLI_SYM,
                "beta": BERNOULLI_SYM,
                "k": 64,
                "reference": {"family": "arcsine", "params": [2.0]},
            },
        }
        assert run_cli(tmp_path, config) == 0
        doc = last_stdout_json(capsys)
        assert doc["result"]["ks_to_reference"] < 0.1
        assert len(doc["result"]["measure"]["atoms"]) == 64

    def test_microstates_spectrum_refuses_a_grid(self, tmp_path, capsys):
        # the spectrum reads its laws at the default grid, so a grid key
        # would be a setting that changes nothing; it is refused at its line
        path = tmp_path / "c.json"
        path.write_text(
            '{\n  "command": "microstates-spectrum",\n  "seed": 11,\n  "params": {\n'
            f'    "alpha": {json.dumps(SEMICIRCLE)},\n    "beta": {json.dumps(SEMICIRCLE)},\n'
            '    "k": 32,\n    "grid": {"n_cells": 16}\n  }\n}\n'
        )
        assert cli.main(["--config", str(path)]) == 1
        message = "Additional properties are not allowed ('grid' was unexpected)"
        assert f"{path}:8: params: {message}" in capsys.readouterr().err

    def test_microstates_sum_explicit_filter_succeeds(self, tmp_path, capsys):
        config = {
            "command": "microstates-sum",
            "seed": 19,
            "params": {
                "h1": SC_PROFILE,
                "h2": SC_PROFILE,
                "k": 64,
                "max_len": 3,
                "eps": 0.4,
                "trials": 100,
                "filter_max_len": 3,
                "filter_eps": 0.15,
            },
        }
        assert run_cli(tmp_path, config) == 0
        doc = last_stdout_json(capsys)
        assert doc["result"]["kept"] == 100
        # pinned at this seed; about 0.4% of kept sums fail at this eps
        assert doc["result"]["fraction"] == 0.99
        assert doc["verdict"] is None

    def test_microstates_sum_strict_filter_is_inconclusive(self, tmp_path, capsys):
        config = {
            "command": "microstates-sum",
            "seed": 7,
            "params": {
                "h1": SC_PROFILE,
                "h2": SC_PROFILE,
                "k": 64,
                "max_len": 3,
                "eps": 0.1,
                "trials": 100,
                # the crude word-splitting filter: length 2 max_len, tolerance
                # eps / (4 (2R)^max_len) with R = 2
                "filter_max_len": 6,
                "filter_eps": 0.1 / (4 * 2.0**6),
            },
        }
        assert run_cli(tmp_path, config) == 3
        doc = last_stdout_json(capsys)
        assert doc["result"]["inconclusive"] is True
        assert doc["result"]["kept"] == 0
        assert doc["params"]["filter_max_len"] == 6
        assert doc["params"]["filter_eps"] == pytest.approx(0.1 / (4 * 2.0**6))
        assert doc["resolved"] == {}

    def test_microstates_volume_tracks_uniform_entropy(self, tmp_path, capsys):
        config = {
            "command": "microstates-volume",
            "seed": 1,
            "params": {
                "h": {"quantiles_of": {"family": "uniform", "params": [0.0, 1.0]}},
                "k": 32,
                "mc_samples": 100000,
            },
        }
        assert run_cli(tmp_path, config) == 0
        doc = last_stdout_json(capsys)
        expected = -0.75 + 0.5 * math.log(2.0 * math.pi)
        assert abs(doc["result"]["normalized_log_volume"] - expected) < 0.1


class TestExitCodes:
    def test_verdict_map(self):
        assert cli._EXIT_BY_VERDICT[None] == 0
        assert cli._EXIT_BY_VERDICT["holds"] == 0
        assert cli._EXIT_BY_VERDICT["violated"] == 2
        assert cli._EXIT_BY_VERDICT["inconclusive"] == 3

    def test_violated_verdict_exits_2(self, tmp_path, monkeypatch, capsys):
        """A real theorem12 run with its constant forced to 100.

        The gate's threshold 1 - c * min(rho sqrt(n), 1) then drops below 0,
        which switches off the theorem's near-full-Theta hypothesis; that is
        the only honest way to reach "violated". At the real constant the
        gate fails and the run exits 3.
        """
        monkeypatch.setattr(geometry, "THEOREM12_C", 100.0)
        config = {
            "command": "theorem12",
            "seed": 7,
            "params": {
                "a": {"kind": "ball", "radius": 1.0, "dim": 2},
                "b": {"kind": "ball", "radius": 0.8, "dim": 2},
                "theta": {"kind": "inner_product_leq", "c": -0.2},
                "mc": {"pair_samples": 20000},
            },
        }
        assert run_cli(tmp_path, config) == 2
        doc = last_stdout_json(capsys)
        assert doc["verdict"] == "violated"
        report = doc["result"]["report"]
        assert report["context"]["gate"]["passed"] is True
        assert report["deficit"] == pytest.approx(-1.2566, abs=1e-4)
        assert report["deficit"] + report["ci_halfwidth"] < 0

    def test_lemma13_violated_exits_2(self, tmp_path, monkeypatch, capsys):
        """A lemma13 run with the computed cap share forced to 1.5.

        c1 = 1 - share is then -0.5, and so is the deficit's sign. No honest
        failing input exists: the share is a fraction of a ball, in [0, 1],
        so c1 and the deficit are never negative.
        """
        monkeypatch.setattr(geometry, "cap_fraction", lambda *args: 1.5)
        config = {"command": "lemma13", "params": {"n": 8, "rho": 0.1}}
        assert run_cli(tmp_path, config) == 2
        doc = last_stdout_json(capsys)
        assert doc["verdict"] == doc["result"]["report"]["verdict"] == "violated"
        assert doc["result"]["c1_estimate"] == -0.5
        assert doc["result"]["report"]["deficit"] < 0

    def test_ball_example_violated_exits_2(self, tmp_path, monkeypatch, capsys):
        """The exact ball example with its squared sum radius forced 2% too large.

        No honest failing input exists: the orthogonal sum of B^n and rho B^n
        is sqrt(1 + rho^2) B^n exactly (``_annulus`` at c = 0), and the
        unforced gap is rounding, far inside the 1e-9 (1 + rho^2) tolerance.
        """
        monkeypatch.setattr(geometry, "_annulus", lambda a, b, c: (1.02 * (a * a + b * b), 0.0))
        config = {"command": "minkowski", "params": {"example": "ball", "rho": 0.5, "n": 3}}
        assert run_cli(tmp_path, config) == 2
        doc = last_stdout_json(capsys)
        assert doc["verdict"] == doc["result"]["verdict"] == "violated"
        assert doc["result"]["equality_gap"] > 0

    @pytest.mark.parametrize("error, expected", [
        (ConvergenceError("subordination failed", residual=0.5),
         "error: subordination failed diagnostics={'residual': 0.5}\n"),
        (InversionQualityError("read cdf is off", cdf_end_error=0.5),
         "error: read cdf is off diagnostics={'cdf_end_error': 0.5}\n"),
    ], ids=["convergence", "inversion-quality"])
    def test_every_refusal_prints_its_diagnostics(self, tmp_path, monkeypatch, capsys,
                                                  error, expected):
        def refuse(*args):
            raise error

        monkeypatch.setattr(cli, "free_convolve", refuse)
        config = {"command": "freeconv", "params": {"alpha": SEMICIRCLE, "beta": SEMICIRCLE}}
        assert run_cli(tmp_path, config) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", expected)


class TestOutputFormats:
    def test_render_json_canonical(self):
        doc = {"b": [1.0, float("inf")], "a": {"nested": True, "empty": {}}, "c": None}
        text = cli.render_json(doc)
        assert text.index('"a"') < text.index('"b"') < text.index('"c"')
        assert "Infinity" in text and "null" in text and "true" in text
        assert json.loads(text) == {
            "a": {"nested": True, "empty": {}},
            "b": [1.0, float("inf")],
            "c": None,
        }

    def test_dataclasses_are_written_by_their_fields(self):
        # fields declared repr=False are diagnostics and stay out of the record
        mu = dataclasses.replace(semicircle(1.0, n_cells=16), meta={"cdf_end_error": 0.0})
        assert cli._jsonable(mu) == {
            "grid_lo": mu.grid_lo,
            "grid_hi": mu.grid_hi,
            "density": mu.density.tolist(),
            "atoms": [],
        }
        report = EntropyReport(
            chi_alpha=1.0, chi_beta=float("-inf"), chi_sum=1.0, power_alpha=2.0,
            power_beta=0.0, power_sum=2.0, deficit=0.0, quadrature_error_estimate=1e-3,
            infinite_entropy_inputs=("beta",), sum_meta={"eta": 1e-3},
        )
        assert cli._jsonable(report) == {
            "chi_alpha": 1.0, "chi_beta": float("-inf"), "chi_sum": 1.0, "power_alpha": 2.0,
            "power_beta": 0.0, "power_sum": 2.0, "deficit": 0.0,
            "quadrature_error_estimate": 1e-3, "infinite_entropy_inputs": ["beta"],
        }
        volume = VolumeEstimate(value=2.0, stderr=0.1, samples=1000, method="mc_hit_or_miss")
        check = CheckReport(
            lhs=1.0, rhs=0.5, deficit=0.5, ci_halfwidth=0.1,
            context={"n": 2, "sum_volume": volume},
        )
        assert cli._jsonable(check) == {
            "lhs": 1.0, "rhs": 0.5, "deficit": 0.5, "ci_halfwidth": 0.1, "verdict": "holds",
            "context": {
                "n": 2,
                "sum_volume": {
                    "value": 2.0, "stderr": 0.1, "samples": 1000, "method": "mc_hit_or_miss"
                },
            },
        }

    def test_float_formatting_17_digits(self):
        assert cli._format_float(0.7) == "0.69999999999999996"
        assert cli._format_float(1.0) == "1"
        assert cli._format_float(float("-inf")) == "-Infinity"
        assert cli._format_float(float("nan")) == "NaN"
        assert float(cli._format_float(math.pi)) == math.pi

    def test_output_file_bytes_reproducible(self, tmp_path, capsys):
        config = {
            "command": "theorem12",
            "seed": 42,
            "params": {
                "a": {"kind": "ball", "radius": 1.0, "dim": 2},
                "b": {"kind": "ball", "radius": 0.5, "dim": 2},
                "theta": {"kind": "full"},
                "mc": {"pair_samples": 20000},
            },
            "output": str(tmp_path / "r1.json"),
        }
        run_cli(tmp_path, config, name="c1.json")
        config["output"] = str(tmp_path / "r2.json")
        run_cli(tmp_path, config, name="c2.json")
        b1 = (tmp_path / "r1.json").read_bytes()
        b2 = (tmp_path / "r2.json").read_bytes()
        assert b1 == b2
        assert capsys.readouterr().out == ""

    def test_metadata_sidecar_holds_timestamps(self, tmp_path):
        config = {
            "command": "lemma13",
            "params": {"rho": 0.1, "n": 8},
            "output": str(tmp_path / "out.json"),
        }
        run_cli(tmp_path, config)
        sidecar = json.loads((tmp_path / "out.json.meta.json").read_text())
        assert set(sidecar) == {"config_path", "created_utc", "elapsed_seconds"}
        assert "created" not in (tmp_path / "out.json").read_text()

class TestOverrides:
    def base_config(self):
        return {
            "command": "theorem12",
            "seed": 42,
            "params": {
                "a": {"kind": "ball", "radius": 1.0, "dim": 2},
                "b": {"kind": "ball", "radius": 0.5, "dim": 2},
                "theta": {"kind": "full"},
                "mc": {"pair_samples": 20000},
            },
        }

    def test_seed_flag_overrides_config(self, tmp_path, capsys):
        run_cli(tmp_path, self.base_config(), name="a.json")
        base = last_stdout_json(capsys)
        run_cli(tmp_path, self.base_config(), "--seed", "123", name="b.json")
        other = last_stdout_json(capsys)
        assert other["seed"] == 123
        assert other["result"] != base["result"]

    def test_output_flag_writes_file(self, tmp_path, capsys):
        config = {"command": "lemma13", "params": {"rho": 0.1, "n": 8}}
        target = tmp_path / "result.json"
        assert run_cli(tmp_path, config, "--output", str(target)) == 0
        assert capsys.readouterr().out == ""
        doc = json.loads(target.read_text())
        assert doc["result"]["c1_estimate"] > 0.05


def test_cli_import_does_not_load_scipy_signal():
    # numpy is the only numeric runtime dependency, so the CLI's import
    # cost includes no scipy module at all
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = "import sys, freesum.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"
