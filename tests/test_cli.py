"""End-to-end tests for the experiment driver.

Configs are written to temp files and executed in process through
``cli.main`` so exit codes, stdout, and output files are all observable.
Expected numbers quoted here were pinned from seeded runs of the same
configs.
"""

import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import freesum.cli as cli
from freesum.measure import Measure, moment

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


def read_csv_text(text):
    return list(csv.DictReader(io.StringIO(text)))


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

    @pytest.mark.parametrize("knob, value", [("n_streams", 2), ("pairing_rounds", 4)])
    def test_stream_and_pairing_counts_fail_schema_validation(
        self, tmp_path, capsys, knob, value
    ):
        # both counts are constants of the estimator, not config fields
        path = self.write_disk_pair_config(
            tmp_path,
            '    "theta": {"kind": "full"}',
            f'    "mc": {{"pair_samples": 20000, "{knob}": {value}}}',
        )
        assert cli.main(["--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert f"{path}:8:" in err
        assert knob in err

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

    def test_sweep_rejects_json_format(self, tmp_path, capsys):
        config = {
            "command": "lemma13",
            "format": "json",
            "params": {"rho": 0.1, "n": 8},
            "sweep": {"n": [8]},
        }
        assert run_cli(tmp_path, config) == 1
        assert "format must be csv" in capsys.readouterr().err

    def test_sweep_combination_cap(self, tmp_path, capsys):
        config = {
            "command": "lemma13",
            "params": {"rho": 0.1, "n": 8},
            "sweep": {"rho": [0.001 * i + 0.001 for i in range(101)], "n": list(range(2, 103))},
        }
        assert run_cli(tmp_path, config) == 1
        assert "10201" in capsys.readouterr().err

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

    def test_semantic_error_from_library_exits_1(self, tmp_path, capsys):
        # schema admits any positive rho; the library rejects rho > 1
        config = {"command": "lemma13", "params": {"rho": 1.5, "n": 8}}
        assert run_cli(tmp_path, config) == 1
        assert "rho" in capsys.readouterr().err


class TestRunExamples:
    def test_epi_semicircle_pair_holds(self, tmp_path, capsys):
        config = {"command": "epi", "params": {"alpha": SEMICIRCLE, "beta": SEMICIRCLE}}
        assert run_cli(tmp_path, config) == 0
        doc = last_stdout_json(capsys)
        assert doc["verdict"] == "holds"
        report = doc["result"]["report"]
        assert abs(report["deficit"]) <= doc["result"]["tolerance"]
        assert abs(report["deficit"]) < 1e-2 * report["power_sum"]
        assert doc["resolved"]["grid"] == {"n_cells": 2048, "padding": 1.25}

    def test_minkowski_ball_example_gap_zero(self, tmp_path, capsys):
        config = {"command": "minkowski", "params": {"example": "ball", "rho": 0.7, "n": 4}}
        assert run_cli(tmp_path, config) == 0
        doc = last_stdout_json(capsys)
        assert doc["result"]["equality_gap"] == 0.0
        assert doc["result"]["theta_fraction"] == 0.5
        assert math.isclose(doc["result"]["sum_radius"], math.sqrt(1.49), rel_tol=1e-15)
        assert doc["verdict"] == "holds"

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
        out = Measure.from_json(doc["result"]["measure"])
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
                "raw_mass",
                "eta",
                "unconverged_points",
                "worst_residual",
                "solver_steps",
            }
            assert 0.9 <= diag["raw_mass"] <= 1.1
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
        assert doc["resolved"]["grid_r0"] == 33

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
        assert doc["resolved"]["mc"]["c"] == 0.01
        assert doc["resolved"]["mc"]["C"] == 3.0

    def test_theorem12_failed_gate_is_inconclusive_exit_3(self, tmp_path, capsys):
        config = {
            "command": "theorem12",
            "seed": 42,
            "params": {
                "a": {"kind": "ball", "radius": 1.0, "dim": 3},
                "b": {"kind": "box", "half_widths": [0.4, 0.4, 0.4]},
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
        assert doc["result"]["fraction"] == 1.0
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
            },
        }
        assert run_cli(tmp_path, config) == 3
        doc = last_stdout_json(capsys)
        assert doc["result"]["inconclusive"] is True
        assert doc["result"]["kept"] == 0
        assert doc["resolved"]["filter_max_len"] == 6
        assert doc["resolved"]["filter_eps"] == pytest.approx(0.1 / (4 * 2.0**6))

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
        def fake(params, seed, threads):
            return {"value": 1.0}, "violated", {}

        monkeypatch.setitem(cli._HANDLERS, "lemma13", fake)
        config = {"command": "lemma13", "params": {"rho": 0.1, "n": 8}}
        assert run_cli(tmp_path, config) == 2
        assert last_stdout_json(capsys)["verdict"] == "violated"

    def test_library_error_exits_1(self, tmp_path, capsys):
        config = {"command": "lemma13", "params": {"rho": 1.5, "n": 8}}
        assert run_cli(tmp_path, config) == 1
        assert capsys.readouterr().err.startswith("error:")


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

    def test_single_run_csv_has_flat_columns_and_crlf(self, tmp_path, capsys):
        config = {"command": "lemma13", "format": "csv", "params": {"rho": 0.1, "n": 8}}
        assert run_cli(tmp_path, config) == 0
        raw = capsys.readouterr().out
        assert "\r\n" in raw
        rows = read_csv_text(raw)
        assert len(rows) == 1
        assert float(rows[0]["result.c1_estimate"]) > 0.05
        assert rows[0]["verdict"] == "holds"

    def test_csv_renders_minus_infinity_token(self, tmp_path, capsys):
        config = {
            "command": "entropy",
            "format": "csv",
            "params": {"mu": {"family": "point_mass", "params": [0.3]}},
        }
        assert run_cli(tmp_path, config) == 0
        rows = read_csv_text(capsys.readouterr().out)
        assert rows[0]["result.chi"] == "-Infinity"
        assert rows[0]["result.degenerate"] == "true"

    def test_csv_quotes_fields_with_commas(self, tmp_path, capsys):
        config = {
            "command": "lemma13",
            "params": {"rho": 0.1, "n": 8},
            "sweep": {"rho": [0.1, -1.0]},
        }
        assert run_cli(tmp_path, config) == 0
        raw = capsys.readouterr().out
        assert '"rho must lie in (0, 1]' in raw


class TestSweep:
    def test_theta_fraction_sweep_monotone_in_k(self, tmp_path, capsys):
        config = {
            "command": "microstates-theta",
            "seed": 29,
            "params": {
                "h1": SC_PROFILE,
                "h2": SC_PROFILE,
                "k": 32,
                "max_len": 3,
                "eps": 0.1,
                "trials": 100,
            },
            "sweep": {"k": [32, 64]},
        }
        assert run_cli(tmp_path, config) == 0
        rows = read_csv_text(capsys.readouterr().out)
        assert [row["k"] for row in rows] == ["32", "64"]
        fractions = [float(row["fraction"]) for row in rows]
        assert fractions[0] < fractions[1]
        assert fractions[1] == 1.0

    def test_lemma13_dimension_sweep_all_positive(self, tmp_path, capsys):
        config = {
            "command": "lemma13",
            "params": {"rho": 0.1, "n": 2},
            "sweep": {"n": [2, 8, 32, 128]},
        }
        assert run_cli(tmp_path, config) == 0
        rows = read_csv_text(capsys.readouterr().out)
        assert len(rows) == 4
        for row in rows:
            assert float(row["c1_estimate"]) > 0.05
            assert row["verdict"] == "holds"
            assert row["error"] == ""

    def test_one_point_sweep_matches_plain_run(self, tmp_path, capsys):
        params = {"rho": 0.1, "n": 8}
        run_cli(tmp_path, {"command": "lemma13", "format": "csv", "params": params}, name="a.json")
        single = read_csv_text(capsys.readouterr().out)[0]
        run_cli(
            tmp_path,
            {"command": "lemma13", "params": params, "sweep": {"n": [8]}},
            name="b.json",
        )
        swept = read_csv_text(capsys.readouterr().out)[0]
        assert single["result.c1_estimate"] == swept["c1_estimate"]
        assert single["result.report.deficit"] == swept["report.deficit"]

    def test_sweep_records_row_errors_and_continues(self, tmp_path, capsys):
        config = {
            "command": "lemma13",
            "params": {"rho": 0.1, "n": 8},
            "sweep": {"rho": [0.1, -1.0, 0.2]},
        }
        assert run_cli(tmp_path, config) == 0
        rows = read_csv_text(capsys.readouterr().out)
        assert rows[0]["error"] == "" and rows[2]["error"] == ""
        assert "rho" in rows[1]["error"]
        assert rows[1]["c1_estimate"] == ""
        assert float(rows[2]["c1_estimate"]) > 0

    def test_two_key_sweep_row_order_is_lexicographic(self, tmp_path, capsys):
        config = {
            "command": "lemma13",
            "params": {"rho": 0.1, "n": 8},
            "sweep": {"rho": [0.1, 0.2], "n": [2, 4]},
        }
        assert run_cli(tmp_path, config) == 0
        rows = read_csv_text(capsys.readouterr().out)
        combos = [(row["n"], row["rho"]) for row in rows]
        # keys sort as (n, rho); rows follow product order over listed values
        assert combos == [
            ("2", "0.10000000000000001"),
            ("2", "0.20000000000000001"),
            ("4", "0.10000000000000001"),
            ("4", "0.20000000000000001"),
        ]
        assert list(rows[0])[:2] == ["n", "rho"]
        assert list(rows[0])[-2:] == ["verdict", "error"]

    def test_sweep_seed_echo_not_present_in_rows(self, tmp_path, capsys):
        config = {
            "command": "lemma13",
            "params": {"rho": 0.1, "n": 8},
            "sweep": {"n": [8, 16]},
        }
        assert run_cli(tmp_path, config) == 0
        rows = read_csv_text(capsys.readouterr().out)
        assert "command" not in rows[0]


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

    def test_threads_flag_never_changes_results(self, tmp_path, capsys):
        run_cli(tmp_path, self.base_config(), "--threads", "1", name="a.json")
        one = last_stdout_json(capsys)
        run_cli(tmp_path, self.base_config(), "--threads", "4", name="b.json")
        four = last_stdout_json(capsys)
        assert four["threads"] == 4
        assert one["result"] == four["result"]
        assert one["verdict"] == four["verdict"]

    def test_format_flag_switches_to_csv(self, tmp_path, capsys):
        config = {"command": "lemma13", "params": {"rho": 0.1, "n": 8}}
        assert run_cli(tmp_path, config, "--format", "csv") == 0
        raw = capsys.readouterr().out
        assert raw.startswith("command,")

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
