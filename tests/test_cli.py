"""Command-line interface: exit codes, report routing, config files,
manifests, and output determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fwforge
from fwforge import cli
from fwforge.lang import format_expr, parse_expr
from fwforge.ncalg import Budget, expand


@pytest.fixture(autouse=True)
def run_in_tmp(tmp_path, monkeypatch):
    """Run every test from a scratch directory so manifests land there."""
    monkeypatch.chdir(tmp_path)
    return tmp_path


def _json_out(capsys):
    return json.loads(capsys.readouterr().out)


# -- expand ------------------------------------------------------------------------------


def test_expand_matches_library_expansion(capsys):
    text = "acomm(O, comm(comm(O, E), E))"
    assert cli.main(["expand", text, "--max-len", "6", "--max-e", "2"]) == 0
    report = _json_out(capsys)
    expected = format_expr(expand(parse_expr(text), Budget(6, 2)))
    assert report["canonical"] == expected
    assert report["budget"] == {"max_word_len": 6, "max_e_count": 2}


def test_expand_text_format_prints_bare_sum(capsys):
    assert cli.main(["expand", "comm(O, E)", "--max-len", "4", "--max-e", "2", "--format", "text"]) == 0
    line = capsys.readouterr().out.strip()
    assert line == format_expr(expand(parse_expr("comm(O, E)"), Budget(4, 2)))


def test_expand_bad_syntax_is_usage_error(capsys):
    assert cli.main(["expand", "comm(O,"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("fwforge: error:")
    assert "parse" in err


# -- compare -----------------------------------------------------------------------------


def test_compare_clean_when_differences_are_higher_order(capsys):
    assert cli.main(["compare", "--max-len", "4", "--max-e", "2"]) == 0
    report = _json_out(capsys)
    for row in report["classes"]:
        if row["status"] == "differs":
            assert row["hbar_order_min"] >= 2


def test_compare_text_format_has_table_header(capsys):
    assert cli.main(["compare", "--max-len", "4", "--max-e", "2", "--format", "text"]) == 0
    out = capsys.readouterr().out
    assert "class comparison at word length <= 4, E count <= 2" in out


# -- derive ------------------------------------------------------------------------------


def test_derive_eriksen_passes_within_short_words(capsys):
    assert cli.main(["derive", "eriksen", "--max-len", "4", "--max-e", "2"]) == 0
    report = _json_out(capsys)
    assert report["status"] == "pass"
    assert report["residual_classes"] == []


def test_derive_eriksen_reports_reference_disagreement(capsys):
    # At word length 6 the two-E four-O class disagrees with the tabulated
    # reference weights; the command reports it and exits nonzero.
    assert cli.main(["derive", "eriksen", "--max-len", "6", "--max-e", "2"]) == 1
    report = _json_out(capsys)
    assert report["status"] == "fail"
    assert [(row["e"], row["o"]) for row in report["residual_classes"]] == [(2, 4)]


def test_derive_stepwise_explains_display_differences(capsys):
    assert cli.main(["derive", "stepwise", "--max-len", "6", "--max-e", "2"]) == 0
    report = _json_out(capsys)
    assert report["status"] == "pass"
    for row in report["classes"]:
        assert row["status"] == "explained"
        assert row["delta_brackets"]


def test_derive_second_step_passes(capsys):
    assert cli.main(["derive", "second-step", "--max-len", "6", "--max-e", "2"]) == 0
    assert _json_out(capsys)["status"] == "pass"


# -- concretize --------------------------------------------------------------------------


def test_concretize_electrostatic_passes(capsys):
    assert cli.main(["concretize", "electrostatic"]) == 0
    report = _json_out(capsys)
    assert report["status"] == "pass"
    assert report["blocks"]


def test_concretize_uniform_field_matches(capsys):
    assert cli.main(["concretize", "uniform-field"]) == 0
    report = _json_out(capsys)
    assert report["status"] == "match"
    assert report["residual"] == []


# -- spectra -----------------------------------------------------------------------------


def test_spectra_run_reports_matched_levels(capsys):
    assert (
        cli.main(
            ["spectra", "run", "--particle", "spin0", "--B", "0.5", "--levels", "16"]
        )
        == 0
    )
    report = _json_out(capsys)
    assert report["model"]["particle"] == "spin0"
    assert report["status"] == "pass"
    assert report["interior_count"] > 0


def test_spectra_run_rejects_invalid_combination(capsys):
    code = cli.main(["spectra", "run", "--particle", "spin0", "--representation", "original"])
    assert code == 2
    assert "not available" in capsys.readouterr().err


def test_spectra_run_square_root_failure_is_reported(capsys):
    code = cli.main(
        ["spectra", "run", "--particle", "spin1", "--representation", "fw", "--B", "1.2", "--levels", "16"]
    )
    assert code == 1
    report = _json_out(capsys)
    assert report["status"] == "fail"
    assert "positive-definite" in report["failure"]


def test_spectra_amm_scan_reports_shallow_slope(capsys):
    code = cli.main(["spectra", "amm-scan", "--levels", "48", "--scan-points", "5"])
    assert code == 1
    report = _json_out(capsys)
    assert report["status"] == "fail"
    assert 0.8 < report["scan"]["fitted_slope"] < 1.2


def test_spectra_correction_scan_passes(capsys):
    code = cli.main(["spectra", "correction-scan", "--levels", "48", "--scan-points", "5"])
    assert code == 0
    report = _json_out(capsys)
    assert report["status"] == "pass"
    assert report["scan"]["fitted_slope"] > 3.5


def test_spectra_correction_scan_rejects_vanishing_anomaly(capsys):
    assert cli.main(["spectra", "correction-scan", "--g", "2.0"]) == 2
    assert "g != 2" in capsys.readouterr().err


@pytest.mark.parametrize("target", ["amm-scan", "correction-scan"])
@pytest.mark.parametrize(
    "flags, named",
    [
        (["--scan-from", "0"], "--scan-from"),
        (["--scan-from", "-1"], "--scan-from"),
        (["--scan-to", "0"], "--scan-to"),
        (["--scan-points", "1"], "--scan-points"),
    ],
)
def test_spectra_scan_rejects_bad_scan_flags(target, flags, named, capsys):
    assert cli.main(["spectra", target, "--levels", "16", *flags]) == 2
    assert named in capsys.readouterr().err


def test_spectra_scan_through_one_point_fits_no_slope(capsys):
    code = cli.main(
        [
            "spectra",
            "correction-scan",
            "--levels",
            "16",
            "--scan-from",
            "0.1",
            "--scan-to",
            "0.1",
            "--scan-points",
            "3",
        ]
    )
    assert code == 1
    report = _json_out(capsys)
    assert report["scan"]["x_values"] == [0.1, 0.1, 0.1]
    assert report["scan"]["fitted_slope"] is None
    assert report["status"] == "fail"


def test_spectra_relations_pass(capsys):
    assert cli.main(["spectra", "relations", "--levels", "16"]) == 0
    report = _json_out(capsys)
    assert report["status"] == "pass"
    assert all(row["passed"] for row in report["checks"])


# -- config files ------------------------------------------------------------------------


def test_config_file_supplies_values(tmp_path, capsys):
    cfg = tmp_path / "fw.cfg"
    cfg.write_text("# budget\nmax-len = 4\nmax_e = 2\n")
    assert cli.main(["compare", "--config", str(cfg)]) == 0
    report = _json_out(capsys)
    assert report["budget"] == {"max_word_len": 4, "max_e_count": 2}
    manifest = json.loads((tmp_path / "fwforge-manifest.json").read_text())
    assert manifest["parameters"]["max_len"] == 4
    assert manifest["parameters"]["config"] == str(cfg)


def test_flag_overrides_config_value(tmp_path, capsys):
    cfg = tmp_path / "fw.cfg"
    cfg.write_text("format = text\nmax-len = 4\nmax-e = 2\n")
    assert cli.main(["compare", "--config", str(cfg), "--format", "json"]) == 0
    json.loads(capsys.readouterr().out)  # would raise on the text rendering


def test_unknown_config_key_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "fw.cfg"
    cfg.write_text("bogus = 1\n")
    assert cli.main(["compare", "--config", str(cfg)]) == 2
    assert "unknown config key" in capsys.readouterr().err


def test_unparseable_config_value_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "fw.cfg"
    cfg.write_text("max-len = banana\n")
    assert cli.main(["compare", "--config", str(cfg)]) == 2
    assert "cannot parse" in capsys.readouterr().err


def test_missing_config_file_is_usage_error(capsys):
    assert cli.main(["compare", "--config", "no-such-file.cfg"]) == 2
    assert "cannot read config file" in capsys.readouterr().err


def test_config_line_without_equals_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "fw.cfg"
    cfg.write_text("max-len 4\n")
    assert cli.main(["compare", "--config", str(cfg)]) == 2
    assert "expected 'key = value'" in capsys.readouterr().err


# -- output files and manifests ------------------------------------------------------------


def test_out_both_writes_report_text_and_manifest(tmp_path):
    out = tmp_path / "rep.json"
    code = cli.main(
        ["compare", "--max-len", "4", "--max-e", "2", "--out", str(out), "--format", "both"]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["budget"]["max_word_len"] == 4
    assert "class comparison" in (tmp_path / "rep.json.txt").read_text()
    manifest = json.loads((tmp_path / "rep.json.manifest.json").read_text())
    assert manifest["command"] == "compare"
    assert manifest["parameters"]["format"] == "both"
    assert manifest["parameters"]["out"] == str(out)


def test_manifest_written_next_to_stdout_runs(tmp_path, capsys):
    assert cli.main(["spectra", "relations", "--levels", "16"]) == 0
    manifest = json.loads((tmp_path / "fwforge-manifest.json").read_text())
    assert manifest["command"] == "spectra relations"
    assert manifest["parameters"]["levels"] == 16
    assert manifest["parameters"]["B"] == 0.3
    assert "particle" not in manifest["parameters"]


def test_manifest_echoes_every_effective_parameter(tmp_path, capsys):
    assert cli.main(["spectra", "run", "--levels", "16", "--B", "0.3"]) == 0
    manifest = json.loads((tmp_path / "fwforge-manifest.json").read_text())
    params = manifest["parameters"]
    assert params["particle"] == "spin12"
    assert params["representation"] == "fw"
    assert params["g"] == 2.0
    assert params["m"] == 1.0
    assert params["format"] == "json"


# -- determinism -------------------------------------------------------------------------


def test_symbolic_output_is_byte_identical_across_runs(capsys):
    args = ["derive", "second-step", "--max-len", "6", "--max-e", "2"]
    assert cli.main(args) == 0
    first = capsys.readouterr().out
    assert cli.main(args) == 0
    second = capsys.readouterr().out
    assert first == second


def test_expand_output_is_byte_identical_across_runs(capsys):
    args = ["expand", "acomm(E, pow(O, 2))", "--max-len", "6", "--max-e", "2"]
    assert cli.main(args) == 0
    first = capsys.readouterr().out
    assert cli.main(args) == 0
    assert first == capsys.readouterr().out


# -- entry points ------------------------------------------------------------------------


def test_help_exits_zero(capsys):
    assert cli.main(["--help"]) == 0
    assert "derive" in capsys.readouterr().out


def test_no_arguments_is_usage_error(capsys):
    assert cli.main([]) == 2


def test_module_runs_as_script(tmp_path):
    # The child starts in tmp_path, where a relative PYTHONPATH entry such as
    # "src" no longer points at the package; put the imported copy's absolute
    # source directory first so the child runs the package under test.
    env = dict(os.environ)
    src_dir = str(Path(fwforge.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src_dir, env.get("PYTHONPATH")) if p)
    result = subprocess.run(
        [sys.executable, "-m", "fwforge.cli", "expand", "comm(O, E)", "--max-len", "4", "--max-e", "2"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=env,
    )
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout)
    assert report["canonical"] == format_expr(expand(parse_expr("comm(O, E)"), Budget(4, 2)))
    assert (tmp_path / "fwforge-manifest.json").exists()
