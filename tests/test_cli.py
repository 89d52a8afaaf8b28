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


def test_expand_zero_denominator_is_usage_error(capsys):
    assert cli.main(["expand", "1/0 * E"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("fwforge: error:")
    assert "zero denominator at offset 0" in err


@pytest.mark.parametrize(
    "text, offset",
    [("(" * 500 + "O" + ")" * 500, 100), ("comm(O, " * 300 + "O" + ")" * 300, 800)],
    ids=["parentheses-500", "comm-300"],
)
def test_expand_nested_too_deep_is_usage_error(text, offset, tmp_path):
    """Input nested past the parser's limit is one error line, not a
    RecursionError traceback."""
    result = subprocess.run(
        [sys.executable, "-m", "fwforge.cli", "expand", text],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=_child_env(),
    )
    assert result.returncode == 2, result.stderr
    assert result.stderr.splitlines() == [
        f"fwforge: error: cannot parse expression: nested deeper than 100 levels at offset {offset}"
    ]


@pytest.mark.parametrize(
    "text, canonical",
    [("(" * 100 + "O" + ")" * 100, "1 O"), ("comm(O, " * 100 + "E" + ")" * 100, "0")],
    ids=["parentheses-100", "comm-100"],
)
def test_expand_nested_at_the_limit_runs(text, canonical, capsys):
    assert cli.main(["expand", text, "--format", "text"]) == 0
    assert capsys.readouterr().out == canonical + "\n"


def test_expand_expression_with_a_leading_minus(capsys):
    """"-O" is expression text, not an unknown option."""
    assert cli.main(["expand", "-O", "--max-len", "4", "--max-e", "2"]) == 0
    minus_o = _json_out(capsys)
    assert cli.main(["expand", "- O", "--max-len", "4", "--max-e", "2"]) == 0
    spaced = _json_out(capsys)
    assert minus_o["canonical"] == spaced["canonical"] == "-1 O"


def test_expand_misspelt_flag_is_one_error_line(capsys):
    assert cli.main(["expand", "-O", "--max-lenn", "3"]) == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert errors == ["fwforge: error: unrecognized arguments: --max-lenn 3"]


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


def test_spectra_run_square_root_failure_is_reported(capsys, monkeypatch):
    # The parameter checks keep every radicand positive, so a square root
    # that fails anyway is forced here; it must still end in a report.
    from fwforge import spectra

    def failing_sqrt(matrix):
        raise spectra.SquareRootDomainError(-1.0)

    monkeypatch.setattr(spectra, "hermitian_sqrt", failing_sqrt)
    code = cli.main(
        [
            "spectra", "run", "--particle", "spin1", "--representation", "fw_corrected",
            "--g", "2.3", "--levels", "16",
        ]
    )
    assert code == 1
    report = _json_out(capsys)
    assert report["status"] == "fail"
    assert "positive-definite" in report["failure"]


_CORRECTED_DOMAIN = (
    "the corrected radicand's smallest entry, the least over s_z of m^2 + |e| hbar B "
    "- 2 e hbar B s_z - e^2 hbar^2 g (g - 2) B^2 s_z^2 / (4 m^2), is {} "
    "(the corrected form needs it positive)"
)


@pytest.mark.parametrize("charge", ["1", "-1"])
@pytest.mark.parametrize("g, smallest", [("4", "0.0"), ("5", "-0.4375"), ("6", "-1.0")])
def test_spectra_refuses_fw_corrected_outside_its_domain(g, smallest, charge, capsys):
    # m = 1, B = 0.5: m^2 exceeds |e| hbar B, but at n = 0 and s_z = sign(e)
    # the corrected radicand is 1 - 0.5 - g (g - 2) / 16.
    argv = ["spectra", "run", "--particle", "spin1", "--representation", "fw_corrected"]
    assert cli.main([*argv, "--g", g, "--e", charge, "--levels", "8"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"fwforge: error: spin-1 fw_corrected is outside its domain at B = 0.5, g = {g}.0: "
        + _CORRECTED_DOMAIN.format(smallest)
    ]


@pytest.mark.parametrize("charge", ["1", "-1"])
def test_spectra_fw_corrected_just_inside_its_domain_runs(charge, capsys):
    argv = ["spectra", "run", "--particle", "spin1", "--representation", "fw_corrected"]
    assert cli.main([*argv, "--g", "3.9", "--e", charge, "--levels", "16"]) != 2
    report = _json_out(capsys)
    assert "failure" not in report
    assert report["interior_count"] > 0


def test_spectra_correction_scan_refuses_a_field_outside_the_domain(capsys):
    # The radicand is smallest at the largest field: 1 + 0.5 - 1 - 5 at B = 0.5.
    argv = ["spectra", "correction-scan", "--g", "10", "--scan-from", "0.3", "--scan-to", "0.5"]
    assert cli.main([*argv, "--levels", "8"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "fwforge: error: spin-1 fw_corrected is outside its domain at the largest scanned "
        "B = 0.5, g = 10.0: " + _CORRECTED_DOMAIN.format("-4.5")
    ]


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


@pytest.mark.parametrize(
    "target, flag, value",
    [
        ("run", "--g", "nan"),
        ("run", "--B", "inf"),
        ("run", "--m", "inf"),
        ("run", "--hbar", "inf"),
        ("run", "--e", "nan"),
        ("relations", "--B", "inf"),
        ("amm-scan", "--B", "inf"),
        ("correction-scan", "--g", "nan"),
    ],
)
def test_spectra_rejects_non_finite_parameters(target, flag, value, capsys):
    assert cli.main(["spectra", target, "--levels", "16", flag, value]) == 2
    assert f"{flag[2:]} must be finite, got {value}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--particle", "spin12", "--representation", "fw", "--m", "1e-200"],
        ["relations", "--m", "1e-160"],
    ],
    ids=["run", "relations"],
)
def test_spectra_refuses_a_mass_whose_square_underflows(argv, capsys):
    assert cli.main(["spectra", *argv, "--levels", "8"]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("fwforge: error: --m "), lines
    assert "underflows" in lines[0]


@pytest.mark.parametrize(
    "flags",
    [
        ["--representation", "fw"],
        ["--representation", "original"],
        ["--representation", "fw", "--e", "-1"],
    ],
    ids=["fw", "original", "negative-charge"],
)
def test_spectra_refuses_a_spin12_mass_lost_to_rounding(flags, capsys):
    # m^2 = 1e-300 is a normal float, but it vanishes against |e| hbar B = 0.5
    argv = ["spectra", "run", "--particle", "spin12", "--m", "1e-150", "--levels", "8"]
    assert cli.main([*argv, *flags]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert lines == [
        "fwforge: error: m = 1e-150 is too small against |e| hbar B = 0.5: "
        "m^2 is lost to rounding in m^2 + |e| hbar B"
    ]


@pytest.mark.parametrize("representation", ["fw", "fw_corrected", "original"])
@pytest.mark.parametrize("mass, square", [("0.5", "0.25"), ("0.7", "0.48999999999999994")])
def test_spectra_refuses_a_spin1_mass_at_or_below_the_splitting(
    representation, mass, square, capsys
):
    # At the defaults e = 1, hbar = 1 and B = 0.5 the lowest spin-1 level
    # squares to m^2 - 0.5 < 0.
    argv = ["spectra", "run", "--particle", "spin1", "--representation", representation]
    assert cli.main([*argv, "--m", mass, "--levels", "8"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"fwforge: error: --m {mass} is too small for spin 1: m^2 = {square} does not "
        "exceed |e| hbar B = 0.5, and the lowest spin-1 level squares to "
        "m^2 - |e| hbar B (spin-1 spectra need m^2 > |e| hbar B)"
    ]


def test_spectra_refuses_a_spin1_mass_equal_to_the_splitting(capsys):
    argv = ["spectra", "run", "--particle", "spin1", "--representation", "fw", "--levels", "8"]
    assert cli.main([*argv, "--m", "0.5", "--B", "0.25"]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert "m^2 = 0.25 does not exceed |e| hbar B = 0.25" in line
    # Just above the splitting the spectrum runs.
    assert cli.main([*argv, "--m", "0.5", "--B", "0.2"]) == 0
    capsys.readouterr()
    # A mass that is not positive keeps the model's own message.
    assert cli.main([*argv, "--m", "-0.5"]) == 2
    assert capsys.readouterr().err == "fwforge: error: mass must be positive, got -0.5\n"


def test_spectra_spin1_small_mass_is_refused_only_for_a_spectrum(capsys):
    assert cli.main(["spectra", "relations", "--m", "0.5", "--levels", "16"]) == 0
    assert cli.main(["spectra", "correction-scan", "--m", "0.5", "--levels", "16"]) == 0
    # m^2 = 0.25 <= |e| hbar B = 1, which a spectrum refuses.
    assert cli.main(["spectra", "relations", "--m", "0.5", "--B", "1", "--levels", "16"]) == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["amm-scan", "--m", "0.5", "--B", "1"],
        # The scan's largest field decides: 0.25 <= 1 at B = 1.
        ["correction-scan", "--m", "0.5", "--g", "1", "--scan-to", "1"],
    ],
    ids=["amm-scan", "correction-scan"],
)
def test_spectra_scans_refuse_a_spin1_mass_at_or_below_the_splitting(argv, capsys):
    assert cli.main(["spectra", *argv, "--levels", "16"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "fwforge: error: --m 0.5 is too small for spin 1: m^2 = 0.25 does not "
        "exceed |e| hbar B = 1.0, and the lowest spin-1 level squares to "
        "m^2 - |e| hbar B (spin-1 spectra need m^2 > |e| hbar B)"
    ]


@pytest.mark.parametrize("target, flag", [("amm-scan", "--g"), ("correction-scan", "--B")])
def test_spectra_scan_rejects_the_flag_it_scans(target, flag, capsys):
    # amm-scan sets g from its scan grid and correction-scan sets B, so the
    # flag would be echoed into the manifest and then ignored.
    assert cli.main(["spectra", target, "--levels", "16", flag, "0.9"]) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


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


@pytest.mark.parametrize(
    "target, flag",
    [("run", "--levels"), ("relations", "--levels"), ("correction-scan", "--scan-points")],
)
def test_spectra_size_past_the_address_space_is_usage_error(target, flag, capsys):
    # 10**15 levels or points ask numpy for about 7 PiB, which it refuses
    # at once; never test a size the machine could try to allocate.
    assert cli.main(["spectra", target, flag, "1000000000000000"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("fwforge: error: Unable to allocate")
    assert err.count("\n") == 1


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


@pytest.mark.parametrize(
    "argv, line, message",
    [
        (["compare"], "bogus = 1", "unknown config key 'bogus' for compare"),
        (["compare"], "levels = 10", "unknown config key 'levels' for compare"),
        (["spectra", "run"], "max-len = 4", "unknown config key 'max-len' for spectra run"),
        (["compare"], "config = other.cfg", "unknown config key 'config' for compare"),
    ],
    ids=["bogus", "levels-compare", "max-len-spectra-run", "config"],
)
def test_unknown_config_key_is_usage_error(argv, line, message, tmp_path, capsys):
    """A config file takes only the flags of the command it runs, and no
    nested config file."""
    cfg = tmp_path / "fw.cfg"
    cfg.write_text(line + "\n")
    assert cli.main([*argv, "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == f"fwforge: error: {cfg}:1: {message}\n"
    assert not (tmp_path / "fwforge-manifest.json").exists()


def test_help_says_a_config_file_takes_the_commands_own_flags(capsys):
    assert cli.main(["spectra", "run", "--help"]) == 0
    shown = " ".join(capsys.readouterr().out.split())
    assert "--config CONFIG key = value file supplying defaults for this command's flags" in shown
    assert "any flag" not in shown


@pytest.mark.parametrize(
    "argv, line",
    [(["compare"], "format = xml"), (["spectra", "run"], "particle = spin2")],
    ids=["format", "particle"],
)
def test_config_value_outside_the_choices_is_usage_error(argv, line, tmp_path, capsys):
    cfg = tmp_path / "fw.cfg"
    cfg.write_text(line + "\n")
    assert cli.main([*argv, "--config", str(cfg)]) == 2
    assert "is not one of" in capsys.readouterr().err


def test_unparseable_config_value_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "fw.cfg"
    cfg.write_text("max-len = banana\n")
    assert cli.main(["compare", "--config", str(cfg)]) == 2
    assert "cannot parse" in capsys.readouterr().err


def test_missing_config_file_is_usage_error(capsys):
    assert cli.main(["compare", "--config", "no-such-file.cfg"]) == 2
    assert "cannot read config file" in capsys.readouterr().err


def test_undecodable_config_file_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "fw.cfg"
    cfg.write_bytes(b"\xff\xfemax-len = 4\n")
    assert cli.main(["compare", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == (
        f"fwforge: error: cannot read config file {cfg}: 'utf-8' codec can't decode "
        "byte 0xff in position 0: invalid start byte\n"
    )


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


# Every command's flags and their defaults as --help shows them, written out
# here rather than read from the command table, so that a row declared wrong
# fails a test.
_OUTPUT_DEFAULTS = {"out": "None", "format": "json", "config": "None"}
_BUDGET_DEFAULTS = {"max_len": "8", "max_e": "3"}
_CONSTANTS = {"m": "1.0", "hbar": "1.0", "e": "1.0"}
_SCAN_DEFAULTS = {"scan_from": "0.001", "scan_to": "0.1", "scan_points": "7"}
_FLAG_DEFAULTS = {
    "derive": {**_BUDGET_DEFAULTS, **_OUTPUT_DEFAULTS},
    "compare": {**_BUDGET_DEFAULTS, **_OUTPUT_DEFAULTS},
    "concretize": _OUTPUT_DEFAULTS,
    "spectra run": {
        "particle": "spin12",
        "representation": "fw",
        **_CONSTANTS,
        "B": "0.5",
        "g": "2.0",
        "levels": "64",
        **_OUTPUT_DEFAULTS,
    },
    "spectra amm-scan": {**_CONSTANTS, "B": "0.1", "levels": "64", **_SCAN_DEFAULTS, **_OUTPUT_DEFAULTS},
    "spectra correction-scan": {
        **_CONSTANTS,
        "g": "2.5",
        "levels": "64",
        **_SCAN_DEFAULTS,
        **_OUTPUT_DEFAULTS,
    },
    "spectra relations": {**_CONSTANTS, "B": "0.3", "g": "2.7", "levels": "32", **_OUTPUT_DEFAULTS},
    "expand": {**_BUDGET_DEFAULTS, **_OUTPUT_DEFAULTS},
}
# A fast run of each command; spectra runs keep 16 levels.
_FAST_ARGV = {
    "derive": ["derive", "eriksen", "--max-len", "4", "--max-e", "2"],
    "compare": ["compare", "--max-len", "4", "--max-e", "2"],
    "concretize": ["concretize", "electrostatic"],
    "spectra run": ["spectra", "run", "--levels", "16"],
    "spectra amm-scan": ["spectra", "amm-scan", "--levels", "16"],
    "spectra correction-scan": ["spectra", "correction-scan", "--levels", "16"],
    "spectra relations": ["spectra", "relations", "--levels", "16"],
    "expand": ["expand", "E", "--max-len", "4", "--max-e", "2"],
}


@pytest.mark.parametrize("key", list(_FLAG_DEFAULTS))
def test_manifest_parameters_are_the_command_flags(key, tmp_path, capsys):
    argv = _FAST_ARGV[key]
    assert cli.main(argv) in (0, 1)
    params = json.loads((tmp_path / "fwforge-manifest.json").read_text())["parameters"]
    expected = set(_FLAG_DEFAULTS[key]) | ({"expression"} if key == "expand" else set())
    assert set(params) == expected
    given = {arg[2:].replace("-", "_") for arg in argv if arg.startswith("--")}
    for dest, default in _FLAG_DEFAULTS[key].items():
        if dest not in given:
            assert str(params[dest]) == default, dest


@pytest.mark.parametrize("key", list(_FLAG_DEFAULTS))
def test_help_shows_each_flag_with_its_default(key, capsys):
    assert cli.main([*key.split(), "--help"]) == 0
    shown = " ".join(capsys.readouterr().out.split())
    for dest, default in _FLAG_DEFAULTS[key].items():
        flag = "--" + dest.replace("_", "-")
        # The options list, not the usage line, where each flag is in brackets.
        entry = shown[shown.index(f" {flag} ") :]
        assert entry.split("default: ", 1)[1].startswith(f"{default})"), flag


@pytest.mark.parametrize("where", ["missing/rep.json", "."], ids=["missing-dir", "a-dir"])
def test_unwritable_out_is_usage_error(where, tmp_path, capsys):
    assert cli.main(["expand", "E", "--out", str(tmp_path / where)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("fwforge: error: cannot write ")
    assert "Traceback" not in err


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


def _child_env():
    # The child starts in tmp_path, where a relative PYTHONPATH entry such as
    # "src" no longer points at the package; put the imported copy's absolute
    # source directory first so the child runs the package under test.
    env = dict(os.environ)
    src_dir = str(Path(fwforge.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src_dir, env.get("PYTHONPATH")) if p)
    return env


def test_module_runs_as_script(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "fwforge.cli", "expand", "comm(O, E)", "--max-len", "4", "--max-e", "2"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=_child_env(),
    )
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout)
    assert report["canonical"] == format_expr(expand(parse_expr("comm(O, E)"), Budget(4, 2)))
    assert (tmp_path / "fwforge-manifest.json").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["concretize", "electrostatic"],
        ["expand", "comm(O, E)", "--max-len", "4", "--max-e", "2"],
        ["derive", "eriksen", "--max-len", "4", "--max-e", "2"],
    ],
)
def test_symbolic_commands_do_not_import_numpy(argv, tmp_path):
    script = (
        "import sys\n"
        "from fwforge import cli\n"
        f"code = cli.main({argv!r} + ['--out', 'report.json'])\n"
        "print(code, 'numpy' in sys.modules, 'fwforge.comparator' in sys.modules)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, cwd=tmp_path, env=_child_env()
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["0", "False", "False"]


def test_concretize_commands_do_not_import_the_series_registry(tmp_path):
    """The concretizations read their bracket interiors as text and load no
    fwforge.fseries."""
    for target in ["electrostatic", "uniform-field"]:
        script = (
            "import sys\n"
            "from fwforge import cli\n"
            f"code = cli.main(['concretize', {target!r}, '--out', 'report.json'])\n"
            "print(code, 'fwforge.fseries' in sys.modules)\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, cwd=tmp_path, env=_child_env()
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == ["0", "False"], target


def test_spectra_commands_do_not_import_symbolic_modules(tmp_path):
    """`spectra relations` and `spectra run` load no symbolic layer, and no
    numpy.ma (np.unique would import it)."""
    unwanted = ["fwforge.concretizer", "fwforge.fseries", "fwforge.ncalg", "fwforge.lang", "numpy.ma"]
    for target in ["relations", "run"]:
        script = (
            "import sys\n"
            "from fwforge import cli\n"
            f"code = cli.main(['spectra', {target!r}, '--levels', '8', '--out', 'report.json'])\n"
            f"print(code, *[name in sys.modules for name in {unwanted!r}])\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, cwd=tmp_path, env=_child_env()
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == ["0"] + ["False"] * len(unwanted), target


@pytest.mark.parametrize(
    "argv",
    [
        ["compare", "--max-len", "6", "--max-e", "2"],
        ["derive", "stepwise", "--max-len", "6", "--max-e", "2"],
    ],
)
def test_comparator_commands_do_not_import_numpy_ma(argv, tmp_path):
    """The comparator takes its order levels without np.unique, which would
    import numpy.ma."""
    script = (
        "import sys\n"
        "from fwforge import cli\n"
        f"code = cli.main({argv!r} + ['--out', 'report.json'])\n"
        "print(code, 'fwforge.comparator' in sys.modules, 'numpy.ma' in sys.modules)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, cwd=tmp_path, env=_child_env()
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["0", "True", "False"]


@pytest.mark.parametrize(
    "argv",
    [
        ["correction-scan", "--scan-to", "1e200", "--scan-points", "2"],
        ["relations", "--B", "1e100"],
        ["run", "--particle", "spin1", "--representation", "fw_corrected", "--g", "1e200"],
        ["run", "--m", "1e200"],
        ["run", "--particle", "spin1", "--m", "1e200"],
    ],
    ids=["correction-scan", "relations", "run", "run-mass", "run-spin1-mass"],
)
def test_spectra_overflow_is_usage_error(argv, tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "fwforge.cli", "spectra", *argv, "--levels", "8"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=_child_env(),
    )
    assert result.returncode == 2, result.stderr
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("fwforge: error: "), result.stderr
    assert "overflow" in lines[0]
    assert not (tmp_path / "fwforge-manifest.json").exists()


def test_particle_choices_are_the_spectra_particles():
    from fwforge import spectra

    assert cli._PARTICLES == spectra.PARTICLES
    assert set(cli._REPRESENTATIONS) == set().union(*spectra.REPRESENTATIONS.values())
