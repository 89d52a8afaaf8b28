"""Each output check passes a real report and catches a planted error in it.

    python -m pytest bench/test_checks.py

The reports come from small runs of the real commands; each planted error
is one changed coefficient, one dropped bracket or word, or one eigenvalue
shifted by 1e-6.
"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "src")]

import checks  # noqa: E402


def fwforge(tmp_path_factory, *args) -> tuple[dict, int]:
    out = tmp_path_factory.mktemp("report") / "report.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    code = subprocess.run(
        [sys.executable, "-m", "fwforge.cli", *args, "--out", str(out)], env=env, cwd=out.parent
    ).returncode
    return json.loads(out.read_text()), code


def scaled_coeff(text: str, factor=Fraction(101, 100)) -> str:
    return str(Fraction(text) * factor)


def scaled_term(term: str) -> str:
    """The same canonical word term with its coefficient times 101/100."""
    sign, body = ("-", term[1:]) if term.startswith("-") else ("", term)
    coeff, _, rest = body.partition(" ")
    return f"{sign}{scaled_coeff(coeff)} {rest}".rstrip()


@pytest.fixture(scope="module")
def compare_report(tmp_path_factory):
    return fwforge(tmp_path_factory, "compare", "--max-len", "6", "--max-e", "3")


@pytest.fixture(scope="module")
def derive_report(tmp_path_factory):
    return fwforge(tmp_path_factory, "derive", "eriksen", "--max-len", "10", "--max-e", "4")


@pytest.fixture(scope="module")
def expand_report(tmp_path_factory):
    text = f"pow(beta * m^1 + E + O, {checks.EXPAND_POWER})"
    return fwforge(tmp_path_factory, "expand", text, "--max-len", "8", "--max-e", "3")


def differing(report):
    return [row for row in report["classes"] if row["status"] == "differs"]


def test_compare_passes_and_catches_changed_coefficient(compare_report):
    report, code = compare_report
    assert checks.check_compare(report, code, checks.Context(1)) == []
    for index in range(len(differing(report))):
        planted = copy.deepcopy(report)
        entry = differing(planted)[index]["basis_terms"][0]
        entry["coeff"] = scaled_coeff(entry["coeff"])
        assert checks.check_compare(planted, code, checks.Context(1))


def test_compare_catches_dropped_bracket(compare_report):
    report, code = compare_report
    planted = copy.deepcopy(report)
    row = max(differing(planted), key=lambda r: len(r["basis_terms"]))
    row["basis_terms"].remove(min(row["basis_terms"], key=lambda t: abs(Fraction(t["coeff"]))))
    assert checks.check_compare(planted, code, checks.Context(2))


def test_compare_catches_low_order_certificate(compare_report):
    report, code = compare_report
    planted = copy.deepcopy(report)
    differing(planted)[0]["hbar_order_min"] = 1
    assert checks.check_compare(planted, code, checks.Context(3))


def test_derive_passes_and_catches_changed_coefficient(derive_report):
    report, code = derive_report
    assert checks.check_derive(report, code, checks.Context(1)) == []
    for key in ("residual_classes", "extra_classes"):
        for row in range(len(report[key])):
            planted = copy.deepcopy(report)
            terms = planted[key][row]["terms"]
            terms[-1] = scaled_term(terms[-1])
            assert checks.check_derive(planted, code, checks.Context(1)), (key, row)


def test_derive_catches_dropped_word(derive_report):
    report, code = derive_report
    planted = copy.deepcopy(report)
    planted["residual_classes"][0]["terms"].pop()
    assert checks.check_derive(planted, code, checks.Context(2))


def test_derive_ladder_catches_changed_residual(derive_report):
    report, code = derive_report
    ctx = checks.Context(3)
    assert checks.check_derive(report, code, ctx) == []
    planted = copy.deepcopy(report)
    planted["residual_classes"][0]["terms"].reverse()
    assert "ladder" in " ".join(checks.check_derive(planted, code, ctx))


def test_expand_passes_and_catches_changed_coefficient(expand_report):
    report, code = expand_report
    assert checks.check_expand(report, code, checks.Context(1)) == []
    terms = checks.split_canonical(report["canonical"])
    for index in (0, len(terms) // 2, len(terms) - 1):
        planted = copy.deepcopy(report)
        changed = list(terms)
        changed[index] = scaled_term(changed[index])
        planted["canonical"] = " + ".join(changed).replace("+ -", "- ")
        assert checks.check_expand(planted, code, checks.Context(1)), index


def test_expand_catches_dropped_word(expand_report):
    report, code = expand_report
    planted = copy.deepcopy(report)
    planted["canonical"] = planted["canonical"].rsplit(" + ", 1)[0]
    assert checks.check_expand(planted, code, checks.Context(2))


def test_concretize_uniform_catches_changed_coefficient(tmp_path_factory):
    report, code = fwforge(tmp_path_factory, "concretize", "uniform-field")
    assert checks.check_uniform(report, code, checks.Context(1)) == []
    for index in range(len(report["commutator"])):
        planted = copy.deepcopy(report)
        coeff, rest = planted["commutator"][index].split(" ", 1)
        planted["commutator"][index] = f"3*{coeff} {rest}"
        assert checks.check_uniform(planted, code, checks.Context(1)), index


def test_concretize_electrostatic_catches_changed_coefficient(tmp_path_factory):
    report, code = fwforge(tmp_path_factory, "concretize", "electrostatic")
    assert checks.check_electrostatic(report, code, checks.Context(1)) == []
    for block in range(len(report["blocks"])):
        planted = copy.deepcopy(report)
        term = planted["blocks"][block]["terms"][0]
        term["coeff"] = scaled_coeff(term["coeff"])
        assert checks.check_electrostatic(planted, code, checks.Context(1)), block


@pytest.mark.parametrize("particle", ["spin12", "spin1"])
def test_spectra_catch_shifted_eigenvalue(tmp_path_factory, particle):
    args = ("spectra", "run", "--particle", particle, "--levels", "32")
    fw, fw_code = fwforge(tmp_path_factory, *args, "--representation", "fw")
    original, code = fwforge(tmp_path_factory, *args, "--representation", "original")
    ctx = checks.Context(1)
    assert checks.check_spectra_run(fw, fw_code, ctx) == []
    assert checks.check_spectra_run(original, code, ctx) == []
    levels, cutoff = checks.landau_levels(original["model"], checks.LANDAU_LEVELS)
    for level in range(len(levels)):
        value = checks.interior_levels(original, cutoff)[level]
        planted = copy.deepcopy(original)
        entry = next(e for e in planted["eigenvalues"] if e["value"] == value and e["interior"])
        entry["value"] += 1e-6
        problems = checks.check_spectra_run(planted, code, ctx)
        assert any("Landau" in p for p in problems) and any("fw form" in p for p in problems), level


def test_spectra_scans_catch_failures(tmp_path_factory):
    relations, code = fwforge(tmp_path_factory, "spectra", "relations")
    assert checks.check_status_pass(relations, code, checks.Context(1)) == []
    relations["status"] = "fail"
    assert checks.check_status_pass(relations, code, checks.Context(1))
    amm, code = fwforge(tmp_path_factory, "spectra", "amm-scan", "--scan-points", "3")
    assert checks.check_amm(amm, code, checks.Context(1)) == []
    amm["scan"]["residuals"][1] = float("nan")
    assert checks.check_amm(amm, code, checks.Context(1))
