"""Byte-for-byte pins of the symbolic reports.

Each file under tests/golden/ is the output of

    fwforge <command> --format both --out NAME.json

with the JSON report in NAME.json and the text report renamed to
NAME.txt.  The symbolic commands promise deterministic output, so any
change to a report shows here first.  The (8,3) comparison is checked
twice: from the session fixture, and from the command at its default
budget.  epsfun_series.json holds, for
each registry name and each max length L from 0 to 15, the canonical
text that `fwforge expand "epsfun(NAME)" --max-len L --max-e 0` prints.
"""

import json
from pathlib import Path

import pytest

from fwforge import cli
from fwforge.fseries import REGISTRY
from fwforge.lang import format_expr
from fwforge.ncalg import Budget, EpsFun, expand

GOLDEN = Path(__file__).parent / "golden"


def test_epsfun_series_match_golden():
    expected = json.loads((GOLDEN / "epsfun_series.json").read_text())
    assert sorted(expected) == sorted(REGISTRY)
    got = {
        name: [format_expr(expand(EpsFun(name), Budget(length, 0))) for length in range(16)]
        for name in expected
    }
    assert got == expected


def test_compare_83_matches_golden(report83):
    assert (report83.to_json() + "\n").encode() == (GOLDEN / "compare_8_3.json").read_bytes()
    assert (report83.to_text() + "\n").encode() == (GOLDEN / "compare_8_3.txt").read_bytes()


def test_compare_83_without_a_basis_matches_golden(tmp_path):
    """The command at its default budget, (8,3), writes the same bytes."""
    out = tmp_path / "report.json"
    cli.main(["compare", "--format", "both", "--out", str(out)])
    assert out.read_bytes() == (GOLDEN / "compare_8_3.json").read_bytes()
    assert (tmp_path / "report.json.txt").read_bytes() == (GOLDEN / "compare_8_3.txt").read_bytes()


@pytest.mark.parametrize(
    "argv, name",
    [
        (["compare", "--max-len", "6", "--max-e", "2"], "compare_6_2"),
        (["derive", "stepwise", "--max-len", "6", "--max-e", "2"], "derive_stepwise_6_2"),
        (["derive", "eriksen", "--max-len", "8", "--max-e", "3"], "derive_eriksen_8_3"),
        (["derive", "second-step", "--max-len", "7", "--max-e", "2"], "derive_second_step_7_2"),
        (["concretize", "electrostatic"], "concretize_electrostatic"),
        (["concretize", "uniform-field"], "concretize_uniform_field"),
        (["compare", "--max-len", "7", "--max-e", "3"], "compare_7_3"),
        (["compare", "--max-len", "9", "--max-e", "3"], "compare_9_3"),
        (["compare", "--max-len", "10", "--max-e", "4"], "compare_10_4"),
        (["derive", "stepwise", "--max-len", "8", "--max-e", "3"], "derive_stepwise_8_3"),
        (["derive", "second-step", "--max-len", "8", "--max-e", "3"], "derive_second_step_8_3"),
        (["derive", "stepwise", "--max-len", "10", "--max-e", "4"], "derive_stepwise_10_4"),
        (["derive", "eriksen", "--max-len", "10", "--max-e", "4"], "derive_eriksen_10_4"),
        (
            ["expand", "pow(beta * m^1 + E + O, 14)", "--max-len", "10", "--max-e", "4"],
            "expand_pow14_10_4",
        ),
    ],
)
def test_report_matches_golden(argv, name, tmp_path):
    out = tmp_path / "report.json"
    cli.main([*argv, "--format", "both", "--out", str(out)])
    assert out.read_bytes() == (GOLDEN / f"{name}.json").read_bytes()
    assert (tmp_path / "report.json.txt").read_bytes() == (GOLDEN / f"{name}.txt").read_bytes()
