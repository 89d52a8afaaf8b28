"""Byte-for-byte pins of the symbolic reports.

Each file under tests/golden/ is the output of

    fwforge <command> --format both --out NAME.json

with the JSON report in NAME.json and the text report renamed to
NAME.txt.  The symbolic commands promise deterministic output, so any
change to a report shows here first.  The (8,3) comparison reuses the
session fixture instead of running the command again.
"""

from pathlib import Path

import pytest

from fwforge import cli

GOLDEN = Path(__file__).parent / "golden"


def test_compare_83_matches_golden(report83):
    assert (report83.to_json() + "\n").encode() == (GOLDEN / "compare_8_3.json").read_bytes()
    assert (report83.to_text() + "\n").encode() == (GOLDEN / "compare_8_3.txt").read_bytes()


@pytest.mark.parametrize(
    "argv, name",
    [
        (["compare", "--max-len", "6", "--max-e", "2"], "compare_6_2"),
        (["derive", "stepwise", "--max-len", "6", "--max-e", "2"], "derive_stepwise_6_2"),
        (["derive", "eriksen", "--max-len", "8", "--max-e", "3"], "derive_eriksen_8_3"),
    ],
)
def test_report_matches_golden(argv, name, tmp_path):
    out = tmp_path / "report.json"
    cli.main([*argv, "--format", "both", "--out", str(out)])
    assert out.read_bytes() == (GOLDEN / f"{name}.json").read_bytes()
    assert (tmp_path / "report.json.txt").read_bytes() == (GOLDEN / f"{name}.txt").read_bytes()
