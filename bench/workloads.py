"""The three workloads: real `fwforge` commands, each paired with its check.

compare-83        the paper's headline comparison; the comparator does ~95%
                  of the work, ncalg the rest as many small products.
derive-deep       the Eriksen pipeline on a ladder of budgets plus one deep
                  expansion; ncalg, fseries and eriksen as a few huge products.
concrete-numeric  Dirac-matrix concretizations and Landau-level spectra; the
                  concretizer and LAPACK, no symbolic layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import checks


@dataclass(frozen=True)
class Command:
    """fwforge arguments (without --out), report file name and check.

    `exits` are the exit codes with which the command completed: `derive
    eriksen` and `spectra amm-scan` report a failing comparison with exit
    1 by design.
    """

    args: tuple[str, ...]
    report: str
    check: Callable[[dict, int, checks.Context], list[str]]
    exits: frozenset[int] = frozenset({0})


DERIVE_LADDER = ((10, 4), (12, 5), (12, 6), (13, 5))
SPECTRA_LEVELS = 200
# `fw` first: each `original` spectrum is checked against it.
SPECTRA_RUNS = (
    ("spin0", "fw"),
    ("spin12", "fw"),
    ("spin12", "original"),
    ("spin1", "fw"),
    ("spin1", "original"),
    ("spin1", "fw_corrected"),
)

_BY_DESIGN = frozenset({0, 1})

WORKLOADS: dict[str, tuple[Command, ...]] = {
    "compare-83": (
        Command(("compare", "--max-len", "8", "--max-e", "3"), "compare.json", checks.check_compare),
    ),
    "derive-deep": tuple(
        Command(
            ("derive", "eriksen", "--max-len", str(length), "--max-e", str(e_count)),
            f"derive-{length}-{e_count}.json",
            checks.check_derive,
            _BY_DESIGN,
        )
        for length, e_count in DERIVE_LADDER
    )
    + (
        Command(
            ("expand", f"pow(beta * m^1 + E + O, {checks.EXPAND_POWER})", "--max-len", "13", "--max-e", "5"),
            "expand.json",
            checks.check_expand,
        ),
    ),
    "concrete-numeric": (
        Command(("concretize", "electrostatic"), "electrostatic.json", checks.check_electrostatic),
        Command(("concretize", "uniform-field"), "uniform.json", checks.check_uniform),
    )
    + tuple(
        Command(
            ("spectra", "run", "--particle", particle, "--representation", rep, "--levels", str(SPECTRA_LEVELS)),
            f"run-{particle}-{rep}.json",
            checks.check_spectra_run,
        )
        for particle, rep in SPECTRA_RUNS
    )
    + (
        Command(("spectra", "relations"), "relations.json", checks.check_status_pass),
        Command(("spectra", "correction-scan"), "correction.json", checks.check_status_pass),
        Command(("spectra", "amm-scan"), "amm.json", checks.check_amm, _BY_DESIGN),
    ),
}
