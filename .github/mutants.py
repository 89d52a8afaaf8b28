"""Re-run the recorded mutation checks: every mutant must fail a test.

    python .github/mutants.py

Each entry of MUTANTS names a file, a text in it, the text that replaces
it, and the tests that should catch the change.  The script first checks
that each old text occurs exactly once, so a refactor that moves the code
must update its mutant, and that the selected tests pass on an unchanged
copy of the checkout.  Then, for each entry, it copies the checkout to a
temporary directory, applies the replacement there, and runs the entry's
tests under the Tier-1 command.  A mutant is killed when at least one of
them fails; the log names the tests that did.  The script exits 1 when
an old text is missing or repeated, when the selection fails unchanged,
or when a mutant survives.  It uses the standard library only, and
leaves the checkout untouched.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# The Tier-1 command, with a report line for each failed or erroring test.
TIER1 = (sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", "-rfE")
IGNORED = shutil.ignore_patterns(
    ".git", "__pycache__", ".pytest_cache", ".hypothesis", "*.egg-info", "build"
)


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = (
    Mutant(
        "gamma5-sign",
        "src/fwforge/concretizer.py",
        '"gamma5": _m_kron(_m_phase(rho1, 2), one),',
        '"gamma5": _m_kron(rho1, one),',
        (
            "tests/test_concretizer.py::test_all_representation_identities_pass",
            "tests/test_concretizer.py::test_electrostatic_derivation_passes",
        ),
    ),
    Mutant(
        "sigma-y-powers",
        "src/fwforge/concretizer.py",
        "sigma = ((1, 0), (0, 0)), ((1, 0), (3, 1)), ((0, 1), (0, 2))",
        "sigma = ((1, 0), (0, 0)), ((1, 0), (1, 3)), ((0, 1), (0, 2))",
        (
            "tests/test_concretizer.py::test_all_representation_identities_pass",
            "tests/test_concretizer.py::test_basis_is_the_pauli_block_construction",
        ),
    ),
    Mutant(
        "screen-keeps-nonzero-determinants",
        "src/fwforge/comparator.py",
        "np.nonzero(live & (determinants == 0))",
        "np.nonzero(live & (determinants != 0))",
        (
            "tests/test_comparator.py::test_determinant_screen_keeps_few_subsets_at_8_3",
            "tests/test_comparator.py::test_sparse_solve_covers_targets_of_more_than_64_words",
        ),
    ),
    Mutant(
        "screen-drops-nothing",
        "src/fwforge/comparator.py",
        "np.nonzero(live & (determinants == 0))",
        "np.nonzero(live)",
        (
            "tests/test_comparator.py::test_determinant_screen_keeps_few_subsets_at_8_3",
        ),
    ),
    Mutant(
        "trace-without-conjugation",
        "src/fwforge/concretizer.py",
        "_rotate((1, 0), q - p)",
        "_rotate((1, 0), q + p)",
        (
            "tests/test_concretizer.py::test_all_representation_identities_pass",
            "tests/test_concretizer.py::test_electrostatic_derivation_passes",
        ),
    ),
    Mutant(
        "product-subtracts-powers",
        "src/fwforge/concretizer.py",
        "tuple((p + y_powers[c]) % 4 for p, c in zip(x_powers, x_columns)),",
        "tuple((p - y_powers[c]) % 4 for p, c in zip(x_powers, x_columns)),",
        (
            "tests/test_concretizer.py::test_all_representation_identities_pass",
            "tests/test_concretizer.py::test_basis_is_closed_under_products_up_to_a_phase",
        ),
    ),
    Mutant(
        "anticommutes-as-commutes",
        "src/fwforge/concretizer.py",
        "return _m_mul(x, y) == _m_phase(_m_mul(y, x), 2)",
        "return _m_mul(x, y) == _m_mul(y, x)",
        (
            "tests/test_concretizer.py::test_all_representation_identities_pass",
            "tests/test_concretizer.py::test_uniform_commutator_closes_on_three_channels",
        ),
    ),
    Mutant(
        "electrostatic-swap-sign",
        "src/fwforge/concretizer.py",
        "coeff * QQi.of(0, -1),",
        "coeff * QQi.of(0, 1),",
        (
            "tests/test_concretizer.py::test_spin_orbit_and_darwin_block",
            "tests/test_concretizer.py::test_electrostatic_derivation_passes",
        ),
    ),
    Mutant(
        "uniform-swap-sign",
        "src/fwforge/concretizer.py",
        "coeff * QQi.of(0, 1),",
        "coeff * QQi.of(0, -1),",
        (
            "tests/test_concretizer.py::test_uniform_commutator_closes_on_three_channels",
        ),
    ),
    Mutant(
        "magnetic-swap-sign",
        "src/fwforge/concretizer.py",
        "coeff * QQi.of(0, sign),",
        "coeff * QQi.of(0, -sign),",
        (
            "tests/test_concretizer.py::test_kinetic_momenta_do_not_commute_in_uniform_mode",
            "tests/test_spectra.py::test_both_layers_read_one_sign_of_the_kinetic_momentum_commutator",
        ),
    ),
    Mutant(
        "concrete-product-drops-right-scalars",
        "src/fwforge/concretizer.py",
        'key = (label, "", _scalar_merge(sc1, sc2), w1 + w2)',
        'key = (label, "", sc1, w1 + w2)',
        (
            "tests/test_concretizer.py::test_electrostatic_derivation_passes",
        ),
    ),
    Mutant(
        "stepwise-always-explained",
        "src/fwforge/stepwise.py",
        '"status": "explained" if explained else "unexplained",',
        '"status": "explained",',
        (
            "tests/test_golden.py::test_report_matches_golden[argv11-derive_stepwise_10_4]",
        ),
    ),
    Mutant(
        "diff-report-projects-at-order-0",
        "src/fwforge/comparator.py",
        "order = certified or 0",
        "order = 0",
        (
            "tests/test_golden.py::test_report_matches_golden[argv0-compare_6_2]",
            "tests/test_comparator.py::test_report_projection_idempotent",
        ),
    ),
    Mutant(
        "stratum-refusal-off",
        "src/fwforge/comparator.py",
        "    if len(strata) != 1:\n",
        "    if False:\n",
        (
            "tests/test_comparator.py::test_certificate_is_the_lowest_over_the_strata",
        ),
    ),
    Mutant(
        "projection-suffix-off-by-one",
        "src/fwforge/comparator.py",
        'bisect_left(elements, min_order, key=attrgetter("order"))',
        'bisect_left(elements, min_order + 1, key=attrgetter("order"))',
        (
            "tests/test_comparator.py::test_min_order_filter_restricts_vocabulary",
            "tests/test_golden.py::test_report_matches_golden[argv0-compare_6_2]",
        ),
    ),
    Mutant(
        "levels-low-to-high",
        "src/fwforge/comparator.py",
        "sorted(set(orders), reverse=True)",
        "sorted(set(orders))",
        (
            "tests/test_comparator.py::test_certificates_match_the_oracle_on_every_differing_class",
        ),
    ),
    Mutant(
        "beta-moves-without-sign",
        "src/fwforge/ncalg.py",
        "sign = -1 if odd1 and b2 else 1",
        "sign = -1 if b2 and not odd1 else 1",
        (
            "tests/test_ncalg.py::test_beta_squares_to_one",
            "tests/test_ncalg.py::test_beta_commutes_with_e_anticommutes_with_o",
        ),
    ),
    Mutant(
        "class-pair-budget-off-by-one",
        "src/fwforge/ncalg.py",
        "if l1 + l2 > max_len or e1 + e2 > max_e:",
        "if l1 + l2 >= max_len or e1 + e2 > max_e:",
        (
            "tests/test_golden.py::test_report_matches_golden[argv12-derive_eriksen_10_4]",
            "tests/test_golden.py::test_report_matches_golden[argv2-derive_eriksen_8_3]",
        ),
    ),
    Mutant(
        "product-group-drops-right-m-power",
        "src/fwforge/ncalg.py",
        "key = (l1 + l2, e1 + e2, b1 ^ b2, k1 + k2)",
        "key = (l1 + l2, e1 + e2, b1 ^ b2, k1)",
        (
            "tests/test_ncalg.py::test_one_word_under_two_beta_m_pairs",
            "tests/test_golden.py::test_report_matches_golden[argv2-derive_eriksen_8_3]",
        ),
    ),
    Mutant(
        "lowest-terms-skipped",
        "src/fwforge/ncalg.py",
        "    if g != 1:\n",
        "    if False:\n",
        (
            "tests/test_ncalg.py::test_normal_form_is_unique",
        ),
    ),
    Mutant(
        "binomial-rising-factorial",
        "src/fwforge/fseries.py",
        "out *= (q - j)",
        "out *= (q + j)",
        (
            "tests/test_fseries.py::test_binomial_coefficients_at_one_half",
            "tests/test_fseries.py::test_eps_series_through_fourth_order",
        ),
    ),
    Mutant(
        "order2-weight-sign",
        "src/fwforge/stepwise.py",
        '("inv_eps3", Fraction(-1, 16), 1, "pow(comm(O, E), 2)"),',
        '("inv_eps3", Fraction(1, 16), 1, "pow(comm(O, E), 2)"),',
        (
            "tests/test_stepwise.py::test_closed_form_texts_are_assembled_from_the_block_table",
            "tests/test_stepwise.py::test_two_e_two_o_class",
        ),
    ),
    Mutant(
        "basis-guard-off",
        "src/fwforge/comparator.py",
        "if 2 * left_max * right_max > np.iinfo(np.int64).max:",
        "if False:",
        (
            "tests/test_comparator.py::test_blocks_refuse_entries_that_could_pass_int64",
        ),
    ),
    Mutant(
        "first-candidate-ignores-sequence",
        "src/fwforge/comparator.py",
        "earlier = held is None or (first is not None and seq < first[0])",
        "earlier = held is None",
        (
            "tests/test_comparator.py::test_elements_match_the_dict_builder[6-2-None]",
        ),
    ),
    Mutant(
        "basis-length-counts-one-class",
        "src/fwforge/comparator.py",
        "return sum(len(elements) for elements, _ in self._by_class.values())",
        "return len(next(iter(self._by_class.values()))[0])",
        (
            "tests/test_comparator.py::test_full_basis_shape_is_frozen",
        ),
    ),
    Mutant(
        "nearest-tie-takes-the-later-index",
        "src/fwforge/spectra.py",
        "((above == below) & (first[upper] < first[lower]))",
        "((above == below) & (first[upper] > first[lower]))",
        (
            "tests/test_spectra.py::test_nearest_matches_the_table_scan",
        ),
    ),
    Mutant(
        "spin1-closed-form-half-splitting",
        "src/fwforge/spectra.py",
        "radicand = base - 2.0 * lam * signed",
        "radicand = base - lam * signed",
        (
            "tests/test_spectra.py::test_spin1_closed_forms_at_g_two",
            "tests/test_spectra.py::test_closed_form_energy_domain_guard",
        ),
    ),
    Mutant(
        "config-beats-command-line",
        "src/fwforge/cli.py",
        "        if raw is None and dest in config:\n",
        "        if dest in config:\n",
        (
            "tests/test_cli.py::test_flag_overrides_config_value",
        ),
    ),
    Mutant(
        "config-key-scope-off",
        "src/fwforge/cli.py",
        'accepted = {_dest(row[0]) for row in _COMMANDS[key][2]} - {"config"}',
        "accepted = {_dest(row[0]) for _, _, rows in _COMMANDS.values() for row in rows}",
        (
            "tests/test_cli.py::test_unknown_config_key_is_usage_error",
        ),
    ),
)


def _copy(dest: Path) -> None:
    shutil.copytree(ROOT, dest, ignore=IGNORED)


def _run(checkout: Path, tests) -> tuple[int, list[str], str]:
    """Exit code, failed test ids and output of the tests in a checkout."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    result = subprocess.run(
        [*TIER1, *tests], cwd=checkout, env=env, capture_output=True, text=True
    )
    failed = [
        line.split(" ", 1)[1].split(" - ", 1)[0]
        for line in result.stdout.splitlines()
        if line.startswith(("FAILED ", "ERROR "))
    ]
    return result.returncode, failed, result.stdout + result.stderr


def main() -> int:
    stale = [
        f"{mutant.name}: {mutant.path} holds its old text {count} times, not once"
        for mutant in MUTANTS
        if (count := (ROOT / mutant.path).read_text().count(mutant.old)) != 1
    ]
    if stale:
        print("\n".join(stale), file=sys.stderr)
        return 1
    survivors = []
    with tempfile.TemporaryDirectory() as tmp:
        unchanged = Path(tmp) / "unchanged"
        _copy(unchanged)
        selection = sorted({test for mutant in MUTANTS for test in mutant.tests})
        code, failed, output = _run(unchanged, selection)
        if code != 0:
            print(output, f"the selection fails on the unchanged checkout: {failed}", sep="\n")
            return 1
        print(f"the {len(selection)} selected tests pass on the unchanged checkout")
        shutil.rmtree(unchanged)
        for mutant in MUTANTS:
            checkout = Path(tmp) / mutant.name
            _copy(checkout)
            target = checkout / mutant.path
            target.write_text(target.read_text().replace(mutant.old, mutant.new))
            start = time.perf_counter()
            code, failed, output = _run(checkout, mutant.tests)
            seconds = time.perf_counter() - start
            if code == 1 and failed:
                print(f"killed   {mutant.name} ({seconds:.1f} s) by {len(failed)} tests:")
                print("".join(f"    {test}\n" for test in failed), end="")
            else:
                survivors.append(mutant.name)
                print(f"SURVIVED {mutant.name} ({seconds:.1f} s), pytest exit {code}")
                print(output)
            shutil.rmtree(checkout)
    if survivors:
        print(f"{len(survivors)} mutants survived: {', '.join(survivors)}")
        return 1
    print(f"all {len(MUTANTS)} mutants killed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
