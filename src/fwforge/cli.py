"""Command-line front end.

Runs the symbolic derivations, the class-by-class comparison of the two
transformation methods, the Dirac-matrix concretizations, and the numerical
Landau-level checks; emits JSON and plain-text reports; and expands
mini-language expressions into canonical word sums.

Exit codes: 0 when every check in the requested report passes, 1 when any
check fails (the failing items are in the report), 2 on usage errors and
when the report or the manifest cannot be written.
A key = value config file (--config) supplies defaults for the flags of the
command being run; any other key, `config` itself included, is a usage error.
Every run writes a manifest file echoing the full effective configuration,
and symbolic commands produce byte-identical output across runs.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections.abc import Callable
from functools import partial
from pathlib import Path

# Each command imports the layers it runs inside its handler, so that
# `concretize`, `expand` and `derive eriksen` load neither numpy nor the
# comparator, and `spectra` loads neither ncalg nor lang.

PROG = "fwforge"

# spectra.PARTICLES and every representation in spectra.REPRESENTATIONS,
# written out so that building the parser imports no numpy.
_PARTICLES = ("spin0", "spin12", "spin1")
_REPRESENTATIONS = ("original", "fw", "fw_corrected")


class UsageError(ValueError):
    """Invalid flags, config entries, or expression text."""


class _Parser(argparse.ArgumentParser):
    """Every fwforge flag is spelled with "--", except -h.  So an argument
    with one leading "-" is a value, such as the expression "-O", which
    argparse would otherwise take for an unknown option."""

    def _parse_optional(self, arg_string):
        if arg_string[:1] == "-" and arg_string[1:2] != "-" and arg_string != "-h":
            return None
        return super()._parse_optional(arg_string)


# -- command table ---------------------------------------------------------------------
#
# Each command is declared once, here: its help, its positional argument
# (dest, choices, help) or None, and its flag rows (flag, type, default, help,
# choices).  The rows build the parser, read the config file and fill the
# manifest.  Every flag has an explicit default so that --help shows it; a
# key = value config file supplies defaults for the command's own flags, and
# any other key is an error.  Precedence is command line > config file >
# default.

_OUTPUT = (
    ("--out", str, None, "report file path; without it the report prints to standard output", None),
    ("--format", str, "json", "report format", ("json", "text", "both")),
    ("--config", str, None, "key = value file supplying defaults for this command's flags", None),
)
_BUDGET = (
    ("--max-len", int, 8, "maximum word length kept by the expansion budget", None),
    ("--max-e", int, 3, "maximum count of the even letter kept by the budget", None),
)


def _numeric(levels, B=None, g=None):
    # A scan sets the field or anomaly it scans, so it declares no flag for it.
    return (
        ("--m", float, 1.0, "mass", None),
        ("--hbar", float, 1.0, "Planck constant", None),
        ("--e", float, 1.0, "signed charge", None),
        *([("--B", float, B, "field strength along z", None)] if B is not None else []),
        *([("--g", float, g, "gyromagnetic factor", None)] if g is not None else []),
        ("--levels", int, levels, "Landau levels kept in the truncated basis", None),
    )


def _scan(what):
    return (
        ("--scan-from", float, 1e-3, f"smallest {what} in the logarithmic scan", None),
        ("--scan-to", float, 1e-1, f"largest {what} in the logarithmic scan", None),
        ("--scan-points", int, 7, "number of scan points", None),
    )


_COMMANDS = {
    "derive": (
        "run a derivation and compare it with its closed-form reference",
        ("target", ("eriksen", "stepwise", "second-step"), "which derivation to run"),
        _BUDGET + _OUTPUT,
    ),
    "compare": (
        "class-by-class difference of the direct and iterative methods",
        None,
        _BUDGET + _OUTPUT,
    ),
    "concretize": (
        "verify the symbolic results on explicit Dirac matrices and fields",
        ("target", ("electrostatic", "uniform-field"), "which concretization to verify"),
        _OUTPUT,
    ),
    "spectra run": (
        "diagonalize one model and match the closed-form levels",
        None,
        (
            ("--particle", str, "spin12", "particle kind", _PARTICLES),
            ("--representation", str, "fw", "Hamiltonian representation", _REPRESENTATIONS),
        )
        + _numeric(64, B=0.5, g=2.0)
        + _OUTPUT,
    ),
    "spectra amm-scan": (
        "residual of the six-component spectrum against the closed "
        "anomalous-moment formula, scanned over the anomaly g - 2",
        None,
        _numeric(64, B=0.1) + _scan("anomaly g - 2") + _OUTPUT,
    ),
    "spectra correction-scan": (
        "residual of the corrected block-diagonal spectrum against the "
        "six-component spectrum, scanned over the field strength",
        None,
        _numeric(64, g=2.5) + _scan("field strength") + _OUTPUT,
    ),
    "spectra relations": (
        "operator relations between the odd and even parts of the "
        "six-component Hamiltonian",
        None,
        _numeric(32, B=0.3, g=2.7) + _OUTPUT,
    ),
    "expand": (
        "expand a mini-language expression into canonical words",
        ("expression", None, 'expression text, e.g. "comm(O, E)"'),
        _BUDGET + _OUTPUT,
    ),
}


def _dest(flag: str) -> str:
    return flag.lstrip("-").replace("-", "_")


def _build_parser():
    parser = _Parser(
        prog=PROG,
        description="Symbolic and numerical checks for block-diagonalizing "
        "relativistic Hamiltonians.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    spectra = None
    for key, (help_text, positional, rows) in _COMMANDS.items():
        if key.startswith("spectra "):
            if spectra is None:
                spectra = sub.add_parser(
                    "spectra",
                    help="numerical Landau-level spectra, scans, and operator relations",
                ).add_subparsers(dest="target", required=True)
            command = spectra.add_parser(key.split(" ", 1)[1], help=help_text)
        else:
            command = sub.add_parser(key, help=help_text)
        if positional:
            dest, choices, positional_help = positional
            command.add_argument(dest, choices=choices, help=positional_help)
        for flag, kind, default, flag_help, choices in rows:
            shown = f"choices: {', '.join(map(str, choices))}; " if choices else ""
            command.add_argument(
                flag,
                dest=_dest(flag),
                type=kind,
                default=None,
                choices=choices,
                help=f"{flag_help} ({shown}default: {default})",
            )
    return parser


# -- config files ----------------------------------------------------------------------


def _load_config(path: str, key: str) -> dict[str, str]:
    """The config file's values for the flags of command `key`.  Nested
    config files are not read, so `config` is refused with any other key
    that is not one of the command's flags."""
    accepted = {_dest(row[0]) for row in _COMMANDS[key][2]} - {"config"}
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    mapping: dict[str, str] = {}
    for number, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{number}: expected 'key = value', got {raw_line!r}")
        name, _, value = line.partition("=")
        dest = name.strip().replace("-", "_")
        if dest not in accepted:
            raise UsageError(f"{path}:{number}: unknown config key {name.strip()!r} for {key}")
        mapping[dest] = value.strip()
    return mapping


def _effective_values(args, key: str) -> dict:
    config = _load_config(args.config, key) if args.config else {}
    values = {}
    for flag, kind, default, _, choices in _COMMANDS[key][2]:
        dest = _dest(flag)
        raw = getattr(args, dest)
        if raw is None and dest in config:
            text = config[dest]
            try:
                raw = kind(text)
            except ValueError as exc:
                raise UsageError(f"config key {dest}: cannot parse {text!r}") from exc
            if choices and raw not in choices:
                raise UsageError(
                    f"config key {dest}: {raw!r} is not one of {', '.join(map(str, choices))}"
                )
        values[dest] = default if raw is None else raw
    return values


# -- report rendering --------------------------------------------------------------------


def _text_block(value, indent: int = 0) -> list[str]:
    pad = " " * indent
    if isinstance(value, dict):
        lines = []
        for key, item in value.items():
            if isinstance(item, (dict, list)) and item:
                lines.append(f"{pad}{key}:")
                lines.extend(_text_block(item, indent + 2))
            else:
                rendered = "none" if item is None else ("[]" if item == [] else item)
                lines.append(f"{pad}{key}: {rendered}")
        return lines
    if isinstance(value, list):
        lines = []
        for item in value:
            if isinstance(item, (dict, list)):
                lines.append(f"{pad}-")
                lines.extend(_text_block(item, indent + 2))
            else:
                lines.append(f"{pad}- {item}")
        return lines
    return [f"{pad}{value}"]


def _generic_text(report: dict) -> str:
    return "\n".join(_text_block(report)) + "\n"


def _ended(text: str) -> str:
    return text if text.endswith("\n") else text + "\n"


def _write_outputs(
    values: dict, command: str, json_text: str, render_text: Callable[[], str]
) -> None:
    """Write the report in the chosen format, and the manifest.  The text
    report is rendered only when it is written."""
    fmt = values["format"]
    texts = [] if fmt == "text" else [_ended(json_text)]
    if fmt != "json":
        texts.append(_ended(render_text()))
    if values["out"]:
        # The first text goes to --out; with --format both, the text report
        # goes next to the JSON.
        out_path = Path(values["out"])
        out_path.write_text(texts[0])
        for text in texts[1:]:
            out_path.with_name(out_path.name + ".txt").write_text(text)
        manifest_path = out_path.with_name(out_path.name + ".manifest.json")
    else:
        # Standard output shows the text report above the JSON.
        sys.stdout.write("----\n".join(reversed(texts)))
        manifest_path = Path(f"{PROG}-manifest.json")
    manifest = {
        "command": command,
        "parameters": {k: v for k, v in sorted(values.items())},
    }
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


# -- command implementations ----------------------------------------------------------------
#
# Each handler returns the JSON report, a function that renders the text
# report, and whether every check passed.


def _cmd_derive(args, values) -> tuple[str, Callable[[], str], bool]:
    from .ncalg import Budget

    budget = Budget(values["max_len"], values["max_e"])
    if args.target == "eriksen":
        from . import eriksen

        report = eriksen.compare_to_reference(budget)
    else:
        from . import stepwise

        if args.target == "stepwise":
            report = stepwise.derive_display(budget)
        else:
            _, report = stepwise.derive_second_step(budget)
    ok = report["status"] == "pass"
    return json.dumps(report, indent=2), partial(_generic_text, report), ok


def _cmd_compare(args, values) -> tuple[str, Callable[[], str], bool]:
    from . import comparator, eriksen, stepwise
    from .ncalg import Budget

    budget = Budget(values["max_len"], values["max_e"])
    direct = eriksen.run_pipeline(budget).H_FW
    iterative = stepwise.expand_static(stepwise.build_iterative(), budget)
    report = comparator.diff_report(direct, iterative, budget)
    return report.to_json(), report.to_text, report.clean


def _cmd_concretize(args, values) -> tuple[str, Callable[[], str], bool]:
    from . import concretizer

    if args.target == "electrostatic":
        report = concretizer.derive_electrostatic()
    else:
        report = concretizer.verify_uniform_commutator()
    ok = report["status"] in ("pass", "match")
    return json.dumps(report, indent=2), partial(_generic_text, report), ok


def _scan_grid(values):
    """The logarithmic scan points, a numpy array; rejects non-positive ends and
    fewer than two points."""
    for dest in ("scan_from", "scan_to"):
        if not 0 < values[dest] < float("inf"):
            flag = "--" + dest.replace("_", "-")
            raise UsageError(f"{flag} must be positive and finite, got {values[dest]}")
    if values["scan_points"] < 2:
        raise UsageError(f"--scan-points must be at least 2, got {values['scan_points']}")
    import numpy as np

    return np.logspace(
        np.log10(values["scan_from"]), np.log10(values["scan_to"]), values["scan_points"]
    )


def _refuse_outside_spin1_domain(values, field: float, label: str, corrected: bool) -> None:
    """Refuse a spin-1 spectrum at a field outside its domain.

    The lowest spin-1 level squares to m^2 - |e| hbar B, so m^2 must exceed
    |e| hbar B.  The operators themselves stay well defined (`spectra
    relations` uses them at any mass), so only a spectrum is refused.  With
    `corrected`, the `fw_corrected` radicand must also be positive.  Its
    smallest entry is at n = 0, the least over s_z of
    m^2 + |e| hbar B - 2 e hbar B s_z - e^2 hbar^2 g (g - 2) B^2 s_z^2 / (4 m^2).
    Both fall as B grows (the radicand for g outside (0, 2); inside, it
    stays above m^2 - |e| hbar B), so a scan is checked at its largest
    field.  A radicand that is not finite is left to the overflow error,
    and a mass, hbar or field the model rejects to the model's own message.
    """
    m, e, hbar = values["m"], values["e"], values["hbar"]
    if not (m > 0 and hbar > 0 and field >= 0):
        return
    smallest = 1.0
    if corrected:
        g = values["g"]
        correction = e * e * hbar * hbar * g * (g - 2.0) * field * field / (4.0 * m * m)
        smallest = min(
            m * m + abs(e) * hbar * field - 2.0 * e * hbar * field * s_z - correction * s_z * s_z
            for s_z in (-1, 0, 1)
        )
        if not math.isfinite(smallest):
            return
    splitting = abs(e) * hbar * field
    # `*` gives inf where `**` would raise OverflowError outside the handler.
    square = m * m
    if math.isfinite(splitting) and square <= splitting:
        raise UsageError(
            f"--m {m} is too small for spin 1: m^2 = {square} "
            f"does not exceed |e| hbar B = {splitting}, and the lowest spin-1 level "
            "squares to m^2 - |e| hbar B (spin-1 spectra need m^2 > |e| hbar B)"
        )
    if smallest <= 0:
        raise UsageError(
            f"spin-1 fw_corrected is outside its domain at {label} = {field}, g = {g}: "
            "the corrected radicand's smallest entry, the least over s_z of m^2 + |e| hbar B "
            "- 2 e hbar B s_z - e^2 hbar^2 g (g - 2) B^2 s_z^2 / (4 m^2), "
            f"is {smallest} (the corrected form needs it positive)"
        )


def _cmd_spectra(args, values) -> tuple[str, Callable[[], str], bool]:
    import numpy as np

    from . import spectra

    # Python floats raise on overflow but not on underflow: a mass whose
    # square is 0.0 or subnormal would reach the operators as no mass.
    if values["m"] and values["m"] * values["m"] < sys.float_info.min:
        raise UsageError(
            f"--m {values['m']} is too small: its square underflows floating-point arithmetic"
        )
    if args.target == "run" and values["particle"] == "spin1":
        corrected = values["representation"] == "fw_corrected"
        _refuse_outside_spin1_domain(values, values["B"], "B", corrected=corrected)
    elif args.target == "amm-scan":
        _refuse_outside_spin1_domain(values, values["B"], "B", corrected=False)
    grid = _scan_grid(values) if args.target in ("amm-scan", "correction-scan") else None
    if args.target == "correction-scan":
        field = float(grid.max())
        _refuse_outside_spin1_domain(values, field, "the largest scanned B", corrected=True)
    constants = {name: values[name] for name in ("e", "m", "hbar")}
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            if args.target == "run":
                model = spectra.SpectralModel(
                    values["particle"],
                    values["representation"],
                    B=values["B"],
                    g=values["g"],
                    N=values["levels"],
                    **constants,
                )
                report = spectra.compare_closed_form(model)
            elif args.target == "amm-scan":
                report = spectra.amm_linearity_scan(
                    [2.0 + x for x in grid], values["B"], values["levels"], **constants
                )
            elif args.target == "correction-scan":
                report = spectra.correction_residual_scan(
                    values["g"], list(grid), values["levels"], **constants
                )
            else:
                report = spectra.operator_relation_check(
                    values["B"], values["g"], values["levels"], **constants
                )
    except (spectra.SquareRootDomainError, spectra.InsufficientInteriorError) as exc:
        report = {"status": "fail", "failure": str(exc)}
    except (FloatingPointError, OverflowError) as exc:
        raise UsageError(f"the parameters overflow floating-point arithmetic ({exc})") from exc
    ok = report["status"] == "pass"
    return spectra.report_json(report), partial(_generic_text, report), ok


def _cmd_expand(args, values) -> tuple[str, Callable[[], str], bool]:
    from .lang import ExprSyntaxError, format_expr, parse_expr
    from .ncalg import Budget, BudgetOverflowError, expand

    values["expression"] = args.expression
    budget = Budget(values["max_len"], values["max_e"])
    try:
        tree = parse_expr(args.expression)
    except ExprSyntaxError as exc:
        raise UsageError(f"cannot parse expression: {exc}") from exc
    try:
        expanded = expand(tree, budget)
    except BudgetOverflowError as exc:
        raise UsageError(
            f"expression exceeds the expansion budget ({exc}); raise --max-len/--max-e"
        ) from exc
    canonical = format_expr(expanded)
    report = {
        "expression": args.expression,
        "budget": {"max_word_len": budget.max_word_len, "max_e_count": budget.max_e_count},
        "canonical": canonical,
    }
    return json.dumps(report, indent=2), lambda: canonical + "\n", True


_HANDLERS = {
    "derive": _cmd_derive,
    "compare": _cmd_compare,
    "concretize": _cmd_concretize,
    "spectra": _cmd_spectra,
    "expand": _cmd_expand,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    key = f"spectra {args.target}" if args.command == "spectra" else args.command
    try:
        values = _effective_values(args, key)
        json_text, render_text, ok = _HANDLERS[args.command](args, values)
    except ValueError as exc:
        print(f"{PROG}: error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # numpy refuses an array past the address space at once, with a
        # message that names its size.
        print(f"{PROG}: error: {exc or 'out of memory'}", file=sys.stderr)
        return 2
    command = f"{args.command} {args.target}" if "target" in args else args.command
    try:
        _write_outputs(values, command, json_text, render_text)
    except OSError as exc:
        print(f"{PROG}: error: cannot write {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 2
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
