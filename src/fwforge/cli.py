"""Command-line front end.

Runs the symbolic derivations, the class-by-class comparison of the two
transformation methods, the Dirac-matrix concretizations, and the numerical
Landau-level checks; emits JSON and plain-text reports; and expands
mini-language expressions into canonical word sums.

Exit codes: 0 when every check in the requested report passes, 1 when any
check fails (the failing items are in the report), 2 on usage errors and
when the report or the manifest cannot be written.
Every run writes a manifest file echoing the full effective configuration,
and symbolic commands produce byte-identical output across runs.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

# Each command imports the layers it runs inside its handler, so that
# `concretize`, `expand` and `derive eriksen` load neither numpy nor the
# comparator.  ncalg and lang load with the package itself.
from .lang import ExprSyntaxError, format_expr, parse_expr
from .ncalg import Budget, BudgetOverflowError, expand

PROG = "fwforge"

# spectra.PARTICLES, written out so that building the parser imports no numpy.
_PARTICLES = ("spin0", "spin12", "spin1")


class UsageError(Exception):
    """Invalid flags, config entries, or expression text."""


# -- flag declarations -----------------------------------------------------------------
#
# Flags are declared with explicit defaults so that --help shows them and so
# that a key = value config file can supply any of them; precedence is
# command line > config file > default.

_ALL_DESTS: dict[str, None] = {}


def _add_flag(parser, registry, flag, *, kind, default, help_text, choices=None):
    dest = flag.lstrip("-").replace("-", "_")
    shown = ", ".join(str(c) for c in choices) if choices else None
    suffix = f" (choices: {shown}; default: {default})" if shown else f" (default: {default})"
    parser.add_argument(
        flag,
        dest=dest,
        type=kind,
        default=None,
        choices=choices,
        help=help_text + suffix,
    )
    registry[dest] = (kind, default, choices)
    _ALL_DESTS[dest] = None


def _output_flags(parser, registry):
    _add_flag(
        parser,
        registry,
        "--out",
        kind=str,
        default=None,
        help_text="report file path; without it the report prints to standard output",
    )
    _add_flag(
        parser,
        registry,
        "--format",
        kind=str,
        default="json",
        choices=("json", "text", "both"),
        help_text="report format",
    )
    _add_flag(
        parser,
        registry,
        "--config",
        kind=str,
        default=None,
        help_text="key = value file supplying defaults for any flag",
    )


def _budget_flags(parser, registry):
    _add_flag(
        parser,
        registry,
        "--max-len",
        kind=int,
        default=8,
        help_text="maximum word length kept by the expansion budget",
    )
    _add_flag(
        parser,
        registry,
        "--max-e",
        kind=int,
        default=3,
        help_text="maximum count of the even letter kept by the budget",
    )


def _numeric_flags(parser, registry, *, levels_default, B_default=None, g_default=None):
    # A scan sets the field or anomaly it scans, so it declares no flag for it.
    _add_flag(parser, registry, "--m", kind=float, default=1.0, help_text="mass")
    _add_flag(parser, registry, "--hbar", kind=float, default=1.0, help_text="Planck constant")
    _add_flag(parser, registry, "--e", kind=float, default=1.0, help_text="signed charge")
    if B_default is not None:
        _add_flag(parser, registry, "--B", kind=float, default=B_default, help_text="field strength along z")
    if g_default is not None:
        _add_flag(parser, registry, "--g", kind=float, default=g_default, help_text="gyromagnetic factor")
    _add_flag(
        parser,
        registry,
        "--levels",
        kind=int,
        default=levels_default,
        help_text="Landau levels kept in the truncated basis",
    )


def _scan_flags(parser, registry, *, what):
    _add_flag(
        parser,
        registry,
        "--scan-from",
        kind=float,
        default=1e-3,
        help_text=f"smallest {what} in the logarithmic scan",
    )
    _add_flag(
        parser,
        registry,
        "--scan-to",
        kind=float,
        default=1e-1,
        help_text=f"largest {what} in the logarithmic scan",
    )
    _add_flag(
        parser,
        registry,
        "--scan-points",
        kind=int,
        default=7,
        help_text="number of scan points",
    )


def _build_parser():
    parser = argparse.ArgumentParser(
        prog=PROG,
        description="Symbolic and numerical checks for block-diagonalizing "
        "relativistic Hamiltonians.",
    )
    registries: dict[str, dict] = {}
    sub = parser.add_subparsers(dest="command", required=True)

    derive = sub.add_parser(
        "derive",
        help="run a derivation and compare it with its closed-form reference",
    )
    derive.add_argument(
        "target",
        choices=("eriksen", "stepwise", "second-step"),
        help="which derivation to run",
    )
    registries["derive"] = {}
    _budget_flags(derive, registries["derive"])
    _output_flags(derive, registries["derive"])

    compare = sub.add_parser(
        "compare",
        help="class-by-class difference of the direct and iterative methods",
    )
    registries["compare"] = {}
    _budget_flags(compare, registries["compare"])
    _output_flags(compare, registries["compare"])

    concretize = sub.add_parser(
        "concretize",
        help="verify the symbolic results on explicit Dirac matrices and fields",
    )
    concretize.add_argument(
        "target",
        choices=("electrostatic", "uniform-field"),
        help="which concretization to verify",
    )
    registries["concretize"] = {}
    _output_flags(concretize, registries["concretize"])

    spectra_cmd = sub.add_parser(
        "spectra",
        help="numerical Landau-level spectra, scans, and operator relations",
    )
    spectra_sub = spectra_cmd.add_subparsers(dest="target", required=True)

    run = spectra_sub.add_parser(
        "run", help="diagonalize one model and match the closed-form levels"
    )
    registries["spectra run"] = {}
    _add_flag(
        run,
        registries["spectra run"],
        "--particle",
        kind=str,
        default="spin12",
        choices=_PARTICLES,
        help_text="particle kind",
    )
    _add_flag(
        run,
        registries["spectra run"],
        "--representation",
        kind=str,
        default="fw",
        choices=("original", "fw", "fw_corrected"),
        help_text="Hamiltonian representation",
    )
    _numeric_flags(run, registries["spectra run"], B_default=0.5, g_default=2.0, levels_default=64)
    _output_flags(run, registries["spectra run"])

    amm = spectra_sub.add_parser(
        "amm-scan",
        help="residual of the six-component spectrum against the closed "
        "anomalous-moment formula, scanned over the anomaly g - 2",
    )
    registries["spectra amm-scan"] = {}
    _numeric_flags(amm, registries["spectra amm-scan"], B_default=0.1, levels_default=64)
    _scan_flags(amm, registries["spectra amm-scan"], what="anomaly g - 2")
    _output_flags(amm, registries["spectra amm-scan"])

    correction = spectra_sub.add_parser(
        "correction-scan",
        help="residual of the corrected block-diagonal spectrum against the "
        "six-component spectrum, scanned over the field strength",
    )
    registries["spectra correction-scan"] = {}
    _numeric_flags(
        correction, registries["spectra correction-scan"], g_default=2.5, levels_default=64
    )
    _scan_flags(correction, registries["spectra correction-scan"], what="field strength")
    _output_flags(correction, registries["spectra correction-scan"])

    relations = spectra_sub.add_parser(
        "relations",
        help="operator relations between the odd and even parts of the "
        "six-component Hamiltonian",
    )
    registries["spectra relations"] = {}
    _numeric_flags(
        relations,
        registries["spectra relations"],
        B_default=0.3,
        g_default=2.7,
        levels_default=32,
    )
    _output_flags(relations, registries["spectra relations"])

    expand_cmd = sub.add_parser(
        "expand", help="expand a mini-language expression into canonical words"
    )
    expand_cmd.add_argument("expression", help="expression text, e.g. \"comm(O, E)\"")
    registries["expand"] = {}
    _budget_flags(expand_cmd, registries["expand"])
    _output_flags(expand_cmd, registries["expand"])

    return parser, registries


# -- config files ----------------------------------------------------------------------


def _load_config(path: str) -> dict[str, str]:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    mapping: dict[str, str] = {}
    for number, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{number}: expected 'key = value', got {raw_line!r}")
        key, _, value = line.partition("=")
        dest = key.strip().replace("-", "_")
        if dest not in _ALL_DESTS:
            raise UsageError(f"{path}:{number}: unknown config key {key.strip()!r}")
        mapping[dest] = value.strip()
    return mapping


def _effective_values(args, registry) -> dict:
    config: dict[str, str] = {}
    if getattr(args, "config", None):
        config = _load_config(args.config)
    values = {}
    for dest, (kind, default, choices) in registry.items():
        raw = getattr(args, dest, None)
        if raw is None and dest in config and dest != "config":
            text = config[dest]
            try:
                raw = kind(text)
            except ValueError as exc:
                raise UsageError(f"config key {dest}: cannot parse {text!r}") from exc
            if choices and raw not in choices:
                raise UsageError(
                    f"config key {dest}: {raw!r} is not one of {', '.join(map(str, choices))}"
                )
        if raw is None:
            raw = default
        values[dest] = raw
    if getattr(args, "config", None):
        values["config"] = args.config
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


def _write_outputs(values: dict, command: str, json_text: str, text_text: str) -> None:
    fmt = values.get("format", "json")
    out = values.get("out")
    if not json_text.endswith("\n"):
        json_text += "\n"
    if not text_text.endswith("\n"):
        text_text += "\n"
    if out:
        out_path = Path(out)
        if fmt == "json":
            out_path.write_text(json_text)
        elif fmt == "text":
            out_path.write_text(text_text)
        else:
            out_path.write_text(json_text)
            out_path.with_name(out_path.name + ".txt").write_text(text_text)
        manifest_path = out_path.with_name(out_path.name + ".manifest.json")
    else:
        if fmt == "json":
            sys.stdout.write(json_text)
        elif fmt == "text":
            sys.stdout.write(text_text)
        else:
            sys.stdout.write(text_text)
            sys.stdout.write("----\n")
            sys.stdout.write(json_text)
        manifest_path = Path(f"{PROG}-manifest.json")
    manifest = {
        "command": command,
        "parameters": {k: v for k, v in sorted(values.items())},
    }
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


# -- command implementations ----------------------------------------------------------------


def _cmd_derive(args, values) -> tuple[str, str, bool]:
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
    return json.dumps(report, indent=2), _generic_text(report), ok


def _cmd_compare(args, values) -> tuple[str, str, bool]:
    from . import comparator, eriksen, stepwise

    budget = Budget(values["max_len"], values["max_e"])
    direct = eriksen.run_pipeline(budget).H_FW
    iterative = stepwise.expand_static(stepwise.build_iterative(), budget)
    report = comparator.diff_report(direct, iterative, budget)
    return report.to_json(), report.to_text(), report.clean


def _cmd_concretize(args, values) -> tuple[str, str, bool]:
    from . import concretizer

    if args.target == "electrostatic":
        report = concretizer.derive_electrostatic()
    else:
        report = concretizer.verify_uniform_commutator()
    ok = report["status"] in ("pass", "match")
    return concretizer.report_json(report), _generic_text(report), ok


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


def _cmd_spectra(args, values) -> tuple[str, str, bool]:
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
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            if args.target == "run":
                model = spectra.SpectralModel(
                    values["particle"],
                    values["representation"],
                    m=values["m"],
                    hbar=values["hbar"],
                    e=values["e"],
                    B=values["B"],
                    g=values["g"],
                    N=values["levels"],
                )
                report = spectra.compare_closed_form(model)
            elif args.target == "amm-scan":
                report = spectra.amm_linearity_scan(
                    [2.0 + x for x in grid],
                    values["B"],
                    values["levels"],
                    e=values["e"],
                    m=values["m"],
                    hbar=values["hbar"],
                )
            elif args.target == "correction-scan":
                report = spectra.correction_residual_scan(
                    values["g"],
                    list(grid),
                    values["levels"],
                    e=values["e"],
                    m=values["m"],
                    hbar=values["hbar"],
                )
            else:
                report = spectra.operator_relation_check(
                    values["B"],
                    values["g"],
                    values["levels"],
                    e=values["e"],
                    m=values["m"],
                    hbar=values["hbar"],
                )
    except (spectra.SquareRootDomainError, spectra.InsufficientInteriorError) as exc:
        report = {"status": "fail", "failure": str(exc)}
    except (FloatingPointError, OverflowError) as exc:
        raise UsageError(f"the parameters overflow floating-point arithmetic ({exc})") from exc
    ok = report["status"] == "pass"
    return spectra.report_json(report), _generic_text(report), ok


def _cmd_expand(args, values) -> tuple[str, str, bool]:
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
    return json.dumps(report, indent=2), canonical + "\n", True


_HANDLERS = {
    "derive": _cmd_derive,
    "compare": _cmd_compare,
    "concretize": _cmd_concretize,
    "spectra": _cmd_spectra,
    "expand": _cmd_expand,
}


def main(argv=None) -> int:
    parser, registries = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    registry_key = args.command
    if args.command == "spectra":
        registry_key = f"spectra {args.target}"
    try:
        values = _effective_values(args, registries[registry_key])
        json_text, text_text, ok = _HANDLERS[args.command](args, values)
    except UsageError as exc:
        print(f"{PROG}: error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, BudgetOverflowError) as exc:
        print(f"{PROG}: error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # numpy refuses an array past the address space at once, with a
        # message that names its size.
        print(f"{PROG}: error: {exc or 'out of memory'}", file=sys.stderr)
        return 2
    command = args.command
    if getattr(args, "target", None):
        command = f"{args.command} {args.target}"
    try:
        _write_outputs(values, command, json_text, text_text)
    except OSError as exc:
        print(f"{PROG}: error: cannot write {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 2
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
