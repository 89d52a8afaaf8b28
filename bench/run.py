"""Benchmark of the fwforge command line, end to end and layer by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program under test is `src/fwforge`.

--trace 0 times the workload as users run it: each command is a fresh
`python -m fwforge.cli ... --out FILE`, one at a time, and the run repeats
whole rounds of the workload's commands until S seconds have passed.
After each round, outside the timed part, every report is checked
(`checks`).  Reports `setup_s` (median import time of fwforge.cli over
fresh interpreters), `wall_s` (median over rounds of the summed command
wall times) and `peak_rss_mb` (largest peak resident set of any command).

--trace 1 runs the same round in one fresh interpreter that calls the
commands in-process with spans installed (`spans.py`), checks its reports
and reports the per-layer metrics and the import split.

The seed draws the random matrices the checks evaluate reports on; the
commands themselves are the same for every seed.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import spans
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent

SETUP_SAMPLES = 3  # fresh interpreters before and again after the rounds
OUT_ROOT = ".bench_out"
_IMPORT_PROBE = (
    "import time; t0 = time.perf_counter(); import numpy; t1 = time.perf_counter(); "
    "import fwforge.cli; t2 = time.perf_counter(); print(t1 - t0, t2 - t1)"
)


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    return env


def spawn(argv: list[str], cwd: Path, env: dict, log: Path) -> tuple[int, float, float]:
    """Run argv to completion; return exit code, wall seconds, peak RSS in MiB."""
    with open(log, "wb") as sink:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL, stdout=sink, stderr=sink)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def import_times(env: dict, cwd: Path, samples: int) -> list[tuple[float, float]]:
    """(numpy, fwforge) import seconds, each from a fresh interpreter."""
    out = []
    for _ in range(samples):
        probe = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE], cwd=cwd, env=env, capture_output=True, text=True, check=True
        )
        numpy_s, fwforge_s = map(float, probe.stdout.split())
        out.append((numpy_s, fwforge_s))
    return out


def check_round(workload: str, out_dir: Path, exits: list, seed: int) -> tuple[int, int]:
    """Check one round's reports; return (failed operations, failed checks)."""
    ctx = checks.Context(seed)
    failed = bad_checks = 0
    for command, code in zip(WORKLOADS[workload], exits):
        label = " ".join(command.args)
        path = out_dir / command.report
        if code not in command.exits or not path.is_file():
            print(f"FAILED {label}: exit {code}, report {'present' if path.is_file() else 'missing'}", file=sys.stderr)
            failed += 1
            continue
        try:
            problems = command.check(json.loads(path.read_text()), code, ctx)
        except Exception as exc:  # a check that cannot read the report fails it
            problems = [f"check raised {exc!r}"]
        if problems:
            print(f"FAILED {label}: " + "; ".join(problems), file=sys.stderr)
            failed += 1
            bad_checks += 1
    return failed, bad_checks


def clear_reports(workload: str, out_dir: Path) -> None:
    for command in WORKLOADS[workload]:
        for path in (out_dir / command.report, out_dir / (command.report + ".manifest.json")):
            path.unlink(missing_ok=True)


def timed_run(args, out_dir: Path, env: dict) -> dict:
    commands = WORKLOADS[args.workload]
    import_times(env, out_dir, 1)  # compiles bytecode; not a sample
    setup = import_times(env, out_dir, SETUP_SAMPLES)
    walls, peak, attempted, failed, bad_checks = [], 0.0, 0, 0, 0
    start = time.perf_counter()
    while True:
        clear_reports(args.workload, out_dir)
        exits, timings = [], []
        for index, command in enumerate(commands):
            argv = [sys.executable, "-m", "fwforge.cli", *command.args, "--out", command.report]
            code, wall, rss = spawn(argv, out_dir, env, out_dir / f"command-{index}.log")
            exits.append(code)
            timings.append({"command": " ".join(command.args), "exit": code, "wall_s": wall, "peak_rss_mb": rss})
            peak = max(peak, rss)
        walls.append(sum(t["wall_s"] for t in timings))
        with open(out_dir / "rounds.jsonl", "a") as log:
            log.write(json.dumps(timings) + "\n")
        round_failed, round_bad = check_round(args.workload, out_dir, exits, args.seed)
        attempted += len(commands)
        failed += round_failed
        bad_checks += round_bad
        if time.perf_counter() - start >= args.seconds:
            break
    setup += import_times(env, out_dir, SETUP_SAMPLES)
    return {
        "correct": bad_checks == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "setup_s": {"value": statistics.median(n + f for n, f in setup), "unit": "s"},
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "peak_rss_mb": {"value": peak, "unit": "MiB"},
        },
    }


def traced_run(args, out_dir: Path, env: dict) -> dict:
    setup = import_times(env, out_dir, 1 + 2 * SETUP_SAMPLES)[1:]
    rounds, attempted, failed, bad_checks = [], 0, 0, 0
    start = time.perf_counter()
    while True:
        clear_reports(args.workload, out_dir)
        argv = [sys.executable, str(HERE / "spans.py"), "--workload", args.workload, "--out-dir", str(out_dir)]
        log = out_dir / "spans.log"
        code, _, _ = spawn(argv, out_dir, env, log)
        if code != 0:
            raise RuntimeError(f"traced pass exited {code}; see {log}")
        traced = json.loads(log.read_text().splitlines()[-1])
        rounds.append(traced["metrics"])
        round_failed, round_bad = check_round(args.workload, out_dir, traced["exits"], args.seed)
        attempted += len(traced["exits"])
        failed += round_failed
        bad_checks += round_bad
        if time.perf_counter() - start >= args.seconds:
            break
    values = {name: statistics.median(r[name] for r in rounds) for name in rounds[0]}
    values["setup.numpy_s"] = statistics.median(n for n, _ in setup)
    values["setup.fwforge_s"] = statistics.median(f for _, f in setup)
    units = dict(spans.METRICS, **{"setup.numpy_s": "s", "setup.fwforge_s": "s"})
    return {
        "correct": bad_checks == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="fwforge CLI benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "fwforge" / "cli.py").is_file():
        print(f"bench: no fwforge source at {root / 'src' / 'fwforge'}; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))  # the Dirac-product check calls fwforge
    out_dir = root / OUT_ROOT / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    env = child_env(root)
    run = traced_run if args.trace else timed_run
    print(json.dumps(run(args, out_dir, env)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
