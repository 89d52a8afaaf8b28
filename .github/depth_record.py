"""Run one command and record its wall time and peak resident size.

    python .github/depth_record.py -- CMD [ARG ...]

The command's stdout and stderr pass through.  The wall time and the
child's peak RSS (``RUSAGE_CHILDREN``) go to stderr and, when
``GITHUB_STEP_SUMMARY`` names a file, to that file as a table row.  This
script imports neither numpy nor fwforge, so the peak RSS it reads is the
command's own and not this interpreter's.  It exits with the command's
exit code.
"""

import os
import resource
import subprocess
import sys
import time


def main(argv: list[str]) -> int:
    if argv[:1] == ["--"]:
        argv = argv[1:]
    if not argv:
        print(__doc__, file=sys.stderr)
        return 2
    start = time.perf_counter()
    code = subprocess.call(argv)
    wall = time.perf_counter() - start
    # ru_maxrss is in KiB on Linux.
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    line = f"| `{' '.join(argv)}` | {wall:.1f} s | {peak:.1f} MiB | {code} |"
    print(f"wall {wall:.1f} s, peak RSS {peak:.1f} MiB, exit {code}", file=sys.stderr)
    summary = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary:
        with open(summary, "a") as out:
            out.write("| command | wall time | peak RSS | exit |\n|---|---|---|---|\n")
            out.write(line + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
