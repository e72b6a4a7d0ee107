#!/usr/bin/env python3
"""Output files on a full disk, run under ctest as
`full_disk.py BENCH SWEEP MICRO REPO_ROOT`. Each driver writes one of
its output files to /dev/full, which opens fine and fails every write
once the stream flushes: the driver must exit non-zero naming the
path, not report success over a file it never wrote."""

import os
import subprocess
import sys
import tempfile

FULL = "/dev/full"
SKIP = 77  # ctest SKIP_RETURN_CODE


def main():
    bench, sweep, micro, root = sys.argv[1:]
    if not os.path.exists(FULL):
        print(f"skip: no {FULL} on this host")
        return SKIP
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        cases = [
            [bench, "--filter", "table1-floorplan", "--quiet",
             "--json", FULL],
            [sweep, "--spec", f"{root}/examples/specs/dse_smoke.json",
             "--quiet", "--out", f"{tmp}/out.jsonl", "--pareto", FULL],
            [micro, "--reps", "1", "--min-time-ms", "0", "--quiet",
             "--json", FULL],
        ]
        for args in cases:
            proc = subprocess.run(args, capture_output=True, text=True,
                                  timeout=120)
            found = [what for bad, what in [
                (proc.returncode == 0, "exit 0"),
                (FULL not in proc.stderr, f"stderr does not name {FULL}"),
            ] if bad]
            print(f"{'FAIL' if found else 'ok'}:",
                  os.path.basename(args[0]), *args[1:], *found, sep=" ")
            if found:
                print(f"  stderr: {proc.stderr.strip()!r}")
            failed |= bool(found)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
