#!/usr/bin/env python3
"""Outputs that cannot be written, run under ctest as
`full_disk.py BENCH SWEEP MICRO REPO_ROOT`. Each case points one
driver output at a place that cannot take it: /dev/full (which opens
fine and fails every write) as an output file, as standard output
(for a run's report, the --help text or a microbench's table) or
behind a symlink in a --csv directory, or a regular file given as the
--csv directory. The driver must exit 1 naming the path (or standard
output), not report success over output it never wrote, nor exit 2,
which means a usage error."""

import os
import subprocess
import sys
import tempfile

FULL = "/dev/full"
SKIP = 77  # ctest SKIP_RETURN_CODE
STDOUT = "standard output"


def main():
    bench, sweep, micro, root = sys.argv[1:]
    if not os.path.exists(FULL):
        print(f"skip: no {FULL} on this host")
        return SKIP
    smoke = f"{root}/examples/specs/dse_smoke.json"
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        csv_dir = f"{tmp}/csv"
        os.mkdir(csv_dir)
        full_csv = f"{csv_dir}/table1-floorplan.metrics.csv"
        os.symlink(FULL, full_csv)
        csv_file = f"{tmp}/results.csv"
        open(csv_file, "w").close()
        # (command line, what stderr must name, stdout on /dev/full)
        cases = [
            ([bench, "--filter", "table1-floorplan", "--quiet",
              "--json", FULL], FULL, False),
            ([sweep, "--spec", smoke, "--quiet", "--out",
              f"{tmp}/out.jsonl", "--pareto", FULL], FULL, False),
            ([micro, "--reps", "1", "--min-time-ms", "0", "--quiet",
              "--json", FULL], FULL, False),
            ([sweep, "--spec", smoke, "--quiet"], STDOUT, True),
            ([sweep, "--help"], STDOUT, True),
            ([micro, "--reps", "1", "--min-time-ms", "0"], STDOUT, True),
            ([bench, "--filter", "table1-floorplan"], STDOUT, True),
            ([bench, "--filter", "table1-floorplan", "--quiet",
              "--csv", csv_dir], full_csv, False),
            ([bench, "--filter", "table1-floorplan", "--quiet",
              "--csv", csv_file], csv_file, False),
        ]
        for args, named, full_stdout in cases:
            with open(FULL, "w") as full:
                proc = subprocess.run(
                    args, stdout=full if full_stdout else subprocess.PIPE,
                    stderr=subprocess.PIPE, text=True, timeout=120)
            found = [what for bad, what in [
                (proc.returncode != 1, f"exit {proc.returncode}, not 1"),
                (named not in proc.stderr, f"stderr does not name {named}"),
            ] if bad]
            print(f"{'FAIL' if found else 'ok'}:",
                  os.path.basename(args[0]), *args[1:],
                  *([f"> {FULL}"] if full_stdout else []), *found, sep=" ")
            if found:
                print(f"  stderr: {proc.stderr.strip()!r}")
            failed |= bool(found)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
