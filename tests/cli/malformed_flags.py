#!/usr/bin/env python3
"""Malformed-flag table, run under ctest as
`malformed_flags.py DRIVER BINARY REPO_ROOT`. Each case's base arguments
are valid, so a driver that ignored the bad flag would start work; it
must instead exit 2 naming the flag and quoting the offending text, with
nothing on stdout and no file written. --help must list every flag."""

import os
import subprocess
import sys
import tempfile

# driver -> (base arguments, bad argument lists). A case's flag is its
# first argument, the offending text its second unless that is a flag;
# {tmp} is a fresh directory per case, {root} the repository.
TABLE = {
    "cryowire_bench": (
        ["--filter", "table1-floorplan", "--csv", "{tmp}/csv"],
        [["--jobs", "2x"], ["--jobs", "99999999999"], ["--seed", "abc"],
         ["--seed", "-1"], ["--watchdog", "nan"], ["--json"],
         ["--json", "--quiet"], ["--bogus"]]),
    "cryowire_sweep": (
        ["--spec", "{root}/examples/specs/dse_smoke.json",
         "--out", "{tmp}/out.jsonl"],
        [["--jobs", "3abc"], ["--shard", "1x/2"], ["--shard", "2/2"],
         ["--merge", "{tmp}/merged.jsonl"]]),
    "cryowire_serve": (
        ["--socket", "{tmp}/serve.sock"],
        [["--max-queue", "5x"], ["--jobs", "2x"],
         ["--probe-window-ms", "99999999999"]]),
    "cryowire_loadgen": (
        ["--socket", "{tmp}/absent.sock", "--connect-retries", "0",
         "--json", "{tmp}/report.json"],
        [["--rate", "1e400"], ["--rate", "nan"],
         ["--invalid-share", "nan"], ["--duration-ms", "10s"]]),
    "bench_micro_models": (["--json", "{tmp}/micro.json"], [["--reps", "x"]]),
}


def run(binary, args):
    try:
        # A driver that ignored its bad flag runs (or serves) longer.
        return subprocess.run([binary, *args], capture_output=True,
                              text=True, timeout=20)
    except subprocess.TimeoutExpired:
        return None


def problems(driver, binary, root, base, bad):
    with tempfile.TemporaryDirectory() as tmp:
        args = [a.replace("{tmp}", tmp).replace("{root}", root)
                for a in base + bad]
        proc = run(binary, args)
        if proc is None:
            return ["still running after 20 s"]
        text = args[-1] if bad[1:] and bad[1][:2] != "--" else None
        found = [(proc.returncode != 2, f"exit {proc.returncode}"),
                 (f"{driver}: {bad[0]}: " not in proc.stderr,
                  f"stderr does not name {bad[0]}"),
                 (text and f'"{text}"' not in proc.stderr,
                  f"stderr does not quote {text}"),
                 (proc.stdout or os.listdir(tmp), "work started")]
        found = [what for failed, what in found if failed]
        return found + [f"stderr: {proc.stderr.strip()!r}"] if found else []


def main():
    driver, binary, root = sys.argv[1:]
    base, cases = TABLE[driver]
    failed = False
    for bad in cases:
        found = problems(driver, binary, root, base, bad)
        print(f"{'FAIL' if found else 'ok'}: {driver} {' '.join(bad)}",
              *found, sep="; ")
        failed |= bool(found)
    proc = run(binary, ["--help"])
    listed = proc.stdout if proc and proc.returncode == 0 else ""
    missing = [bad[0] for bad in cases
               if bad[0] != "--bogus" and bad[0] not in listed]
    print(f"{'FAIL' if missing else 'ok'}: {driver} --help lists flags",
          *missing, sep="; ")
    return 1 if failed or missing else 0


if __name__ == "__main__":
    sys.exit(main())
