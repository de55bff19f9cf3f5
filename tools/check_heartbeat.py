#!/usr/bin/env python3
"""End-to-end check of the FAULTLAB_PROGRESS heartbeat.

Runs one fault_campaign twice, with the heartbeat on (stderr captured
through a pipe, so not a TTY) and off, and checks that:

  * the last heartbeat line reads "<trials>/<trials> trials";
  * its crash/sdc/benign/hang/n/a tallies equal the run's manifest CSV;
  * stderr carries no ANSI escape (\\033);
  * the results CSV is byte-identical with the heartbeat on and off.

Usage:
  tools/check_heartbeat.py FAULT_CAMPAIGN OUT_DIR APP TOOL CATEGORY TRIALS SEED

Exits 0 when every check passes, 1 otherwise. stdlib only.
"""

import csv
import os
import re
import subprocess
import sys

LINE = re.compile(
    r"^\[faultlab\] (\d+)/(\d+) trials .*"
    r"crash (\d+)  sdc (\d+)  benign (\d+)  hang (\d+)  n/a (\d+)  util ")


def run(binary, args, csv_path, progress):
    env = dict(os.environ)
    env.pop("FAULTLAB_PROGRESS", None)
    if progress:
        env["FAULTLAB_PROGRESS"] = "1"
    proc = subprocess.run([binary, *args, csv_path], env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          check=False)
    if proc.returncode != 0:
        sys.exit(f"error: {binary} exited {proc.returncode}:\n"
                 + proc.stderr.decode(errors="replace"))
    return proc.stderr.decode(errors="replace")


def main():
    if len(sys.argv) != 8:
        sys.exit(__doc__)
    binary, out_dir = sys.argv[1], sys.argv[2]
    args = sys.argv[3:]
    trials = int(args[3])
    on_csv = os.path.join(out_dir, "heartbeat_on.csv")
    off_csv = os.path.join(out_dir, "heartbeat_off.csv")

    stderr = run(binary, args, on_csv, progress=True)
    run(binary, args, off_csv, progress=False)

    errors = []
    if "\033" in stderr:
        errors.append("heartbeat output contains an ANSI escape")
    lines = [m for m in map(LINE.match, stderr.splitlines()) if m]
    if not lines:
        errors.append("no heartbeat line on stderr")
    else:
        last = [int(g) for g in lines[-1].groups()]
        if last[:2] != [trials, trials]:
            errors.append(f"last heartbeat reads {last[0]}/{last[1]} trials, "
                          f"expected {trials}/{trials}")
        with open(on_csv + ".manifest.csv", newline="",
                  encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        cols = ("crash", "sdc", "benign", "hang", "not_activated")
        want = [sum(int(r[c]) for r in rows) for c in cols]
        if last[2:] != want:
            errors.append(f"heartbeat tallies {last[2:]} != manifest {want} "
                          f"({'/'.join(cols)})")
    with open(on_csv, "rb") as a, open(off_csv, "rb") as b:
        if a.read() != b.read():
            errors.append("results CSV differs with FAULTLAB_PROGRESS on/off")

    for e in errors:
        print(f"FAIL: {e}")
    if errors:
        print(stderr)
        return 1
    print(f"ok: {len(lines)} heartbeat line(s), last {trials}/{trials} "
          "trials, tallies match the manifest, CSV unchanged")
    return 0


if __name__ == "__main__":
    sys.exit(main())
