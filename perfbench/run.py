#!/usr/bin/env python3
"""FaultLab campaign benchmark runner.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the root of a source tree. Builds perfbench/ (and with it the
faultlab library from src/) in Release mode under .bench_build/, then runs
campaign_bench repetitions of the workload's grid and prints, as the last
line of stdout, one JSON object with `correct`, `attempted`, `failed` and
`metrics`. With --trace 0 the metrics are the end-to-end ones (medians over
the repetitions); with --trace 1 they are the per-layer counters and span
self times of one traced repetition, plus the tracing overhead against an
untraced repetition. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import socket
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_SAMPLES = 5          # set-up times per run; setup_s is their median
REP_TIMEOUT_S = 170        # one campaign_bench process
END_TO_END = ("wall_s", "setup_s", "trials_per_s", "peak_rss_mb",
              "completion_share")
# Workloads whose untraced repetitions each draw fresh trials. The cost of
# one prop-observed trial ranges over more than an order of magnitude, so
# the work of one draw swings with the seed; a median over several draws
# swings less.
FRESH_DRAWS = ("prop-observed",)


def fail(message, code=1):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def tree_digest():
    """Content hash of the sources the benchmark builds (src/, perfbench/)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(".pyc"):
                    continue
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def build(build_dir, jobs):
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    with open(log_path, "a") as log:
        steps = []
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", build_dir, "-j", str(jobs),
                      "--target", "campaign_bench"])
        for cmd in steps:
            done = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT)
            if done.returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "campaign_bench")


def child_env():
    # The workloads fix every FaultLab knob themselves; a stray FAULTLAB_*
    # variable in the caller's environment must not change what is measured.
    return {k: v for k, v in os.environ.items()
            if not k.startswith("FAULTLAB_")}


def run_bench(binary, args):
    try:
        proc = subprocess.run([binary] + args, capture_output=True, text=True,
                              env=child_env(), timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("campaign_bench timed out: " + " ".join(args))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        fail("campaign_bench exited with %d" % proc.returncode)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("campaign_bench printed nothing")
    return json.loads(lines[-1])


def rep_seed(workload, seed, rep):
    """Campaign seed of untraced repetition `rep` of a run of `seed`."""
    if workload in FRESH_DRAWS:
        return seed + rep * 2**32
    return seed


def value(rep, group, name):
    return rep[group][name]["value"]


def check_ledger(path, key, digests):
    """Digests of one (tree, workload, seed) must repeat across invocations."""
    ledger = {}
    if os.path.exists(path):
        with open(path) as f:
            ledger = json.load(f)
    known = ledger.get(key)
    if known is not None:
        return known == digests
    ledger[key] = digests
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(ledger, f, indent=0, sort_keys=True)
    os.replace(tmp, path)
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative", 2)

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("FaultLab sources (src/) not found next to perfbench/", 2)

    threads = min(4, len(os.sched_getaffinity(0)))
    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    binary = build(build_dir, threads)
    out_dir = os.path.join(build_dir, "runs")
    os.makedirs(out_dir, exist_ok=True)

    common = ["--workload", args.workload, "--threads", str(threads),
              "--out-dir", out_dir]
    seeded = common + ["--seed", str(args.seed)]
    reps = []
    setup_samples = []
    call_seconds = []  # each untraced repetition's process, as timed here
    start = time.monotonic()
    if args.trace:
        reps.append(run_bench(binary, seeded))
        reps.append(run_bench(binary, seeded + ["--trace", "--replay"]))
        replayed = reps[1]
    else:
        # Whole repetitions until the next would overrun --seconds (at least
        # one). The first also runs the replay check, so the latest
        # repetition, not the mean, predicts the next one's length.
        while True:
            replay = [] if reps else ["--replay"]
            seed = rep_seed(args.workload, args.seed, len(reps))
            began = time.monotonic()
            reps.append(run_bench(binary, common + ["--seed", str(seed)] +
                                  replay))
            ended = time.monotonic()
            call_seconds.append(ended - began)
            if ended - start + (ended - began) > args.seconds:
                break
        replayed = reps[0]
        setup_samples = [value(r, "end_to_end", "setup_s") for r in reps]
        extra = SETUP_SAMPLES - len(setup_samples)
        if extra > 0:
            setup_samples += run_bench(
                binary, seeded + ["--setup-only", str(extra)])["setup_samples"]

    # Correctness gate.
    problems = []
    for r in reps:
        if r["error"]:
            problems.append("campaign error: " + r["error"])
        if not r["golden_ok"]:
            problems.append("golden check: " + r["golden_detail"])
    replay = replayed["replay"]
    if replay is None or replay["checked"] == 0:
        problems.append("replay check ran no trials")
    elif replay["mismatched"]:
        problems.append("replay check: %d of %d trials differ; first: %s" % (
            replay["mismatched"], replay["checked"], replay["first_mismatch"]))
    digests = {}
    for r in reps:
        digests.setdefault(r["seed"], set()).add(
            (r["results_digest"], r["trials_digest"]))
    tree = tree_digest()
    for seed, seen in sorted(digests.items()):
        if len(seen) != 1:
            problems.append("determinism: digests of seed %d differ across "
                            "repetitions" % seed)
        elif not check_ledger(os.path.join(build_dir, "digests.json"),
                              "%s|%s|%d" % (tree, args.workload, seed),
                              list(next(iter(seen)))):
            problems.append("determinism: digests of seed %d differ from an "
                            "earlier run" % seed)

    attempted = sum(r["scheduled"] for r in reps)
    failed = sum(r["scheduled"] - r["completed"] for r in reps)

    if args.trace:
        traced, untraced = reps[1], reps[0]
        metrics = dict(traced["layers"])
        overhead = value(traced, "end_to_end", "wall_s") - value(
            untraced, "end_to_end", "wall_s")
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        metrics["trace.overhead_share"] = {
            "value": overhead / value(untraced, "end_to_end", "wall_s"),
            "unit": "share"}
    else:
        metrics = {}
        for name in END_TO_END:
            samples = (setup_samples if name == "setup_s" else
                       [value(r, "end_to_end", name) for r in reps])
            metrics[name] = {"value": statistics.median(samples),
                             "unit": reps[0]["end_to_end"][name]["unit"]}

    provenance = {
        "commit": git_commit(), "tree": tree, "host": socket.gethostname(),
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "build_type": reps[0]["build_type"], "sanitizer": False,
        "workload": args.workload, "seed": args.seed, "threads": threads,
        "repetitions": len(reps), "call_seconds": call_seconds,
        "setup_samples": setup_samples,
        "calibration_s": statistics.median(r["calibration_s"] for r in reps),
        "problems": problems,
    }
    with open(os.path.join(out_dir, "%s-s%d-t%d.json" % (
            args.workload, args.seed, args.trace)), "w") as f:
        json.dump({"provenance": provenance, "repetitions": reps}, f, indent=1)

    correct = not problems and failed == 0
    for p in problems:
        print("perfbench: " + p, file=sys.stderr)
    print(json.dumps({"provenance": provenance}))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
