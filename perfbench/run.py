#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload circuit|nets|daemon_eco \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Configures and builds perfbench/ (which
builds the engine and merlin_d from the sources one directory up) into
.bench_build/perfbench, runs merlin_perfbench, and passes its output through.
The last line of standard output is the benchmark's JSON result; it is
checked against BENCHMARK.json (every metric the mode promises, nothing
else).  Exits nonzero, without printing a result, when the build fails or the
result does not match.
"""

import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_DIR = os.path.join(".bench_build", "run")  # relative: short socket paths
TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs,
                  "--target", "merlin_perfbench", "merlin_d"])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
        if r.returncode != 0:
            sys.stderr.write(r.stdout.decode(errors="replace")[-4000:])
            fail("build step failed: " + " ".join(cmd))


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv):
    args = dict(zip(argv[0::2], argv[1::2]))
    if len(argv) % 2 or set(args) != {"--workload", "--seed", "--seconds",
                                      "--trace"}:
        fail("usage: run.py --workload W --seed N --seconds S --trace 0|1")
    trace = args["--trace"] == "1"
    want = expected_metrics(trace)
    build()
    os.makedirs(os.path.join(ROOT, RUN_DIR), exist_ok=True)
    cmd = [os.path.join(BUILD, "merlin_perfbench")] + argv + [
        "--daemon", os.path.join(BUILD, "merlin", "tools", "merlin_d"),
        "--run-dir", RUN_DIR]
    # Own process group, so a timeout also stops the daemon it spawned.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("benchmark exceeded %d s" % TIMEOUT_S)
    out = stdout.decode(errors="replace").rstrip("\n").split("\n")
    try:
        result = json.loads(out[-1])
    except (ValueError, IndexError):
        sys.stdout.write("\n".join(out) + "\n")
        fail("no JSON result line (exit %d)" % proc.returncode)
    got = set(result.get("metrics", {}))
    if got != want:
        sys.stdout.write("\n".join(out[:-1]) + "\n")
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s"
             % (sorted(want - got), sorted(got - want)))
    sys.stdout.write("\n".join(out) + "\n")
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main(sys.argv[1:])
