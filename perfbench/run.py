#!/usr/bin/env python3
"""Benchmark entry point. Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

builds the benchmark program and the vrm-cli daemon from source with
dune (inside the checkout: build products under _build/, scratch files
under .perfbench-run/), runs one workload, and relays its output. The
last line of standard output is the result object; progress and build
messages go to standard error. `--workload all` runs every workload in
turn and prints each one's metrics by name with units.

Exit status: 0 when every output check passed; 1 when a check failed;
2 for bad arguments or a directory that is not a checkout of the
repository; 3 when the build fails; 4 when a run overruns its time.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ["refine-sweep", "vrmd-cold", "vrmd-warm", "kcore-fuzz"]
BENCH = os.path.join("_build", "default", "perfbench", "bench.exe")
CLI = os.path.join("_build", "default", "bin", "vrm_cli.exe")
RUN_DIR = ".perfbench-run"
# a run must end within 180 s; leave room for the build check and exit
RUN_TIMEOUT_S = 170


def fail(code, msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def check_checkout():
    needed = ["dune-project", "lib", os.path.join("bin", "vrm_cli.ml"),
              os.path.join("perfbench", "dune")]
    missing = [p for p in needed if not os.path.exists(p)]
    if missing:
        fail(2, "not the root of a checkout (missing %s)" % ", ".join(missing))


def scratch_env():
    """Keep compiler and runtime scratch files inside the checkout."""
    tmp = os.path.abspath(os.path.join(RUN_DIR, "tmp"))
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env["TMPDIR"] = tmp
    return env, tmp


def build(env):
    if shutil.which("dune", path=env.get("PATH")):
        dune = ["dune"]
    elif shutil.which("opam", path=env.get("PATH")):
        dune = ["opam", "exec", "--", "dune"]
    else:
        fail(3, "dune is not installed")
    cmd = dune + ["build", "--root", ".", "--cache=disabled",
                  "./perfbench/bench.exe", "./bin/vrm_cli.exe"]
    r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env)
    if r.returncode != 0:
        fail(3, "build failed")


def run_bench(workload, seed, seconds, trace, env):
    """Run one workload in a fresh process group; return (code, stdout)."""
    cmd = [BENCH, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--cli", CLI]
    p = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                         env=env, start_new_session=True, text=True)
    try:
        out, _ = p.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # the program and any daemon it started share its process group;
        # a killed program cannot remove its daemons' sockets and caches
        os.killpg(p.pid, signal.SIGKILL)
        p.communicate()
        for f in os.listdir(RUN_DIR):
            if not f.startswith(("spans-", "tmp")):
                path = os.path.join(RUN_DIR, f)
                if os.path.isdir(path):
                    shutil.rmtree(path, ignore_errors=True)
                else:
                    os.remove(path)
        return 4, ""
    return p.returncode, out


def cleanup(tmp):
    shutil.rmtree(tmp, ignore_errors=True)
    try:
        os.rmdir(RUN_DIR)  # only if nothing else (span files) is left
    except OSError:
        pass


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = ap.parse_args()
    if args.seconds <= 0:
        fail(2, "--seconds must be positive")
    check_checkout()
    env, tmp = scratch_env()
    try:
        build(env)
        if args.workload != "all":
            code, out = run_bench(args.workload, args.seed, args.seconds,
                                  args.trace, env)
            sys.stdout.write(out)
            sys.stdout.flush()
            if code == 4:
                fail(4, "run overran %d s and was stopped" % RUN_TIMEOUT_S)
            sys.exit(code)
        worst = 0
        for w in WORKLOADS:
            code, out = run_bench(w, args.seed, args.seconds, args.trace, env)
            worst = max(worst, code)
            lines = out.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                print("%s: no result (exit %d)" % (w, code))
                continue
            print("%s: correct=%s attempted=%d failed=%d" % (
                w, result["correct"], result["attempted"], result["failed"]))
            for name, m in result["metrics"].items():
                print("  %-56s %14.6g %s" % (name, m["value"], m["unit"]))
        sys.exit(worst)
    finally:
        cleanup(tmp)


if __name__ == "__main__":
    main()
