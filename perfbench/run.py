#!/usr/bin/env python3
"""Run one workload of the repository's benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Builds the benchmark program and the
`renamed` daemon from source with dune, runs the workload, and relays the
program's output: the last line of standard output is the result object.
The exit code is the program's (0 only when every correctness check
passed); 2 when the checkout is incomplete or does not build.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = "_build"
PROGRAM = os.path.join(BUILD_DIR, "default", "perfbench", "perfbench.exe")
DAEMON = os.path.join(BUILD_DIR, "default", "bin", "renamed.exe")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
# Sources the benchmark builds against; without them there is nothing to measure.
REQUIRED = ["dune-project", "lib/sim/dune", "lib/service/dune", "bin/renamed.ml"]


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return bench["per_layer" if trace else "end_to_end"], bench


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        subprocess.run(
            ["dune", "build", "--root", ".", "--display", "quiet",
             "./perfbench/perfbench.exe", "./bin/renamed.exe"],
            cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S,
            check=True)
    except FileNotFoundError:
        fail("dune is not installed")
    except subprocess.TimeoutExpired:
        fail("build timed out")
    except subprocess.CalledProcessError as e:
        fail(f"build failed (exit {e.returncode})")


def run(args):
    """Run the program in its own process group, so the daemon it spawns is
    stopped with it whatever happens; returns (exit code, stdout lines)."""
    cmd = [PROGRAM, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--daemon", DAEMON]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"run exceeded {RUN_TIMEOUT_S}s", code=1)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return proc.returncode, out.splitlines()


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()

    missing = [f for f in REQUIRED + ["BENCHMARK.json"]
               if not os.path.exists(os.path.join(ROOT, f))]
    if missing:
        fail("incomplete checkout, missing: " + ", ".join(missing))
    declared, bench = declared_metrics(args.trace)
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        fail(f"unknown workload {args.workload!r}")

    build()
    code, lines = run(args)
    if code < 0:
        # Killed by a signal (an OOM kill among them): a failed operation.
        for line in lines[:-1]:
            print(line)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        fail(f"benchmark killed by signal {-code}", code=1)
    if not lines:
        fail("benchmark printed no result", code=1)
    for line in lines:
        print(line)
    result = json.loads(lines[-1])
    names = {m["name"]: m["unit"] for m in declared}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if result["correct"] and got != names:
        fail("reported metrics differ from BENCHMARK.json: "
             f"missing {sorted(set(names) - set(got))}, "
             f"extra {sorted(set(got) - set(names))}", code=1)
    sys.exit(code)


if __name__ == "__main__":
    main()
