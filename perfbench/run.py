#!/usr/bin/env python3
"""Build the program from source and run one benchmark workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds `neursc_cli` (the repository's root package) and the `perfbench`
harness in release mode into `$CARGO_TARGET_DIR` (default `.bench_build`),
generates the workload's inputs from the seed into `.bench_work/`, runs
it, and removes the inputs again. The last line of standard output is the
result object; traced runs also write a Chrome trace to
`.bench_work/traces/`. Exits non-zero, without a result, if anything fails.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("offline-batch", "serve-open", "train", "streamed-store")
BUILD_TIMEOUT_S = 850
GEN_TIMEOUT_S = 60
RUN_TIMEOUT_S = 150


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def target_dir():
    d = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(env):
    """Builds both binaries; returns their paths."""
    steps = [
        ["cargo", "build", "--release", "--offline", "--quiet", "--bin", "neursc_cli"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(ROOT, "perfbench", "Cargo.toml")],
    ]
    for cmd in steps:
        subprocess.run(cmd, cwd=ROOT, env=env, check=True, stdout=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    release = os.path.join(target_dir(), "release")
    return os.path.join(release, "neursc_cli"), os.path.join(release, "perfbench")


def probe(cmd):
    """First line a command prints, or "unknown"."""
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
        line = out.stdout.strip().splitlines()
        return line[0] if out.returncode == 0 and line else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def commit():
    """The checkout's git commit, when it is a git work tree of its own."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    return probe(["git", "rev-parse", "HEAD"])


def run_group(cmd, timeout):
    """Runs `cmd` in its own process group (stdout passed through) and
    kills whatever of the group is left when it ends or times out."""
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        log(f"timed out after {timeout} s: {cmd[1]}")
        return 1
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()


def main():
    # A SIGTERM unwinds like an error, so the `finally` blocks below still
    # kill the process groups this script started and remove its inputs.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    try:
        cli, bench = build(env)
    except (OSError, subprocess.SubprocessError) as e:
        log(f"build failed: {e}")
        return 1

    work = os.path.join(ROOT, ".bench_work")
    inputs = os.path.join(work, f"{args.workload}-{args.seed}-{os.getpid()}")
    trace_out = os.path.join(work, "traces", f"{args.workload}-{args.seed}.json")
    try:
        code = run_group([bench, "gen", "--workload", args.workload,
                          "--seed", str(args.seed), "--dir", inputs], GEN_TIMEOUT_S)
        if code != 0:
            log(f"input generation failed ({code})")
            return 1
        sys.stdout.flush()
        return run_group([bench, "run", "--workload", args.workload, "--dir", inputs,
                          "--seconds", str(args.seconds), "--trace", args.trace,
                          "--cli", cli, "--trace-out", trace_out,
                          "--rustc", probe(["rustc", "--version"]),
                          "--commit", commit()],
                         RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(inputs, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
