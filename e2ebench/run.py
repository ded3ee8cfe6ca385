#!/usr/bin/env python3
"""Builds and runs the grw end-to-end benchmark.

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 e2ebench/run.py --workload all --seed 7 [--trace 0|1]
    python3 e2ebench/run.py --smoke

Builds e2ebench/ (which builds the repository's library from source) into
$CARGO_TARGET_DIR/e2ebench, default .bench_build/e2ebench under the repo
root; generated fixtures are cached next to it in e2ebench_work/. Each
workload runs in a fresh process. For one workload the last line of
stdout is its JSON result; --out DIR also appends every result to
DIR/results.jsonl for compare_e2e.py. Exits 1 if a build, a run or a
correctness check fails. See e2ebench/README.md.
"""

import argparse
import json
import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["inmem-srw2css", "crawl-psrw3", "sharded-half", "serve-mix"]
# A run measures for --seconds; set-up, warm-up and checks come on top.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


class BenchError(Exception):
    pass


def build_root():
    base = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return base if base.is_absolute() else ROOT / base


def build(base):
    build_dir = base / "e2ebench"
    if not (build_dir / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", str(HERE), "-B", str(build_dir)]
        call(configure + generator)
    call(["cmake", "--build", str(build_dir), "--target", "bench_e2e",
          "--parallel", "4"])
    return build_dir / "bench_e2e"


def call(cmd):
    """Runs a build or preparation step; its output goes to stderr."""
    try:
        subprocess.run(cmd, stdout=sys.stderr, check=True,
                       timeout=BUILD_TIMEOUT_S)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as e:
        raise BenchError(f"{cmd[0]} failed: {e}") from e


def run_workload(binary, work_dir, name, args):
    common = ["--work-dir", str(work_dir), "--seed", str(args.seed)]
    if args.smoke:
        common.append("--smoke")
    call([str(binary), "prepare"] + common)
    cmd = [str(binary), "run", "--workload", name, "--seconds",
           str(args.seconds), "--trace", str(args.trace)] + common
    if args.trace:
        cmd += ["--trace-file",
                str(work_dir / f"trace-{name}-{args.seed}.jsonl")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"{name}: no result within {RUN_TIMEOUT_S} s") from e
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError) as e:
        sys.stderr.write(proc.stdout)
        raise BenchError(f"{name}: exited {proc.returncode} without a "
                         "result") from e
    return lines, result, proc.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        help="one of %s, or all" % ", ".join(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="small fixture, every workload traced and "
                             "untraced, all correctness checks")
    parser.add_argument("--out", type=pathlib.Path,
                        help="append each result to OUT/results.jsonl")
    args = parser.parse_args()
    if args.workload != "all" and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")

    try:
        base = build_root()
        binary = build(base)
        work_dir = base / "e2ebench_work"
        if args.smoke:
            args.seconds = 1
            plan = [(w, t) for w in WORKLOADS for t in (0, 1)]
        elif args.workload == "all":
            plan = [(w, args.trace) for w in WORKLOADS]
        else:
            plan = [(args.workload, args.trace)]
        ok = True
        for name, trace in plan:
            args.trace = trace
            lines, result, code = run_workload(binary, work_dir, name, args)
            ok = ok and code == 0 and result["correct"]
            if len(plan) > 1:
                print(f"== {name} trace={trace}")
            # The run's own output; its last line is the JSON result,
            # printed as the binary wrote it (every digit kept).
            print("\n".join(lines), flush=True)
            if args.out:
                args.out.mkdir(parents=True, exist_ok=True)
                record = {"workload": name, "seed": args.seed,
                          "trace": trace, **result}
                with open(args.out / "results.jsonl", "a") as f:
                    f.write(json.dumps(record) + "\n")
    except BenchError as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 1
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
