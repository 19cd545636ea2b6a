#!/usr/bin/env python3
"""End-to-end benchmark of the attacktagger testbed.

Builds the benchmark program (perfbench/CMakeLists.txt, which compiles the
repository's src/ tree in Release mode), generates the workload's inputs
from the seed in a separate process, then measures them:

    python3 perfbench/run.py --workload notice_day --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

The last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}; the line before it is a
report with the machine block, diagnostics and any gate failures. The exit
code is nonzero when the build fails or a pass fails its correctness gate.
Build outputs go to $CARGO_TARGET_DIR/perfbench (default .bench_build).
"""

import argparse
import hashlib
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
WORKLOADS = ("notice_day", "campaign_entity", "flow_hour")
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build_dir():
    base = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(target):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"no testbed sources under {ROOT / 'src'}; nothing to benchmark")
        return None
    out = build_dir()
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", target, "-j", "4"])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            log(f"build step failed: {' '.join(step)}")
            return None
    return out / target


def source_id():
    """Git commit when the tree is a repository, else a hash of the sources."""
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if done.returncode == 0:
            return done.stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")) + sorted(BENCH.rglob("*")):
        if path.is_file() and path.suffix in (".cpp", ".hpp", ".txt", ".py"):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="run the benchmark's own tests instead of a measurement")
    args = parser.parse_args()

    if args.selftest:
        program = build("perfbench_selftest")
        if program is None:
            return 2
        return subprocess.run([str(program)], timeout=RUN_TIMEOUT_S * 3).returncode
    if args.workload is None:
        parser.error("--workload is required")

    program = build("perfbench")
    if program is None:
        return 2
    inputs = build_dir() / "inputs" / f"{args.workload}-{args.seed}.bin"
    inputs.parent.mkdir(parents=True, exist_ok=True)
    try:
        gen = subprocess.run([str(program), "gen", "--workload", args.workload,
                              "--seed", str(args.seed), "--trace", str(args.trace),
                              "--out", str(inputs)],
                             stdout=sys.stderr, stderr=sys.stderr, timeout=RUN_TIMEOUT_S)
        if gen.returncode != 0:
            log("input generation failed")
            return 1
        run = subprocess.run([str(program), "run", "--input", str(inputs),
                              "--seconds", str(args.seconds), "--trace", str(args.trace),
                              "--git-sha", source_id()],
                             stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("timed out")
        return 1
    finally:
        inputs.unlink(missing_ok=True)
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
