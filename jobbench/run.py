#!/usr/bin/env python3
"""Builds the job benchmark from source and runs it.

    python3 jobbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 jobbench/run.py --self-test

Run from the root of a checkout. The build tree is .bench_build/jobbench
(or $CARGO_TARGET_DIR/jobbench when that is set); build output goes to
standard error, so the benchmark's JSON result stays the last line of
standard output. A traced run writes its Chrome trace-event file to
<build tree>/traces/. Exits non-zero, without a result, when the build
fails.
"""
import fcntl
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "jobbench")


def build(tree):
    os.makedirs(tree, exist_ok=True)
    with open(os.path.join(tree, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # one build per tree at a time
        generated = ("build.ninja", "Makefile")
        if not any(os.path.exists(os.path.join(tree, f)) for f in generated):
            configure = ["cmake", "-S", HERE, "-B", tree,
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            subprocess.run(configure, check=True, stdout=sys.stderr)
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(["cmake", "--build", tree, "-j", jobs],
                       check=True, stdout=sys.stderr)


def main(argv):
    tree = build_dir()
    try:
        build(tree)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"jobbench: build failed: {err}", file=sys.stderr)
        return 1
    sys.stdout.flush()
    if argv == ["--self-test"]:
        return subprocess.run([os.path.join(tree, "jobbench_selftest")]).returncode
    args = list(argv)
    if "--trace" in args and args[args.index("--trace") + 1:][:1] == ["1"]:
        traces = os.path.join(tree, "traces")
        os.makedirs(traces, exist_ok=True)
        name = "-".join(args[args.index(f) + 1] for f in ("--workload", "--seed")
                        if f in args and args.index(f) + 1 < len(args))
        args += ["--trace-file", os.path.join(traces, f"{name or 'job'}.trace.json")]
    return subprocess.run([os.path.join(tree, "jobbench")] + args).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
