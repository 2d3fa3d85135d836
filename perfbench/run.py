#!/usr/bin/env python3
"""Build and run pario's benchmark for one workload.

    python3 perfbench/run.py --workload pda_small --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The first run configures and builds the
library from src/ plus the perfbench program (CMake, Release) under
$CARGO_TARGET_DIR/perfbench-<tree> (default .bench_build/perfbench-<tree>),
where <tree> is a hash of the checkout's absolute path, so two checkouts
sharing one CARGO_TARGET_DIR never share a build; later runs only re-check
the build.  Standard output ends with a stamp line ({"stamp": {...}}: host,
nproc, kernel, compiler, build type, commit, seed, and the share of CPU
time the hypervisor stole during the run, as the program reports it) and
then the result line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Exits non-zero, printing no result, if the build or the run fails.
"""
import argparse
import hashlib
import json
import os
import platform
import shutil
import socket
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
WORKLOADS = ("pda_small", "is_interleaved", "ps_checkpoint")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    tree = hashlib.sha256(str(ROOT).encode()).hexdigest()[:12]
    return base / f"perfbench-{tree}"


def build(out):
    """Configure (once) and build the perfbench binary; return its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no pario source tree at {ROOT / 'src'}")
    out.mkdir(parents=True, exist_ok=True)
    log = out / "build.log"
    cmds = []
    if (out / "CMakeCache.txt").is_file():
        home = cmake_cache(out, "CMAKE_HOME_DIRECTORY")
        if Path(home).resolve() != BENCH_DIR:
            fail(f"{out} holds a build of {home}, not of {BENCH_DIR}")
    else:
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        cmds.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out), *gen,
                     "-DCMAKE_BUILD_TYPE=Release"])
    cmds.append(["cmake", "--build", str(out), "--target", "perfbench",
                 "-j", str(os.cpu_count() or 1)])
    with open(log, "w") as f:
        for cmd in cmds:
            if subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT).returncode:
                f.flush()
                sys.stderr.write(log.read_text()[-4000:])
                fail(f"build failed: {' '.join(cmd)} (log: {log})")
    return out / "perfbench"


def cmake_cache(out, key):
    try:
        for line in (out / "CMakeCache.txt").read_text().splitlines():
            if line.startswith(key + ":"):
                return line.split("=", 1)[1]
    except OSError:
        pass
    return "unknown"


def compiler(out):
    for f in sorted((out / "CMakeFiles").glob("*/CMakeCXXCompiler.cmake")):
        ident = version = None
        for line in f.read_text().splitlines():
            if line.startswith("set(CMAKE_CXX_COMPILER_ID "):
                ident = line.split('"')[1]
            elif line.startswith("set(CMAKE_CXX_COMPILER_VERSION "):
                version = line.split('"')[1]
        if ident and version:
            return f"{ident} {version}"
    return cmake_cache(out, "CMAKE_CXX_COMPILER")


def git_commit():
    if not (ROOT / ".git").exists():
        return "none"
    try:
        head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=True)
        dirty = subprocess.run(["git", "-C", str(ROOT), "diff", "--quiet",
                                "HEAD", "--", "src", "perfbench"]).returncode
        return head.stdout.strip() + ("-dirty" if dirty else "")
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def source_sha256():
    """Hash of the sources the benchmark builds, for checkouts without git."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for p in sorted((ROOT / top).rglob("*")):
            if p.is_file() and "__pycache__" not in p.parts:
                h.update(str(p.relative_to(ROOT)).encode() + b"\0")
                h.update(p.read_bytes())
    return h.hexdigest()


def stamp(args, out, steal):
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "host": socket.gethostname(), "nproc": os.cpu_count(),
        "kernel": platform.release(), "compiler": compiler(out),
        "build_type": cmake_cache(out, "CMAKE_BUILD_TYPE"),
        "git_commit": git_commit(), "source_sha256": source_sha256(),
        "steal_frac": steal,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    out = build_dir()
    binary = build(out)
    workdir = out / "work"
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", str(workdir)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail(f"perfbench exited with {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(proc.stdout)
        fail("perfbench printed no result line")
    steal = [float(l.split(":", 1)[1]) for l in lines if l.startswith("# steal:")]
    if not steal:
        sys.stderr.write(proc.stdout)
        fail("perfbench printed no steal line")
    for line in lines[:-1]:
        print(line)
    print(json.dumps({"stamp": stamp(args, out, steal[-1])}))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
