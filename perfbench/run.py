#!/usr/bin/env python3
"""Run one perfbench measurement against the repository's codegen_server.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The script builds `codegen_server`
and the load generator with the repository's own CMake project (into
$CARGO_TARGET_DIR, default `.bench_build`), runs the load generator, and
prints its report; the last stdout line is the JSON result. It exits non-zero
without a result when the checkout holds no sources to build, when the build
fails, when an answer was wrong, or when a codegen_server outlives the run.
"""
import argparse
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("cifar_direct", "usps_routed")
RUN_TIMEOUT_S = 170
BUILD_JOBS = "4"
# While the hypervisor steals CPU time, an untraced run measures on, one 1 s
# window at a time, until enough windows are clean (see loadgen/main.cpp).
# A run waits at most EXTRA_PER_RUN_S that way, and all runs that share a
# build directory at most EXTRA_BUDGET_S together, so a host that stays busy
# costs a bounded time, not the longest wait once per run.
EXTRA_PER_RUN_S = 120
EXTRA_BUDGET_S = 900
EXTRA_LEDGER = "extra_seconds_used"
# Set in the load generator's environment; every server it starts inherits
# it, so the teardown check below finds this run's processes and no others.
RUN_MARKER = "PERFBENCH_RUN"


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(build_dir, env):
    """Configure and build the two targets; returns the binaries."""
    cmake_dir = build_dir / "cmake"
    log = build_dir / "build.log"
    steps = [
        ["cmake", "-S", str(ROOT), "-B", str(cmake_dir),
         f"-DCMAKE_PROJECT_INCLUDE={BENCH_DIR / 'cmake' / 'add_loadgen.cmake'}"],
        ["cmake", "--build", str(cmake_dir), "-j", BUILD_JOBS,
         "--target", "codegen_server", "perfbench_loadgen"],
    ]
    with open(log, "w") as out:
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT, env=env).returncode:
                tail = log.read_text(errors="replace").splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build step failed: {' '.join(step)} (log: {log})")
    server = cmake_dir / "examples" / "codegen_server"
    loadgen = cmake_dir / "perfbench" / "perfbench_loadgen"
    for binary in (server, loadgen):
        if not binary.exists():
            fail(f"build produced no {binary}")
    return server, loadgen


def extra_seconds_used(ledger):
    try:
        return float(ledger.read_text())
    except (OSError, ValueError):
        return 0.0


def surviving_servers(server, run_id):
    """PIDs of live processes running codegen_server for this run."""
    target = str(server.resolve())
    marker = f"{RUN_MARKER}={run_id}".encode()
    pids = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            if os.readlink(entry / "exe") != target:
                continue
            if marker not in (entry / "environ").read_bytes().split(b"\0"):
                continue
            state = (entry / "stat").read_text().rsplit(")", 1)[1].split()[0]
            if state != "Z":
                pids.append(int(entry.name))
        except OSError:
            continue
    return pids


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    for needed in ("CMakeLists.txt", "src", "examples/codegen_server.cpp"):
        if not (ROOT / needed).exists():
            fail(f"no {needed} next to {BENCH_DIR.name}/: run from a full source checkout")

    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_dir.is_absolute():
        build_dir = ROOT / build_dir
    run_dir = build_dir / "runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    tmp_dir = build_dir / "tmp"
    run_dir.mkdir(parents=True, exist_ok=True)
    tmp_dir.mkdir(parents=True, exist_ok=True)
    run_id = f"{os.getpid()}-{time.time_ns()}"
    env = dict(os.environ, TMPDIR=str(tmp_dir))

    server, loadgen = build(build_dir, env)
    ledger = build_dir / EXTRA_LEDGER
    used = extra_seconds_used(ledger)
    # 30 s of the run's time limit stay for set-ups, warm-up and teardown.
    max_extra = int(max(0.0, min(EXTRA_PER_RUN_S, EXTRA_BUDGET_S - used,
                                 RUN_TIMEOUT_S - 30 - args.seconds)))
    command = [str(loadgen), "--server", str(server), "--run-dir", str(run_dir),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--max-extra-windows", str(max_extra)]
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, env=dict(env, **{RUN_MARKER: run_id}),
                            text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        stdout = ""
        print(f"perfbench: load generator exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        proc.returncode = 1
    for line in stdout.splitlines():
        if line.startswith("extra seconds: "):
            extra = float(line.split(": ", 1)[1])
            if extra > 0:
                ledger.write_text(f"{used + extra:.3f}\n")

    deadline = time.monotonic() + 5
    survivors = surviving_servers(server, run_id)
    while survivors and time.monotonic() < deadline:
        time.sleep(0.05)
        survivors = surviving_servers(server, run_id)
    if survivors:
        for pid in survivors:
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
        print(f"perfbench: codegen_server outlived the run: {survivors}", file=sys.stderr)
        sys.exit(1)

    sys.stdout.write(stdout)
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
