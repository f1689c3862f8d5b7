#!/usr/bin/env python3
"""Benchmark of zsky, run from the root of a checkout.

    python3 perfbench/run.py --workload heap-anti --seed 1 --seconds 20 \
        --trace 0

Builds the library and the benchmark program from this checkout's sources
(perfbench/CMakeLists.txt) into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench), runs the program's self-test once per build,
generates the workload's inputs and reference answers from --seed (cached
next to the build), and measures the workload. The last line of stdout is
one JSON object with the keys correct, attempted, failed and metrics: the
end-to-end metrics of BENCHMARK.json with --trace 0, the per-layer ones
with --trace 1. A wrong answer prints the result (correct: false) and
exits 1; any other failure exits non-zero without printing a result.
"""

import argparse
import json
import os
import pathlib
import signal
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("heap-anti", "zsc-box", "mutate-mix")
# Cached inputs kept per workload (a zsc-box input is a 244 MiB file).
KEEP_INPUTS = 4
# Time limits of the build (configure, compile, self-test) and of the
# measurement (prepare, run), each shared by its steps: a run that builds
# ends within 900 s, any other within 180 s.
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build_dir():
    base = pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def stop_group(proc):
    """Kills what is left of `proc`'s process group (a build's compilers
    outlive an interrupted cmake) and waits until it is gone."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass  # Every process of the group has ended.
    proc.wait()
    # Orphaned members are reaped by init; wait for them a bounded time.
    for _ in range(100):
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_step(cmd, deadline, capture=False, env=None):
    """Runs `cmd` in its own process group, its output on stderr or, with
    `capture`, returned; raises on failure. The group is stopped on every
    way out: success, failure, the `deadline` (time.monotonic()) passing,
    or this script being stopped."""
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE if capture else sys.stderr,
        stderr=sys.stderr, text=True, env=env, start_new_session=True)
    try:
        out, _ = proc.communicate(
            timeout=max(0.0, deadline - time.monotonic()))
    finally:
        stop_group(proc)
    if proc.returncode != 0:
        raise subprocess.CalledProcessError(proc.returncode, cmd)
    return out


def build(out, deadline):
    # The Makefile exists only once a configure step has succeeded.
    if not (out / "Makefile").exists():
        run_step(["cmake", "-S", str(HERE), "-B", str(out),
                  "-DCMAKE_BUILD_TYPE=Release"], deadline)
    run_step(["cmake", "--build", str(out), "-j", str(os.cpu_count() or 1),
              "--target", "zsky_perfbench", "zsky_perfbench_selftest"],
             deadline)


def selftest(out, deadline):
    """Runs the self-test once per build of it."""
    binary = out / "zsky_perfbench_selftest"
    stamp = out / "selftest.passed"
    built = str(binary.stat().st_mtime_ns)
    if stamp.exists() and stamp.read_text() == built:
        return
    run_step([str(binary), str(out / "selftest")], deadline)
    stamp.write_text(built)


def evict_old_inputs(data, workload):
    """Keeps the KEEP_INPUTS most recently used inputs of `workload`."""
    inputs = sorted(data.glob(f"{workload}-s*.in"),
                    key=lambda p: p.stat().st_mtime, reverse=True)
    for old in inputs[KEEP_INPUTS:]:
        old.unlink()
        old.with_suffix(".zsc").unlink(missing_ok=True)


def expected_metrics(trace):
    """Metric names and units BENCHMARK.json lists for this kind of run."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    """Parses the result line; it must hold every metric BENCHMARK.json
    lists for this kind of run, in its unit, and nothing else."""
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"unexpected result keys {sorted(result)}")
    want = expected_metrics(trace)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        unknown = sorted(set(got) - set(want))
        units = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        raise ValueError(f"metrics differ from BENCHMARK.json: missing "
                         f"{missing}, unknown {unknown}, other unit {units}")
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    # SIGTERM unwinds like an error, so the running step is stopped too.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    out = build_dir()
    data = out / "data"
    try:
        deadline = time.monotonic() + BUILD_TIMEOUT_S
        build(out, deadline)
        selftest(out, deadline)
        deadline = time.monotonic() + RUN_TIMEOUT_S
        flags = ["--workload", args.workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--data", str(data)]
        prepared = run_step([str(out / "zsky_perfbench"), "prepare", *flags],
                            deadline, capture=True)
        os.utime(prepared.strip())
        evict_old_inputs(data, args.workload)
        # The library's own span tracer stays disarmed: the traced run
        # records spans from the benchmark, around the library's calls.
        env = {k: v for k, v in os.environ.items() if k != "ZSKY_TRACE"}
        run = run_step([str(out / "zsky_perfbench"), "run", *flags,
                        "--trace", str(args.trace)],
                       deadline, capture=True, env=env)
        lines = run.strip().splitlines()
        if not lines:
            raise ValueError("zsky_perfbench printed no result")
        result = check_result(lines[-1], bool(args.trace))
    except (OSError, ValueError, subprocess.SubprocessError) as error:
        log(f"failed: {error}")
        return 1
    print(json.dumps(result))
    # A wrong answer fails the command, after the result that counts it.
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
