#!/usr/bin/env python3
"""Build and run the repository benchmark (see BENCHMARK.json).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --smoke

Run from the root of a checkout. The first call configures and builds the
libraries in src/ together with the perfbench binary (CMake, in
$CARGO_TARGET_DIR or .bench_build); later calls rebuild incrementally.
The binary's last stdout line is the JSON result. --trace 1 also writes the
run's host spans to <build dir>/perfbench/spans/<workload>-seed<n>.json.

--smoke runs every workload at tiny sizes with tracing off and on, and
checks that each metric BENCHMARK.json names is emitted with its unit and
that perfbench/layers.json maps every per-layer metric.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def nproc():
    return max(1, len(os.sched_getaffinity(0)))


def build():
    """Configure (once) and build; returns the perfbench binary's path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"library sources missing: {ROOT / 'src'} (run from a full checkout)")
        return None
    out = build_dir()
    cache = out / "CMakeCache.txt"
    if cache.is_file() and f"CMAKE_HOME_DIRECTORY:INTERNAL={BENCH_DIR}" not in cache.read_text():
        shutil.rmtree(out)  # configured from another checkout path
    if not cache.is_file():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(out)]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            log("cmake configure failed")
            return None
    cmd = ["cmake", "--build", str(out), "--target", "perfbench", "-j", str(nproc())]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        log("build failed")
        return None
    return out / "perfbench"


def revision():
    """Git revision, or a hash of the benchmarked sources outside git."""
    if (ROOT / ".git").exists():
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short=12", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            return "git-" + r.stdout.strip()
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for p in sorted((ROOT / top).rglob("*")):
            if p.is_file() and "__pycache__" not in p.parts:
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return "tree-" + h.hexdigest()[:12]


def child_env():
    # Library knobs (CA_*) would override the workloads' settings; the tasks
    # backend's workers get one OpenMP thread each so the run stays within
    # nproc host threads.
    env = {k: v for k, v in os.environ.items() if not k.startswith("CA_")}
    env["OMP_NUM_THREADS"] = "1"
    return env


def run_binary(binary, args, timeout):
    """Run the binary; returns (exit code, stdout lines, parsed last line)."""
    try:
        r = subprocess.run([str(binary)] + args, env=child_env(), cwd=ROOT,
                           stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        log(f"perfbench binary timed out after {timeout} s")
        return 1, [], None
    lines = r.stdout.splitlines()
    result = None
    if r.returncode == 0 and lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return r.returncode, lines, result


def run_one(a):
    binary = build()
    if binary is None:
        return 2
    args = ["--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
            "--trace", str(a.trace), "--revision", revision()]
    if a.trace == 1:
        spans = build_dir() / "spans"
        spans.mkdir(parents=True, exist_ok=True)
        args += ["--span-file", str(spans / f"{a.workload}-seed{a.seed}.json")]
    code, lines, result = run_binary(binary, args, RUN_TIMEOUT_S)
    if code != 0 or not isinstance(result, dict):
        for line in lines:
            print(line, file=sys.stderr)
        log(f"run failed (exit {code})")
        return code or 1
    print("\n".join(lines), flush=True)
    return 0


def smoke():
    """Tiny-size run of every workload, checking names and units."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layers = json.loads((BENCH_DIR / "layers.json").read_text())
    e2e_names = {m["name"] for m in spec["end_to_end"]}
    workloads = {w["name"] for w in spec["workloads"]}
    problems = []
    for m in spec["per_layer"]:
        entry = layers.get(m["name"])
        if entry is None:
            problems.append(f"layers.json has no entry for {m['name']}")
            continue
        if entry.get("moves") is not None and entry["moves"] not in e2e_names:
            problems.append(f"{m['name']}: moves unknown metric {entry['moves']}")
        if entry.get("workload") is not None and entry["workload"] not in workloads:
            problems.append(f"{m['name']}: unknown workload {entry['workload']}")
    binary = build()
    if binary is None:
        return 2
    spans = build_dir() / "spans"
    spans.mkdir(parents=True, exist_ok=True)
    for w in spec["workloads"]:
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            span_file = spans / f"smoke-{w['name']}.json"
            args = ["--workload", w["name"], "--seed", "1", "--seconds", "1",
                    "--trace", str(trace), "--smoke", "--span-file", str(span_file)]
            t0 = time.monotonic()
            code, _, result = run_binary(binary, args, RUN_TIMEOUT_S)
            where = f"{w['name']} trace={trace}"
            if code != 0 or not isinstance(result, dict):
                problems.append(f"{where}: exit {code}, no result")
                continue
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            if result.get("correct") is not True or result.get("failed") != 0:
                problems.append(f"{where}: correct={result.get('correct')} "
                                f"failed={result.get('failed')}")
            got = result.get("metrics", {})
            if set(got) != {m["name"] for m in wanted}:
                problems.append(f"{where}: metric names differ: "
                                f"{sorted(set(got) ^ {m['name'] for m in wanted})}")
            for m in wanted:
                v = got.get(m["name"])
                if v is None:
                    continue
                if v.get("unit") != m["unit"]:
                    problems.append(f"{where}: {m['name']} unit {v.get('unit')} != {m['unit']}")
                x = v.get("value")
                if not isinstance(x, (int, float)) or not math.isfinite(x):
                    problems.append(f"{where}: {m['name']} value {x!r}")
                elif trace == 0 and x == 0:
                    problems.append(f"{where}: {m['name']} is 0")
            if trace == 1:
                try:
                    json.loads(span_file.read_text())
                except (OSError, json.JSONDecodeError) as e:
                    problems.append(f"{where}: span file unreadable: {e}")
            log(f"smoke {where}: {time.monotonic() - t0:.1f} s")
    for p in problems:
        log("smoke: " + p)
    log("smoke: " + ("ok" if not problems else f"{len(problems)} problem(s)"))
    return 0 if not problems else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--smoke", action="store_true")
    a = ap.parse_args()
    if a.smoke:
        return smoke()
    if a.workload is None or a.seed is None or a.seconds is None or a.trace is None:
        ap.error("--workload, --seed, --seconds and --trace are required")
    return run_one(a)


if __name__ == "__main__":
    sys.exit(main())
