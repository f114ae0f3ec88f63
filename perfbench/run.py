#!/usr/bin/env python3
"""End-to-end benchmark of the catbatch engine, trace replay and catbatchd.

Builds perfbench/ (which compiles the library from ../src) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs one
workload in its own process, checks its outputs, and prints one JSON
object as the last line of stdout:

    python3 perfbench/run.py --workload dag-layered --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload svc-ext --seed 1 --seconds 30 --trace 1
    python3 perfbench/run.py --smoke        # every workload, tiny, both modes

--trace 0 prints the end-to-end metrics; --trace 1 is the separate traced
run that prints the per-layer metrics and writes a Chrome trace under
<build>/traces/. Every run also records the host (nproc, CPU model, L2/L3,
compiler, build type, commit) with its result under <build>/results/.
Exit status: 0 when every check passed, 1 when a check failed, 2 when the
build failed, 3 when the workload crashed or timed out.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("dag-layered", "trace-swf", "svc-ext")
WORKLOAD_TIMEOUT_S = 160


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = Path.cwd() / base
    return base / "perfbench"


def build_binary(build):
    """Configures (once) and builds the workload binary; returns its path."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    configure = ["cmake", "-S", str(HERE), "-B", str(build),
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo", *generator]
    compile_ = ["cmake", "--build", str(build), "--target",
                "perfbench_workloads", "-j", jobs]
    for attempt in range(2):
        ok = True
        if not (build / "CMakeCache.txt").exists():
            ok = subprocess.run(configure, stdout=sys.stderr).returncode == 0
        if ok and subprocess.run(compile_, stdout=sys.stderr).returncode == 0:
            return build / "perfbench_workloads"
        if attempt == 0 and (build / "CMakeCache.txt").exists():
            log("perfbench: build failed; reconfiguring from scratch")
            shutil.rmtree(build, ignore_errors=True)
        else:
            break
    return None


def read(path):
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def host_info(doc, build):
    """Read-only facts about the machine and build the result came from."""
    info = {"nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(),
            "kernel": platform.release(),
            "python": platform.python_version()}
    cpuinfo = read("/proc/cpuinfo") or ""
    for line in cpuinfo.splitlines():
        key, _, value = line.partition(":")
        key = key.strip()
        if key == "model name" and "cpu_model" not in info:
            info["cpu_model"] = value.strip()
        if key == "cache size" and "cpuinfo_cache" not in info:
            info["cpuinfo_cache"] = value.strip()
    cache = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache.glob("index*")):
        level = read(index / "level")
        kind = read(index / "type")
        if level in ("2", "3") and kind in ("Unified", "Data"):
            info[f"l{level}"] = read(index / "size")
    info["compiler"] = doc.get("build", {}).get("compiler")
    info["build_type"] = doc.get("build", {}).get("build_type")
    for line in (read(build / "CMakeCache.txt") or "").splitlines():
        if line.startswith("CMAKE_CXX_COMPILER:"):
            info["compiler_path"] = line.split("=", 1)[1]
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    info["commit"] = commit or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    info["source_digest"] = digest.hexdigest()[:16]
    return info


def expected_metrics(trace):
    """(name, unit) pairs BENCHMARK.json publishes for this mode, if any."""
    spec = read(ROOT / "BENCHMARK.json")
    if spec is None:
        return None
    spec = json.loads(spec)
    return [(m["name"], m["unit"])
            for m in spec["per_layer" if trace else "end_to_end"]]


def check_reference(ref_dir, key, deterministic):
    """Compares exact outputs with the first run of the same seed and
    binary; returns the names that differ."""
    ref_dir.mkdir(parents=True, exist_ok=True)
    path = ref_dir / f"{key}.json"
    reference = json.loads(read(path) or "{}")
    differ = [k for k, v in deterministic.items()
              if k in reference and reference[k] != v]
    if not differ:
        reference.update(deterministic)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(reference, sort_keys=True))
        tmp.replace(path)
    return differ


def run_workload(exe, build, workload, seed, seconds, trace, smoke):
    """Runs one workload process; returns (result, doc) or None on a crash."""
    run_dir = build / "run"
    traces = build / "traces"
    for d in (run_dir, traces):
        d.mkdir(parents=True, exist_ok=True)
    suffix = "-smoke" if smoke else ""
    chrome = traces / f"{workload}-seed{seed}{suffix}.trace.json"
    cmd = [str(exe), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--socket-dir", os.path.relpath(run_dir)]
    if trace:
        cmd += ["--chrome", str(chrome)]
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=WORKLOAD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {workload} timed out after {WORKLOAD_TIMEOUT_S} s")
        return None
    sys.stderr.write(proc.stderr)
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    try:
        doc = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        log(f"perfbench: {workload} exited {proc.returncode} without a result")
        return None

    attempted = int(doc["attempted"])
    failed = int(doc["failed"])
    failures = list(doc["failures"])
    if proc.returncode != 0 and failed == 0:
        failed += 1
        failures.append(f"workload exited with status {proc.returncode}")

    exe_digest = hashlib.sha256(Path(exe).read_bytes()).hexdigest()[:16]
    differ = check_reference(build / "reference" / exe_digest,
                             f"{workload}-seed{seed}{suffix}",
                             doc["deterministic"])
    attempted += 1
    if differ:
        failed += 1
        failures.append("differs from the first run of this seed: "
                        + ", ".join(differ))

    metrics = dict(doc["metrics"])
    expected = expected_metrics(trace)
    if expected is not None:
        attempted += 1
        got = [(name, m["unit"]) for name, m in metrics.items()]
        if not trace:
            got.append(("ok_ratio", "ratio"))
        if sorted(got) != sorted(expected):
            failed += 1
            failures.append("metrics do not match BENCHMARK.json")
    if not trace:
        metrics["ok_ratio"] = {"value": 1.0 - failed / attempted,
                               "unit": "ratio"}

    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    doc["failures"] = failures
    return result, doc


def report(workload, seed, trace, result, doc, host, build):
    print(f"perfbench {workload} seed={seed} "
          f"{'traced (per-layer)' if trace else 'untraced (end-to-end)'}")
    print("host " + json.dumps(host, sort_keys=True))
    for name, m in result["metrics"].items():
        print(f"  {name:<30} {m['value']:>16.6g} {m['unit']}")
    if not trace:
        # Printed, not published: see README.md, "End-to-end metrics".
        for name, m in doc.get("report_only", {}).items():
            print(f"  {name:<30} {m['value']:>16.6g} {m['unit']} (report only)")
        ratio = result["failed"] / result["attempted"]
        print(f"  {'failed_ratio':<30} {ratio:>16.6g} ratio (report only)")
    print(f"  checks: {result['attempted']} attempted, "
          f"{result['failed']} failed")
    for failure in doc.get("failures", []):
        print(f"  FAILED: {failure}")
    for key, value in sorted(doc.get("info", {}).items()):
        print(f"  info {key} = {value}")
    results = build / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{workload}-seed{seed}-trace{int(trace)}.json"
    (results / name).write_text(json.dumps(
        {"host": host, "workload": doc, "result": result}, indent=1))


def smoke(exe, build):
    """Every workload at tiny size, untraced and traced, shape-checked."""
    ok = True
    for workload in WORKLOADS:
        for trace in (False, True):
            out = run_workload(exe, build, workload, 1, 1, trace, True)
            good = out is not None and out[0]["correct"] and all(
                isinstance(m["value"], (int, float))
                for m in out[0]["metrics"].values())
            print(f"smoke {workload:<12} trace={int(trace)} "
                  f"{'ok' if good else 'FAILED'}")
            if out is not None and not good:
                for failure in out[1]["failures"]:
                    print(f"  FAILED: {failure}")
            ok = ok and good
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")

    build = build_dir()
    exe = build_binary(build)
    if exe is None:
        log("perfbench: build failed")
        return 2
    if args.smoke:
        return 0 if smoke(exe, build) else 1

    out = run_workload(exe, build, args.workload, args.seed, args.seconds,
                       bool(args.trace), False)
    if out is None:
        return 3
    result, doc = out
    report(args.workload, args.seed, bool(args.trace), result, doc,
           host_info(doc, build), build)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
