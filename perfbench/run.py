#!/usr/bin/env python3
"""The repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout. It builds the benchmark binary
(perfbench/, which compiles the repository's libraries from ../src) in
Release under $CARGO_TARGET_DIR (default .bench_build), starts an
in-process blsm_server with 2 bLSM shards, runs the named workload from
workloads.json, checks every response, and prints as its last stdout line

    {"correct": .., "attempted": .., "failed": .., "metrics": {name: {value, unit}}}

With --trace 0 the metrics are the end-to-end ones. With --trace 1 it runs
an untraced and a traced pass, each in its own process, and the metrics are
the per-layer breakdown of the traced pass plus the tracing overhead
(overhead.<metric>: the share by which the metric came out worse when
traced). The line before it is the full report: provenance, sample counts,
p90/p99 and supported percentiles, ladder rungs, generator lateness. The
same report is written to <build>/results/. --smoke runs a seconds-long,
tiny-scale version of the workload for the benchmark's own test. README.md
describes the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 160


def die(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    """Configures (once) and builds the benchmark binary; returns its path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        die(f"no blsm source tree at {ROOT}", 2)
    bdir = build_dir / "perfbench"
    log = build_dir / "build.log"
    build_dir.mkdir(parents=True, exist_ok=True)
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not (bdir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=Release",
                      "-DBLSM_LOCK_RANK_CHECKS=OFF"])
    steps.append(["cmake", "--build", str(bdir), "--target", "perfbench",
                  "-j", jobs])
    with open(log, "a") as out:
        for cmd in steps:
            r = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT)
            if r.returncode != 0:
                tail = log.read_text(errors="replace").splitlines()[-30:]
                die("build failed:\n" + "\n".join(tail))
    return bdir / "perfbench"


def git(*args):
    try:
        r = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                           text=True, timeout=20)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return r.stdout.strip() if r.returncode == 0 else None


def source_digest():
    """sha256 over the sources the binary is built from."""
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for sub in ("src", "perfbench"):
        files += sorted(p for p in (ROOT / sub).rglob("*") if p.is_file())
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def provenance(binary_prov, args, params):
    commit = git("rev-parse", "HEAD")
    dirty = None
    if commit is not None:
        status = git("status", "--porcelain", "--untracked-files=no")
        dirty = bool(status)
    prov = dict(binary_prov)
    prov.update({
        "commit": commit or "unknown (not a git checkout)",
        "dirty": dirty,
        "source_sha256": source_digest(),
        "kernel": platform.release(),
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "scale": params,
    })
    return prov


def flags_for(w):
    """Command-line flags of the benchmark binary for workload spec `w`."""
    mix = w["mix"]
    f = {
        "--threads": w["threads"],
        "--setups": w["setups"],
        "--records": w["records"],
        "--cache-mb": w["cache_mb"],
        "--c0-mb": w["c0_mb"],
        "--sync": int(w["sync"]),
        "--get": mix["get"],
        "--put": mix["put"],
        "--scan": mix["scan"],
        "--zipf": int(w["zipf"]),
        "--p99-limit-us": w["p99_limit_us"],
        "--probe-rate": w["probe"]["rate"],
        "--probe-scan": w["probe"]["scan"],
        "--warm-all-keys": int(w["warm_all_keys"]),
        "--flush-after-load": int(w["flush_after_load"]),
        "--warm-seconds": w["warm_seconds"],
    }
    if "window" in w:
        f["--window"] = w["window"]
    else:
        lad = w["ladder"]
        f.update({
            "--ref-rate": w["ref_rate"],
            "--ref-frac": w["ref_frac"],
            "--ladder-start": lad["start"],
            "--ladder-step": lad["step"],
            "--ladder-rungs": lad["rungs"],
            "--rung-seconds": lad["rung_seconds"],
        })
    out = []
    for k, v in f.items():
        out += [k, str(v)]
    return out


def run_binary(binary, build_dir, args, w, trace, timeout):
    """Runs one pass of the benchmark binary; returns its parsed result."""
    data = build_dir / "data" / args.workload
    shutil.rmtree(data, ignore_errors=True)
    data.mkdir(parents=True)
    traces = build_dir / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(trace),
           "--dir", str(data),
           "--spans-out", str(traces / f"{args.workload}.spans")]
    cmd += flags_for(w)
    try:
        r = subprocess.run(cmd, capture_output=True, text=True,
                           timeout=timeout)
    except subprocess.TimeoutExpired:
        die(f"benchmark binary exceeded {timeout:.0f} s")
    finally:
        shutil.rmtree(data, ignore_errors=True)
    sys.stderr.write(r.stderr)
    if r.returncode != 0:
        die(f"benchmark binary exited with {r.returncode}")
    return json.loads(r.stdout.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny scale, for the benchmark's own test")
    args = ap.parse_args()

    spec = json.loads((HERE / "workloads.json").read_text())
    if args.workload not in spec["workloads"]:
        die(f"unknown workload {args.workload!r}; "
            f"known: {', '.join(spec['workloads'])}", 2)
    w = dict(spec["workloads"][args.workload])
    if args.smoke:
        w.update(spec["smoke"])
        w.update(spec["smoke_overrides"].get(args.workload, {}))

    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_dir.is_absolute():
        build_dir = Path.cwd() / build_dir
    binary = build(build_dir)

    t0 = time.monotonic()
    # A traced run measures an untraced pass and a traced pass, each in a
    # fresh process, so that the tracing overhead compares like with like.
    passes = [0, 1] if args.trace else [0]
    timeout = RUN_TIMEOUT_S / len(passes)
    runs = [run_binary(binary, build_dir, args, w, t, timeout) for t in passes]
    res = runs[-1]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    wrong = sum(r["wrong"] for r in runs)

    checks = {"wrong": wrong, "failed": failed}
    correct = wrong == 0
    report = {
        "workload": args.workload,
        "provenance": provenance(res["provenance"], args, w),
        "checks": checks,
        "failed_frac": failed / max(attempted, 1),
        "e2e": runs[0]["e2e"],
        "detail": runs[0]["detail"],
    }
    metrics = runs[0]["e2e"]
    if args.trace:
        metrics = dict(res["layers"])
        for name, m in runs[0]["e2e"].items():
            # The share by which the traced pass came out worse (every
            # end-to-end metric is lower-is-better).
            ratio = res["e2e"][name]["value"] / m["value"] if m["value"] else 1
            metrics["overhead." + name] = {"value": ratio - 1, "unit": "frac"}
        report.update({"traced_e2e": res["e2e"], "traced_detail": res["detail"],
                       "layers": metrics})
    report["wall_s"] = time.monotonic() - t0
    results = build_dir / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(report, indent=1, sort_keys=True))
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }, sort_keys=True))

if __name__ == "__main__":
    main()
