#!/usr/bin/env python3
"""The benchmark's own test: runs every workload at tiny scale (--smoke),
untraced and traced, and checks that the result line has exactly the
expected keys, that every response was correct, and that every metric
BENCHMARK.json names is emitted with its unit.

    python3 perfbench/smoke_test.py        # from the root of the checkout
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(workload, trace):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--smoke",
           "--workload", workload, "--seed", "7", "--seconds", "2",
           "--trace", str(trace)]
    r = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                       timeout=600)
    if r.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {r.returncode}:\n"
                             f"{r.stderr[-3000:]}")
    lines = r.stdout.strip().splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def check(workload, trace, spec):
    report, res = run(workload, trace)
    errors = []
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"result keys {sorted(res)}")
    if res.get("correct") is not True or res.get("failed") != 0:
        errors.append(f"correct={res.get('correct')} failed={res.get('failed')}")
    if not isinstance(res.get("attempted"), int) or res["attempted"] < 1:
        errors.append(f"attempted={res.get('attempted')}")
    want = spec["per_layer"] if trace else spec["end_to_end"]
    got = res.get("metrics", {})
    for m in want:
        if m["name"] not in got:
            errors.append(f"missing metric {m['name']}")
        elif got[m["name"]].get("unit") != m["unit"]:
            errors.append(f"{m['name']} unit {got[m['name']].get('unit')} "
                          f"!= {m['unit']}")
        elif not isinstance(got[m["name"]].get("value"), (int, float)):
            errors.append(f"{m['name']} value {got[m['name']].get('value')}")
    if not trace:
        extra = set(got) - {m["name"] for m in want}
        if extra:
            errors.append(f"unlisted metrics {sorted(extra)}")
    prov = report.get("provenance", {})
    for key in ("commit", "dirty", "build_type", "lock_rank_checks",
                "io_uring", "nproc", "kernel", "seed", "scale"):
        if key not in prov:
            errors.append(f"provenance lacks {key}")
    if trace and got.get("trace.linked_frac", {}).get("value", 0) <= 0:
        errors.append("no request was linked to an engine call")
    return errors


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = 0
    for w in spec["workloads"]:
        for trace in (0, 1):
            errors = check(w["name"], trace, spec)
            status = "ok" if not errors else "FAIL"
            print(f"{status}: {w['name']} --trace {trace}")
            for e in errors:
                print(f"    {e}")
            failures += bool(errors)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
