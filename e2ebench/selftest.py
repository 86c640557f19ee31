#!/usr/bin/env python3
"""Tiny-scale self-test of the end-to-end benchmark.

    python3 e2ebench/selftest.py

Builds the benchmark (through run.py) and runs every workload at 1% scale
for one second, untraced and traced, on two seeds.  It asserts that

  * the last stdout line is the result object with exactly the keys
    correct, attempted, failed and metrics, that the oracles passed
    (correct, failed == 0) and that attempted >= 1;
  * every metric BENCHMARK.json names for the mode is emitted, with its
    unit, and no other;
  * the traced runs meet their acceptance checks (spill, lanes > 1, both
    serve classes, commit_mix reopen and abort count);
  * analytic checked every template against the definitional EvaluatePlan
    (the stamp says so);
  * a different seed changes the generated data (the stamped fingerprint)
    but not the set of metrics.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
TINY = ["--scale", "0.01", "--seconds", "1"]


def run(workload, seed, trace):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--trace", str(trace)] + TINY
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    assert done.returncode == 0, (cmd, done.stderr[-2000:])
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    stamp = [l for l in lines if l.startswith("# ")]
    return result, stamp


def fingerprint(stamp):
    return [l for l in stamp if "data fingerprint" in l][0]


def check_result(result, expected, label):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
    assert result["correct"] is True, label
    assert result["failed"] == 0, label
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected, (label, set(got) ^ set(expected))
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), (label, name)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    for w in bench["workloads"]:
        name = w["name"]
        prints = []
        for seed in (1, 2):
            result, stamp = run(name, seed, 0)
            check_result(result, e2e, (name, seed, 0))
            prints.append(fingerprint(stamp))
            for v in result["metrics"].values():
                assert v["value"] > 0, (name, "end-to-end metric is 0")
        assert prints[0] != prints[1], (name, "seed did not change the data")
        result, stamp = run(name, 1, 1)
        check_result(result, layer, (name, 1, 1))
        assert fingerprint(stamp) == prints[0], (name, "traced data differs")
        m = {k: v["value"] for k, v in result["metrics"].items()}
        assert m["failed_frac"] == 0 and m["trace.spans"] > 0, name
        if name == "analytic":
            assert "# definitional EvaluatePlan check: 4 of 4 templates" in \
                stamp, stamp
            assert m["sort.spill_runs"] > 0, m
            assert m["parallel.lanes"] > 1 or os.cpu_count() == 1, m
            assert 0.9 <= m["trace.op_self_over_exec"] <= 1.1, m
        if name == "serve":
            assert m["serve.point_p50_ms"] > 0 and m["serve.range_p50_ms"] > 0
        if name == "commit_mix":
            assert m["wal.recover_s"] > 0, m
            assert m["wal.bytes_per_commit"] > 0, m
        print("ok:", name)
    print("selftest passed")


if __name__ == "__main__":
    main()
