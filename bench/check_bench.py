#!/usr/bin/env python3
"""Checks the BENCH_*.json outputs of the benches, as CI does.

Usage: python3 bench/check_bench.py trace|overhead|service|records|paper [dir]

Each check reads its fixed file names from `dir` (default: the current
directory) and fails with the offending record on a violation.
"""

import json
import os
import sys


def load(directory, name):
    with open(os.path.join(directory, name)) as f:
        return json.load(f)


def check_trace(d):
    events = load(d, "run_plans_trace.json")["traceEvents"]
    assert len(events) > 0, "empty trace"
    for e in events:
        assert e["ph"] in ("X", "i"), e
        assert "ts" in e and "name" in e, e
        if e["ph"] == "X":
            assert e["dur"] >= 0, e
    print(f"trace OK: {len(events)} events")


def check_overhead(d):
    # Head-to-head records only: the string-kernel / Bloom-sweep records
    # carry their own schema and no (plan, backend, threads).
    def times(name):
        return {(r["plan"], r["backend"], r["threads"]): r["time_ms"]
                for r in load(d, name) if "plan" in r}
    plain = times("BENCH_vexec_plain.json")
    traced = times("BENCH_vexec.json")
    assert plain.keys() == traced.keys()
    for key, base in plain.items():
        got = traced[key]
        # Generous bound for shared-runner noise: the timed loops hold no
        # ObsContext, so env-enabled observability must not move the numbers
        # beyond run-to-run variance.
        assert got <= base * 2.0 + 10.0, (key, base, got)
    print(f"overhead OK across {len(plain)} configs")


def check_service(d):
    records = load(d, "BENCH_service.json")
    assert records and all(r.get("bench") == "service" for r in records)
    assert {r["clients"] for r in records} == {1, 2, 4}, records
    for r in records:
        # The mix overlaps by construction, so a zero hit rate means the
        # cross-batch cache silently stopped serving segments (bench_service
        # itself also exits nonzero on this).
        assert r["hit_rate"] > 0, r
        assert r["hits"] > 0 and r["lookups"] >= r["hits"], r
        assert r["throughput_batches_per_s"] > 0, r
        assert r["p50_ms"] > 0 and r["p95_ms"] >= r["p50_ms"], r
    print(f"service records OK: {len(records)} client counts")


def check_records(d):
    records = load(d, "BENCH_vexec.json")
    kinds = {r.get("bench") for r in records}
    for kind in ("vexec_string", "vexec_bloom", "vexec_zone",
                 "vexec_for_join", "vexec_group"):
        assert kind in kinds, kinds
    groups = [r for r in records if r.get("bench") == "vexec_group"]
    assert {r["threads"] for r in groups} == {1, 4}, groups
    assert all(r["time_ms"] > 0 and r["groups"] > 0 for r in groups), groups
    strings = [r for r in records if r.get("bench") == "vexec_string"]
    assert all(r["dict_ms"] > 0 and r["raw_ms"] > 0 for r in strings)
    zones = [r for r in records if r.get("bench") == "vexec_zone"]
    assert {r["selectivity"] for r in zones} == {0.01, 0.1, 0.5}, zones
    assert all(r["plain_ms"] > 0 and r["for_ms"] > 0
               and r["for_zone_ms"] > 0 for r in zones)
    # FOR columns must actually be smaller than the plain vectors.
    assert all(0 < r["bytes_for"] < r["bytes_plain"] for r in zones)
    joins = [r for r in records if r.get("bench") == "vexec_for_join"]
    assert joins and all(r["plain_ms"] > 0 and r["for_ms"] > 0
                         and 0 < r["bytes_for"] < r["bytes_plain"]
                         for r in joins)

    opt = load(d, "BENCH_optimizer.json")
    assert opt and all(r.get("bench") == "optimizer" for r in opt), opt
    modes = {(r["mode"], r["greedy"]) for r in opt}
    assert {("full", "eager"), ("full", "lazy"), ("cone", "eager"),
            ("cone", "lazy")} <= modes, modes
    assert {r["threads"] for r in opt} >= {1, 2}, opt
    assert all(r["same_set"] == 1 for r in opt), "optimizer outputs differ"
    assert all("allocs" in r and r["allocs"] > 0 for r in opt), opt
    # Heap allocations are an exact serial work counter: the cone overlay
    # must allocate less than a fresh whole-memo search.
    for batch in {r["batch_size"] for r in opt}:
        serial = {r["mode"]: r["allocs"] for r in opt
                  if r["batch_size"] == batch and r["threads"] == 1
                  and r["greedy"] == "lazy"}
        assert serial["cone"] < serial["full"], (batch, serial)
    # The cost-only search allocates per search, not per candidate: every
    # serial cone run makes fewer heap allocations than it performs costings.
    for r in opt:
        if r["mode"] == "cone" and r["threads"] == 1:
            assert r["allocs"] < r["costings"], r

    parallel = load(d, "BENCH_parallel_join.json")
    for surface in ("hash_join_build", "hash_join_probe_dup_keys"):
        recs = [r for r in parallel if r.get("surface") == surface]
        assert {r["threads"] for r in recs} == {1, 2, 4}, (surface, recs)
        assert all(r["time_ms"] > 0 for r in recs), recs
    probes = [r for r in parallel if r.get("surface") == "hash_join_probe"]
    assert {r["threads"] for r in probes} >= {1, 2, 4}, probes
    assert all(r["time_ms"] > 0 and r["join_rows"] > 0
               for r in probes), probes
    print(f"bench records OK: {len(records)} + {len(opt)} + "
          f"{len(parallel)} total")


# bench_paper's experiments; E4 and E7 (Figures 4c/5c) are the
# optimization-time columns of E2/E3 and E5/E6.
PAPER_EXPERIMENTS = ("E1", "E2", "E3", "E5", "E6", "E8a", "E8b", "E8c", "E9",
                     "E10", "E11", "E12", "E13", "E14", "INLJ")


def check_paper(d):
    records = load(d, "BENCH_paper.json")
    assert records and all(r.get("bench") == "paper" for r in records)
    rows = [r for r in records if "check" not in r]
    checks = [r for r in records if "check" in r]
    for e in PAPER_EXPERIMENTS:
        assert any(r["experiment"] == e for r in rows), f"no rows for {e}"
    for r in rows:
        if r["experiment"] in ("E2", "E3", "E5", "E6"):
            assert r["opt. time (ms)"] >= 0, r
    failed = [r for r in checks if r["ok"] != 1]
    assert not failed, failed
    print(f"paper records OK: {len(PAPER_EXPERIMENTS)} experiments, "
          f"{len(rows)} rows, {len(checks)} checks")


CHECKS = {"trace": check_trace, "overhead": check_overhead,
          "service": check_service, "records": check_records,
          "paper": check_paper}

if __name__ == "__main__":
    if len(sys.argv) not in (2, 3) or sys.argv[1] not in CHECKS:
        sys.exit(__doc__)
    CHECKS[sys.argv[1]](sys.argv[2] if len(sys.argv) == 3 else ".")
