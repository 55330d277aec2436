#!/usr/bin/env python3
"""Check the traced fig06 and tx_retention outputs.

Validates the Perfetto traces' event shape, the sampled counter tracks
and report of fig06, the ioctopus run's DMA locality in its metric
export, and the end-to-end latency penalty of the remote preset.

Usage: check_obs_output.py [DIR]

Reads fig06_metrics.prom, fig06_report.json, fig06_trace.json,
tx_retention_trace.json from DIR (default: the current directory), as
written by running, in DIR:

    bench_fig06_tcp_rx --trace --sample-us 1000
    bench_tx_retention --trace

Exits nonzero with an AssertionError on the first failed check.
"""

import json
import os
import sys

os.chdir(sys.argv[1] if len(sys.argv) > 1 else ".")

for path in ("fig06_trace.json", "tx_retention_trace.json"):
    doc = json.load(open(path))
    events = doc["traceEvents"]
    assert events, f"{path}: no events"
    for e in events:
        assert "ph" in e and "pid" in e and "name" in e, e
        if e["ph"] in ("X", "i"):
            assert "ts" in e and "tid" in e, e
        if e["ph"] == "C":
            assert "value" in e["args"], e
    print(f"{path}: {len(events)} events ok")

# The sampled run must carry counter tracks for throughput,
# QPI crossings, and per-PF health.
doc = json.load(open("fig06_trace.json"))
tracks = {e["name"] for e in doc["traceEvents"]
          if e["ph"] == "C"}
for want in ("rx_gbps", "qpi_gbps", "qpi_crossings_per_s",
             "pf0_health_weight"):
    assert want in tracks, f"missing counter track {want}"
print(f"counter tracks ok: {sorted(tracks)}")

report = json.load(open("fig06_report.json"))
assert report["schema"] == "octo.report.v1", report["schema"]
runs = {r["run"] for r in report["runs"]}
assert {"local", "remote", "ioctopus"} <= runs, runs
for r in report["runs"]:
    assert r["series"], f"{r['run']}: no series"
    for s in r["series"]:
        assert len(s["values"]) == len(r["time_ms"]), s["name"]
    names = {s["name"] for s in r["series"]}
    assert "rx_gbps" in names, names
print(f"report ok: {len(report['runs'])} runs")

local = remote = 0
e2e = {}
for line in open("fig06_metrics.prom"):
    if 'dev="octoNIC"' not in line:
        continue
    name, value = line.rsplit(" ", 1)
    for run in ("remote", "ioctopus"):
        if f'run="{run}"' in line:
            if name.startswith("latency_e2e_ns_sum"):
                e2e.setdefault(run, {})["sum"] = float(value)
            elif name.startswith("latency_e2e_ns_count"):
                e2e.setdefault(run, {})["count"] = int(value)
    if 'run="ioctopus"' not in line:
        continue
    if name.startswith("dma_local_bytes"):
        local += int(value)
    elif name.startswith("dma_remote_bytes"):
        remote += int(value)
total = local + remote
assert total > 0, "no octoNIC DMA bytes in the ioctopus run"
frac = local / total
assert frac >= 0.99, f"ioctopus local fraction {frac:.4f} < 0.99"
assert remote / total <= 0.05, f"remote bytes {remote} too high"
print(f"ioctopus locality ok: {frac:.4%} local")

# End-to-end latency must show the NUDMA penalty.
means = {run: v["sum"] / v["count"] for run, v in e2e.items()}
assert means["remote"] > means["ioctopus"], means
print(f"e2e latency ok: remote {means['remote']:.0f} ns > "
      f"ioctopus {means['ioctopus']:.0f} ns")
