#!/usr/bin/env python3
"""Check the traced kernel-bypass bench outputs.

Validates that the polled presets carry their own throughput tracks
and report runs, and that ioctopus-poll beats remote-poll on p99
request-response latency at every size.

Usage: check_bypass_output.py [DIR]

Reads bypass_pktgen_report.json, bypass_pktgen_trace.json,
bypass_rr.csv, bypass_rr_report.json, bypass_rr_trace.json from DIR
(default: the current directory), as written by running, in DIR:

    bench_bypass_pktgen --trace --sample-us 1000
    bench_bypass_rr --trace --sample-us 1000

Exits nonzero with an AssertionError on the first failed check.
"""

import csv
import json
import os
import sys

os.chdir(sys.argv[1] if len(sys.argv) > 1 else ".")

# The polled presets must carry their own throughput tracks.
for path in ("bypass_pktgen_trace.json",
             "bypass_rr_trace.json"):
    doc = json.load(open(path))
    tracks = {e["name"] for e in doc["traceEvents"]
              if e["ph"] == "C"}
    for want in ("poll_rx_gbps", "poll_tx_gbps"):
        assert want in tracks, \
            f"{path}: missing counter track {want}"
    print(f"{path}: counter tracks ok {sorted(tracks)}")

for path in ("bypass_pktgen_report.json",
             "bypass_rr_report.json"):
    report = json.load(open(path))
    assert report["schema"] == "octo.report.v1"
    runs = {r["run"] for r in report["runs"]}
    assert {"local-poll", "remote-poll",
            "ioctopus-poll"} <= runs, runs
    print(f"{path}: {sorted(runs)} ok")

# The latency claim: busy-polling exposes the NUDMA term, and
# steering the descriptors home closes it.
p99 = {}
for row in csv.DictReader(open("bypass_rr.csv")):
    p99.setdefault(row["preset"], {})[int(row["bytes"])] = \
        float(row["p99_us"])
for size, remote in sorted(p99["remote-poll"].items()):
    ioct = p99["ioctopus-poll"][size]
    assert remote > ioct, \
        f"{size}B: remote-poll p99 {remote} <= " \
        f"ioctopus-poll p99 {ioct}"
    print(f"{size}B rr p99 ok: remote-poll {remote:.3f} us"
          f" > ioctopus-poll {ioct:.3f} us")
