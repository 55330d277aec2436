#!/usr/bin/env python3
"""Check the zipf-steering quick matrix outputs.

Validates that monitored steering beats reactive steering on local-byte
share and goodput for every preset, that monitored runs carry region
snapshots (report schema v2) and the access-monitor tracks, and that
the monitor's self-cost counters are exported.

Usage: check_zipf_steering.py [DIR]

Reads zipf_steering.csv, zipf_steering_metrics.prom,
zipf_steering_report.json from DIR (default: the current directory), as
written by running, in DIR:

    OCTO_ZIPF_QUICK=1 OCTO_SAMPLE_ACCMON=1 bench_zipf_steering --sample-us 1000

Exits nonzero with an AssertionError on the first failed check.
"""

import csv
import json
import os
import sys

os.chdir(sys.argv[1] if len(sys.argv) > 1 else ".")

# Scheme payoff: monitored beats reactive on local-byte
# share and goodput on every preset in the quick matrix.
rows = list(csv.DictReader(open("zipf_steering.csv")))
assert rows, "no csv rows"
by_preset = {}
for r in rows:
    by_preset.setdefault(r["preset"], {})[r["scheme"]] = r
for preset, schemes in by_preset.items():
    mon, rea = schemes["monitored"], schemes["reactive"]
    assert float(mon["local_share"]) > \
        float(rea["local_share"]), (preset, mon, rea)
    assert float(mon["gbps"]) > float(rea["gbps"]), \
        (preset, mon, rea)
    assert int(mon["promotions"]) > 0, mon
    assert int(mon["regions"]) > 1, mon
    print(f"{preset}: local {rea['local_share']} -> "
          f"{mon['local_share']}, gbps {rea['gbps']} -> "
          f"{mon['gbps']} ok")

# The traced run carries region snapshots (schema v2) for
# monitored runs only, with sane rows, and the
# OCTO_SAMPLE_ACCMON watch tracks stream alongside them.
report = json.load(open("zipf_steering_report.json"))
assert report["schema"] == "octo.report.v2", report["schema"]
monitored = 0
for r in report["runs"]:
    samples = (r.get("regions") or {}).get("samples", [])
    names = {s["name"] for s in r["series"]}
    if r["run"].endswith("/reactive"):
        assert not samples, r["run"]
        assert "accmon_regions" not in names, r["run"]
        continue
    assert samples, f"{r['run']}: no region snapshots"
    assert "accmon_regions" in names, (r["run"], names)
    assert "accmon_scheme_applied_per_s" in names, names
    regions = next(s for s in r["series"]
                   if s["name"] == "accmon_regions")
    assert max(regions["values"]) > 1, regions["values"]
    monitored += 1
    for snap in samples:
        assert snap["rows"], snap
        for row in snap["rows"]:
            assert row["lo"] <= row["hi"], row
            assert row["rate_gbps"] >= 0.0, row
assert monitored >= 2, "expected both monitored presets"
print(f"report v2 ok: {monitored} runs with snapshots")

# Monitor self-cost counters exported by the registry.
prom = open("zipf_steering_metrics.prom").read()
for metric in ("accmon_records_total",
               "accmon_overhead_ns_total",
               "accmon_intervals_total"):
    assert metric in prom, metric
print("accmon counter tracks ok")
