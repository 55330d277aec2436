#!/usr/bin/env python3
"""Check the chaos-soak quick sweep report.

Validates that the invariant oracle stayed green on every sweep row
of both presets, that the prober beats the blind presets by 2x under
a gray PF, and that the last-resort run kept traffic moving with every
steering weight at zero.

Usage: check_chaos_soak.py [DIR]

Reads chaos_soak_report.json from DIR (default: the current directory),
as written by running, in DIR:

    OCTO_CHAOS_QUICK=1 bench_chaos_soak

Exits nonzero with an AssertionError on the first failed check.
"""

import json
import os
import sys

os.chdir(sys.argv[1] if len(sys.argv) > 1 else ".")

report = json.load(open("chaos_soak_report.json"))
rows = report["rows"]
assert rows, "no sweep rows"
for r in rows:
    assert r["oracle_checks"] > 100, r
    assert r["oracle_violations"] == 0, r
presets = {r["preset"] for r in rows}
assert {"ioctopus", "ioctopus-poll"} <= presets, presets
print(f"sweep ok: {len(rows)} rows, oracle green, "
      f"presets {sorted(presets)}")

gray = report["gray_contrast"]
assert gray["stock_state_healthy"], gray
assert gray["stock_external_demotions"] == 0, gray
assert gray["prober_demotions"] > 0, gray
for blind in ("plain_gbps", "stock_gbps"):
    ratio = gray["probed_gbps"] / gray[blind]
    assert ratio >= 2.0, f"{blind}: ratio {ratio:.2f} < 2"
print(f"gray contrast ok: probed {gray['probed_gbps']} vs "
      f"plain {gray['plain_gbps']} / stock {gray['stock_gbps']}")

lr = report["last_resort"]
assert lr["sick_window_gbps"] > 0, lr
assert lr["all_weights_zero_seen"], lr
assert lr["oracle_violations"] == 0, lr
print(f"last resort ok: {lr['sick_window_gbps']} Gb/s with "
      f"all weights zero")
