#!/usr/bin/env python3
"""Check flow-vs-PF DMA byte conservation in a Prometheus export.

Every byte a device DMAs is counted twice: per PCIe function
(dma_local_bytes / dma_remote_bytes {dev, pf, node}) and per flow by the
device's DmaAccountant (flow_dma_local_bytes / flow_dma_remote_bytes
{dev, flow}, with evicted flows folded into flow="~other"). For every
(dev, run) that has PF-grain rows, the flow rows including ~other must
sum to exactly the PF totals, for local and remote bytes alike.

Devices without PF rows are skipped: a bypass poll plane's accountant
(dev="<nic>.poll") counts at delivery and has no PF of its own.

Usage: check_flow_conservation.py <metrics.prom>
Exit code 0 when every checked (dev, run) balances; 1 otherwise.
"""

import re
import sys
from collections import defaultdict

SERIES = re.compile(r"^([A-Za-z_:][A-Za-z0-9_:]*)(?:\{(.*)\})?\s+(\S+)$")
LABEL = re.compile(r'([A-Za-z_][A-Za-z0-9_]*)="((?:[^"\\]|\\.)*)"')

KINDS = ("local", "remote")


def parse(path):
    """Yield (name, labels, value) for every sample line."""
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            m = SERIES.match(line)
            if m is None:
                raise ValueError(f"unparsable line: {line}")
            name, labels, value = m.groups()
            yield name, dict(LABEL.findall(labels or "")), value


def main():
    if len(sys.argv) != 2:
        print(__doc__)
        return 2

    pf = defaultdict(lambda: dict.fromkeys(KINDS, 0))
    flow = defaultdict(lambda: dict.fromkeys(KINDS, 0))
    for name, labels, value in parse(sys.argv[1]):
        for kind in KINDS:
            grain = {f"dma_{kind}_bytes": pf,
                     f"flow_dma_{kind}_bytes": flow}.get(name)
            if grain is not None:
                key = (labels.get("dev", ""), labels.get("run", ""))
                grain[key][kind] += int(value)

    if not pf:
        print("FAIL: no PF-grain dma_*_bytes rows")
        return 1
    rc = 0
    for dev, run in sorted(pf):
        want, got = pf[(dev, run)], flow.get((dev, run))
        where = f"dev={dev} run={run or '-'}"
        if got is None:
            print(f"FAIL: {where}: PF rows but no flow rows")
            rc = 1
            continue
        bad = [k for k in KINDS if got[k] != want[k]]
        for kind in bad:
            print(f"FAIL: {where}: flow {kind} bytes {got[kind]} != "
                  f"PF {kind} bytes {want[kind]}")
            rc = 1
        if not bad:
            print(f"ok: {where}: local {want['local']} remote "
                  f"{want['remote']}")
    skipped = sorted({d for d, _ in flow} - {d for d, _ in pf})
    if skipped:
        print(f"skipped (no PF rows): {', '.join(skipped)}")
    return rc


if __name__ == "__main__":
    sys.exit(main())
