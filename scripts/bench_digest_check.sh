#!/bin/sh
# bench_digest_check.sh FILE
#
# Validates a BENCH_service.json produced by
# `vrm-cli bench-serve --json FILE`: schema shape, per-lane p50/p90/p99
# presence and ordering, digest parity between the hot-tier-on serving
# path and direct in-process runs, zero unexplained sheds (interactive
# submissions must never be shed by bulk load), the warm-path speedup
# gate (hot tier >= 5x faster than the disk tier at p50), and the
# bounded-interactive-tail gate. Latency magnitudes are machine noise
# and are never compared; only invariants of the serving design are.
set -eu

cd "$(dirname "$0")/.."

SERVICE_JSON="${1:?usage: bench_digest_check.sh FILE}"
python3 - "$SERVICE_JSON" <<'EOF'
import json, sys

with open(sys.argv[1]) as f:
    b = json.load(f)

def die(msg):
    sys.exit(f"BENCH_service.json: {msg}")

if b.get("schema") != "vrm-bench-service":
    die(f"unexpected schema {b.get('schema')!r}")

for lane in ("interactive", "bulk"):
    l = b.get("lanes", {}).get(lane)
    if l is None:
        die(f"missing lane section {lane!r}")
    for k in ("requests", "completed", "shed", "errors",
              "p50_ms", "p90_ms", "p99_ms"):
        if k not in l:
            die(f"lanes.{lane} missing {k!r}")
    if not (l["p50_ms"] <= l["p90_ms"] <= l["p99_ms"]):
        die(f"lanes.{lane} percentiles not monotone: "
            f"{l['p50_ms']}/{l['p90_ms']}/{l['p99_ms']}")
    if l["errors"] != 0:
        die(f"lanes.{lane} had {l['errors']} protocol/transport errors")
    acct = l["completed"] + l["shed"] + l["errors"]
    if acct != l["requests"]:
        die(f"lanes.{lane} accounting: {acct} outcomes "
            f"for {l['requests']} requests")

for k in ("throughput_rps", "hot_hit_ratio", "shed_total",
          "unexplained_sheds", "warm_path"):
    if k not in b:
        die(f"missing top-level key {k!r}")

if not b.get("digest_parity"):
    die("digest parity failed: served payloads differ from "
        "direct in-process runs")
if b.get("parity_checked", 0) < 1:
    die("digest parity was never actually checked")
if b["unexplained_sheds"] != 0:
    die(f"{b['unexplained_sheds']} interactive submissions were shed "
        "(the reserved-worker + strict-priority design must keep the "
        "interactive lane admissible under bulk load)")
wp = b["warm_path"]
if wp["speedup"] < 5.0:
    die(f"hot-tier warm path only {wp['speedup']:.1f}x faster than the "
        f"disk tier at p50 (gate: >= 5x); hot {wp['hot_p50_us']}us vs "
        f"disk {wp['disk_p50_us']}us")
if not b.get("interactive_bounded"):
    die("interactive p99 was not bounded by the bulk p99 while the "
        "bulk lane was saturated")

i, u = b["lanes"]["interactive"], b["lanes"]["bulk"]
print(f"service bench ok: {b['requests']} requests, "
      f"{b['throughput_rps']:.0f} req/s, "
      f"interactive p50/p99 {i['p50_ms']:.2f}/{i['p99_ms']:.2f} ms "
      f"({i['shed']} shed), "
      f"bulk p50/p99 {u['p50_ms']:.2f}/{u['p99_ms']:.2f} ms "
      f"({u['shed']} shed), "
      f"hot hit ratio {b['hot_hit_ratio']:.2f}, "
      f"warm path {wp['speedup']:.0f}x over disk, digest parity ok")
EOF
