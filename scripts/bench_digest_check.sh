#!/bin/sh
# Two modes:
#
#   bench_digest_check.sh                    (default, engine mode)
#   bench_digest_check.sh --service FILE     (service mode)
#
# Service mode validates a BENCH_service.json produced by
# `vrm-cli bench-serve --json FILE`: schema shape, per-lane p50/p90/p99
# presence and ordering, digest parity between the hot-tier-on serving
# path and direct in-process runs, zero unexplained sheds (interactive
# submissions must never be shed by bulk load), the warm-path speedup
# gate (hot tier >= 5x faster than the disk tier at p50), and the
# bounded-interactive-tail gate. Latency magnitudes are machine noise
# and are never compared; only invariants of the serving design are.
#
# Engine mode: regenerate BENCH_engine.json via `make bench-smoke` and fail if any
# refinement-sweep behavior digest differs from the digests committed in
# the repository, if a sweep's visited-state count (or, for sequential
# sweeps, its POR-pruned count) differs from the committed one, if the
# thread-symmetry section lost digest parity or its N=4 state-cut gate,
# or if the frontier scheduler failed its scaling gate.
# scaling_ok is three-valued as of vrm-bench-engine/4: "true" (jobs=4
# speedup >= 1.3x on a >=4-domain machine), "false" (it was not), or
# "skipped" (machine has <4 domains, so the comparison was never run —
# recorded distinctly from "true" so a skipped gate cannot masquerade as
# a passed one). Set VRM_BENCH_ALLOW_NO_SCALING=1 to downgrade a scaling
# failure to a warning (digest drift always fails). Digests are
# deterministic functions of the behavior sets; wall-clock numbers are
# machine noise and are never compared.
set -eu

cd "$(dirname "$0")/.."

if [ "${1:-}" = "--service" ]; then
    SERVICE_JSON="${2:?usage: bench_digest_check.sh --service FILE}"
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
    exit 0
fi

committed=$(mktemp)
trap 'rm -f "$committed"' EXIT
git show HEAD:BENCH_engine.json > "$committed"

make bench-smoke

python3 - "$committed" BENCH_engine.json <<'EOF'
import json, os, sys

with open(sys.argv[1]) as f:
    old_sweeps = {s["label"]: s for s in json.load(f)["refinement_sweep"]}
with open(sys.argv[2]) as f:
    fresh = json.load(f)
old = {label: s["digest"] for label, s in old_sweeps.items()}
new = {s["label"]: s["digest"] for s in fresh["refinement_sweep"]}

bad = False
for label, digest in new.items():
    ref = old.get(label)
    if ref is None:
        print(f"NEW SWEEP (no committed digest): {label}")
        continue
    if digest != ref:
        bad = True
        print(f"MISMATCH {label}: fresh {digest}, committed {ref}")
    else:
        print(f"ok       {label}: {digest}")
for label in sorted(set(old) - set(new)):
    bad = True
    print(f"MISSING SWEEP: {label}")

if bad:
    sys.exit("bench digests differ from the committed BENCH_engine.json")
print("all sweep digests match the committed BENCH_engine.json")

# Visited-count gate: a state-key change that merged distinct states
# (or split equal ones) can keep every digest yet visit a different
# number of states. Visited counts are deterministic at any jobs;
# POR-pruned counts only in sequential sweeps (under parallel search
# the sleep sets a state is reached with depend on the schedule).
for s in fresh["refinement_sweep"]:
    ref = old_sweeps.get(s["label"])
    if ref is None:
        continue
    keys = ["visited"] + (["por_pruned"] if s["jobs"] == 1 else [])
    for k in keys:
        if s[k] != ref[k]:
            bad = True
            print(f"MISMATCH {s['label']} {k}: fresh {s[k]}, "
                  f"committed {ref[k]}")
if bad:
    sys.exit("sweep state counts differ from the committed BENCH_engine.json")
print("all sweep visited/por_pruned counts match the committed "
      "BENCH_engine.json")

# Thread-symmetry gate (vrm-bench-engine/5): every sym-stress row must
# be digest-equal sym-on vs sym-off, the ownership checker must agree,
# and at N=4 every model must cut visited states by at least 5x. These
# are determinism properties of the orbit canonicalization, not timing,
# so they are hard failures on any machine.
sym = fresh.get("symmetry")
if sym is None:
    sys.exit("BENCH_engine.json has no symmetry section "
             "(expected schema vrm-bench-engine/5 or later)")
unequal = [f"{r['name']}/{r['model']}" for r in sym["rows"]
           if not r["digest_equal"]]
if unequal:
    sys.exit("symmetry reduction changed behavior sets: "
             + ", ".join(unequal))
if not sym["pushpull_equal"]:
    sys.exit("symmetry reduction changed a pushpull verdict "
             "on the sym-stress family")
n4 = [r for r in sym["rows"] if r["name"] == "sym-stress-4"]
if not n4:
    sys.exit("symmetry section has no sym-stress-4 rows")
weak = [f"{r['model']} {r['ratio']:.2f}x" for r in n4 if r["ratio"] < 5.0]
if weak:
    sys.exit("symmetry state cut below 5x at N=4: " + ", ".join(weak))
print(f"symmetry: {len(sym['rows'])} rows digest-equal; "
      f"N=4 min cut {min(r['ratio'] for r in n4):.2f}x")

speedup = fresh.get("speedup_jobs4_vs_seq")
domains = fresh.get("domains")
print(f"scaling: jobs=4 speedup {speedup:.2f}x on {domains} domains")
# vrm-bench-engine/4 records scaling_ok as "true" / "false" / "skipped";
# schema /3 and earlier used a boolean (vacuously true under 4 domains).
verdict = fresh.get("scaling_ok", "true")
if verdict == "skipped" or verdict is True and domains is not None and domains < 4:
    print(f"scaling: skipped ({domains} hardware domains < 4; not a pass)")
elif verdict in ("false", False):
    msg = (f"scaling_ok:false — jobs=4 speedup {speedup:.2f}x < 1.30x "
           f"on a {domains}-domain machine")
    if os.environ.get("VRM_BENCH_ALLOW_NO_SCALING"):
        print(f"WARNING (overridden by VRM_BENCH_ALLOW_NO_SCALING): {msg}")
    else:
        sys.exit(msg)
else:
    print("scaling: ok")
EOF
