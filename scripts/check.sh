#!/usr/bin/env sh
# Smoke gate: build, full test suite, and a quick bench pass that
# exercises the JSON artifact pipeline end to end. Run from anywhere;
# artifacts land in a throwaway directory.
set -eu

cd "$(dirname "$0")/.."

echo "== dune build =="
dune build

# odoc is optional in the dev image; build the docs only when present.
if command -v odoc >/dev/null 2>&1; then
  echo "== dune build @doc =="
  dune build @doc
else
  echo "== dune build @doc skipped (odoc not installed) =="
fi

echo "== dune runtest =="
dune runtest

echo "== bench smoke (E1 E6 E14, JSON artifacts) =="
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
# E1 exercises the single-SA harness path, E6 the SAVE-interval rule,
# E14 the unified Endpoint/Host datapath plus the domain sweep: the
# same workloads at 1 and 2 domains, diffed below. Smoke sizes keep the
# sweep fast; the committed artifact uses the full 256/1024/4096 sweep
# and the full 100k/1M scale sweep.
dune exec bench/main.exe -- E1 E6 E14 --json="$out" \
  --domains=1,2 --sweep-sizes=64,256,1024 --scale-sizes=512,2048

for f in BENCH_E1.json BENCH_E6.json BENCH_E14.json; do
  test -s "$out/$f" || { echo "missing artifact $f" >&2; exit 1; }
  grep -q '"pass": true' "$out/$f" || { echo "$f reports pass=false" >&2; exit 1; }
  if command -v python3 >/dev/null 2>&1; then
    python3 -m json.tool "$out/$f" >/dev/null \
      || { echo "$f is not valid JSON" >&2; exit 1; }
  fi
done

echo "== multicore determinism gate (E14 domain sweep) =="
# The bench already fails its own artifact on a protocol mismatch; this
# re-derives the verdict from the JSON so the gate also catches a bench
# that silently stopped recording the sweep. Protocol fields must be
# byte-identical between the 1-domain and 2-domain rows of every size.
if command -v python3 >/dev/null 2>&1; then
  python3 - "$out/BENCH_E14.json" <<'PY'
import json, sys

with open(sys.argv[1]) as f:
    doc = json.load(f)
PROTOCOL = ("delivered", "messages_lost", "replay_accepted",
            "duplicate_deliveries", "recovered_fully", "ready_s",
            "recovery_s")
bad = False
for table in ("domain_sweep", "scale_sweep"):
    rows = doc["measured"].get(table, [])
    if not rows:
        sys.exit(f"BENCH_E14.json has no {table} rows")
    by_size = {}
    for r in rows:
        by_size.setdefault(r["sa_count"], {})[r["domains"]] = \
            tuple(r[k] for k in PROTOCOL)
    for n, per_d in sorted(by_size.items()):
        sigs = set(per_d.values())
        if len(sigs) != 1:
            bad = True
            print(f"{table}: {n} SAs: protocol outcome differs across "
                  "domain counts:", file=sys.stderr)
            for d, s in sorted(per_d.items()):
                print(f"  domains={d}: {dict(zip(PROTOCOL, s))}",
                      file=sys.stderr)
        else:
            ds = ",".join(str(d) for d in sorted(per_d))
            print(f"{table}: {n} SAs: identical protocol outcome at "
                  f"domains {ds}")
sys.exit(1 if bad else 0)
PY
else
  echo "python3 missing: relying on the in-bench determinism check only"
fi

# Throughput gate: 2 domains should beat 1 by >= 1.3x on the 1024-SA
# row — but only where the hardware can possibly deliver it. On a
# single-core runner the determinism gates above still bind; speedup
# is a property of the machine, not the code.
ncores=$( (nproc || getconf _NPROCESSORS_ONLN) 2>/dev/null || echo 1)
if [ "$ncores" -ge 2 ] && command -v python3 >/dev/null 2>&1; then
  python3 - "$out/BENCH_E14.json" <<'PY'
import json, sys

with open(sys.argv[1]) as f:
    doc = json.load(f)
rows = doc["measured"].get("domain_sweep", [])
s = [r["speedup_vs_1_domain"] for r in rows
     if r["sa_count"] == 1024 and r["domains"] == 2]
if not s:
    sys.exit("no 1024-SA 2-domain row in the sweep")
if s[0] < 1.3:
    sys.exit(f"1024 SAs at 2 domains: {s[0]:.2f}x speedup, gate is 1.3x")
print(f"1024 SAs at 2 domains: {s[0]:.2f}x speedup (gate 1.3x)")
PY
else
  echo "speedup gate skipped (cores=$ncores, needs >= 2 and python3)"
fi

echo "== chaos smoke gate (fixed seeds, invariant monitor) =="
# A small fixed batch of random fault schedules (resets, burst loss,
# disk faults, adversary) under the invariant monitor. Three binds:
# the stock protocol must hold on every seed (exit 0), the run must be
# deterministic (same seeds, same JSON report minus nothing — the
# whole report is re-diffed), and the deliberately weakened --weak-leap
# receiver must yield a violation the shrinker minimizes (exit 2).
dune exec bin/ipsec_resets.exe -- chaos --seeds 25 --quiet \
  --json "$out/chaos-a.json" \
  || { echo "stock chaos batch reported violations" >&2; exit 1; }
dune exec bin/ipsec_resets.exe -- chaos --seeds 25 --quiet \
  --json "$out/chaos-b.json" \
  || { echo "stock chaos batch reported violations on re-run" >&2; exit 1; }
cmp -s "$out/chaos-a.json" "$out/chaos-b.json" \
  || { echo "chaos batch is not deterministic across re-runs" >&2; exit 1; }
echo "stock: 25 seeds clean, re-run byte-identical"
if dune exec bin/ipsec_resets.exe -- chaos --seeds 25 --weak-leap --quiet \
    --json "$out/chaos-weak.json"; then
  echo "weak-leap chaos batch found no violation (expected one)" >&2; exit 1
fi
grep -q '"shrink_runs"' "$out/chaos-weak.json" \
  || { echo "weak-leap report carries no shrunk counterexample" >&2; exit 1; }
grep -q '"replay_identical": true' "$out/chaos-weak.json" \
  || { echo "weak-leap counterexample did not replay identically" >&2; exit 1; }
echo "weak leap: violation found, shrunk, replay-identical"
# Stealth mode judges each schedule against a paired attack-free
# oracle: slow disks plus phase-locked forced resets must degrade
# goodput somewhere in 15 seeds, and the shrinker must minimize the
# degradation to a replay-identical counterexample (exit 2).
if dune exec bin/ipsec_resets.exe -- chaos --seeds 15 --stealth --quiet \
    --json "$out/chaos-stealth.json"; then
  echo "stealth chaos batch found no degradation (expected some)" >&2; exit 1
fi
grep -q '"shrink_runs"' "$out/chaos-stealth.json" \
  || { echo "stealth report carries no shrunk counterexample" >&2; exit 1; }
grep -q '"replay_identical": true' "$out/chaos-stealth.json" \
  || { echo "stealth counterexample did not replay identically" >&2; exit 1; }
grep -q '"goodput-degraded"' "$out/chaos-stealth.json" \
  || { echo "stealth report carries no goodput-degraded violation" >&2; exit 1; }
echo "stealth: degradation found, shrunk, replay-identical"

echo "== static-policy compatibility gate (BENCH_E1 byte-identity) =="
# The K policy refactor must leave the fault-free Static path
# byte-identical: the E1 artifact regenerated by the bench smoke above
# has to match the committed one on every protocol field. Only
# machine-dependent timing fields (wall clock, throughput, speedup)
# are stripped before the diff.
if command -v python3 >/dev/null 2>&1; then
  python3 - BENCH_E1.json "$out/BENCH_E1.json" <<'PY'
import json, sys

MACHINE = {"wall_clock_s", "wall_clock_ns", "events_per_sec",
           "speedup_vs_1_domain", "pps_per_core",
           "shard_events_per_sec_min", "shard_events_per_sec_max"}

def strip(x):
    if isinstance(x, dict):
        return {k: strip(v) for k, v in x.items() if k not in MACHINE}
    if isinstance(x, list):
        return [strip(v) for v in x]
    return x

a, b = (strip(json.load(open(p))) for p in sys.argv[1:3])
if a != b:
    sys.exit("regenerated BENCH_E1.json differs from the committed "
             "artifact on a protocol field: the Static policy path is "
             "no longer byte-compatible")
print("regenerated E1 identical to the committed artifact "
      "(machine-dependent fields stripped)")
PY
else
  echo "byte-identity gate skipped (python3 missing)"
fi

echo "== adaptive-K frontier gate (E16, stealth attacks) =="
# The goodput-vs-oracle frontier: {static, adaptive} x {stealth
# attacks} x {disk fault plans}, each cell judged against a paired
# attack-free oracle replay of the same seed. The bench fails its own
# artifact on any broken claim; this re-derives the headline verdicts
# from the JSON so a bench that silently stopped checking cannot pass.
dune exec bench/main.exe -- E16 --json="$out"
test -s "$out/BENCH_E16.json" || { echo "missing BENCH_E16.json" >&2; exit 1; }
grep -q '"pass": true' "$out/BENCH_E16.json" \
  || { echo "BENCH_E16.json reports pass=false" >&2; exit 1; }
if command -v python3 >/dev/null 2>&1; then
  python3 - "$out/BENCH_E16.json" <<'PY'
import json, sys

with open(sys.argv[1]) as f:
    doc = json.load(f)
rows = doc["measured"]["frontier"]
if not rows:
    sys.exit("BENCH_E16.json has no frontier rows")
cell = {(r["policy"], r["attack"], r["disk"]): r for r in rows}

bad = []
# Attack-free paired runs must be bit-identical to their oracle.
for r in rows:
    if r["attack"] == "none" and r["goodput_ratio"] != 1.0:
        bad.append(f"attack-free {r['policy']}/{r['disk']}: "
                   f"ratio {r['goodput_ratio']} != 1.0")
# Stealth attacks inject nothing: every clean-disk cell, and every
# adaptive cell on any disk, must be invariant-clean.
for r in rows:
    if r["disk"] == "clean" and r["violations"]:
        bad.append(f"clean-disk {r['policy']}/{r['attack']}: "
                   f"{r['violations']} violations")
    if r["policy"] == "adaptive" and r["violations"]:
        bad.append(f"adaptive {r['attack']}/{r['disk']}: "
                   f"{r['violations']} violations")
# The frontier separation: under SAVE-window drop on the slow disk,
# static-K degrades hard while adaptive-K holds most of the oracle.
st = cell[("static", "save-drop", "slow")]["goodput_ratio"]
ad = cell[("adaptive", "save-drop", "slow")]["goodput_ratio"]
if not st < 0.75:
    bad.append(f"static save-drop/slow no longer degrades: ratio {st:.3f}")
if not ad >= 0.6:
    bad.append(f"adaptive save-drop/slow below the 0.6 gate: {ad:.3f}")
if not ad > st + 0.05:
    bad.append(f"adaptive ({ad:.3f}) does not beat static ({st:.3f})")
if bad:
    sys.exit("E16 frontier gate failed:\n  " + "\n  ".join(bad))
print(f"frontier holds: save-drop/slow static {st:.3f} vs "
      f"adaptive {ad:.3f}; attack-free ratio 1.0; adaptive "
      "invariant-clean on every cell")
PY
else
  echo "frontier re-derivation skipped (python3 missing): in-bench checks only"
fi

echo "== K-floor and stealth CLI gate =="
# --k auto and the safety-floor rejection on the run CLI, plus one
# stealth paired run: the attack must cost goodput without tripping
# the invariant monitor (it injects nothing).
if dune exec bin/ipsec_resets.exe -- run --kp 3 --save-latency 200 --gap 4 \
    >/dev/null 2>&1; then
  echo "run accepted --kp 3 below the derived floor (expected rejection)" >&2
  exit 1
fi
dune exec bin/ipsec_resets.exe -- run --kp auto --kq auto \
  --save-latency 200 --gap 4 --json >"$out/run-auto.json" \
  || { echo "run --kp auto failed" >&2; exit 1; }
echo "floor rejection and --kp auto behave"
# Exit 2 is the convergence verdict saying the attack hurt (expected
# here); only a usage/internal error (1, 124) fails the gate.
rc=0
dune exec bin/ipsec_resets.exe -- run --attack stealth-save-drop@5 \
  --paired --json >"$out/run-stealth.json" || rc=$?
case $rc in
  0|2) ;;
  *) echo "stealth paired run errored (exit $rc)" >&2; exit 1 ;;
esac
if command -v python3 >/dev/null 2>&1; then
  python3 - "$out/run-stealth.json" <<'PY'
import json, sys

with open(sys.argv[1]) as f:
    doc = json.load(f)
ratio = doc["goodput_ratio"]
violations = doc["primary"]["violations"]
if violations:
    sys.exit(f"stealth save-drop tripped the invariant monitor: {violations}")
if not ratio < 1.0:
    sys.exit(f"stealth save-drop cost no goodput (ratio {ratio})")
print(f"stealth save-drop: goodput ratio {ratio:.3f}, invariant-clean")
PY
else
  grep -q '"violations": \[\]' "$out/run-stealth.json" \
    || { echo "stealth paired run reports violations" >&2; exit 1; }
fi

echo "== allocation-regression gate (MICRO) =="
dune exec bench/main.exe -- MICRO --json="$out" >/dev/null
test -s "$out/BENCH_MICRO.json" || { echo "missing BENCH_MICRO.json" >&2; exit 1; }
# Informational, not gated: which SHA-256 kernel the timings ran on
# (sha-ni, portable-c, or ocaml under RESETS_NO_ACCEL).
kernel=$(sed -n 's/.*"sha256_kernel": "\([a-z-]*\)".*/\1/p' "$out/BENCH_MICRO.json" | head -n 1)
echo "sha256 kernel: ${kernel:-unreported}"

# Budgets: minor-heap words allocated per packet on the codec hot
# paths, ~1.8x the steady-state numbers committed with the zero-copy
# refactor (encap 49, decap 60 at 256 B). A regression here means a
# copy or a boxed intermediate crept back into the per-packet path.
alloc_gate() {
  op=$1; budget=$2
  words=$(awk -v op="micro/$op" '
    $0 ~ "\"operation\": \"" op "\"" { hot = 1 }
    hot && /"minor_words_per_packet":/ {
      gsub(/[ ,]/, "", $2); print $2; exit
    }' "$out/BENCH_MICRO.json")
  test -n "$words" || { echo "no minor_words_per_packet for $op" >&2; exit 1; }
  if awk -v w="$words" -v b="$budget" 'BEGIN { exit !(w > b) }'; then
    echo "allocation regression: $op allocates $words minor words/packet (budget $budget)" >&2
    exit 1
  fi
  echo "$op: $words minor words/packet (budget $budget)"
}
alloc_gate esp-encap-256B 90
alloc_gate esp-decap-256B 110
# The batched wire path's per-frame codec work (syscalls excluded):
# encap straight into a tx-pool slot, decap straight out of an rx-arena
# slot. Steady state is 0 / 9 minor words per frame (the 9 are decap's
# result: Ok, the (seq, payload) pair and the payload slice); the
# budgets are ~2x that, and 1 for the allocation-free encap. A
# regression means a string or boxed intermediate (an int64 header
# write, a per-packet HMAC context) crept back into the zero-copy
# datapath.
alloc_gate esp-encap-into-256B 1
alloc_gate esp-decap-slice-256B 18
# The engine tick loop: one timer-wheel event (fire + self-reschedule)
# allocates ~16 words steady state; anything past 20 means a boxed
# deadline, a closure, or a list node crept into the per-event path.
alloc_gate engine-wheel-event 20
# Flat-SADB replay admission must stay allocation-free like the other
# window backends (budget 1 tolerates measurement jitter, not boxing).
alloc_gate window-admit-flat 1

echo "== batched wire sweep gate (MICRO wire table) =="
# Re-derive the wire sweep verdicts from the JSON: rows at batch 1, 8
# and 32 must exist; every row must account for every attempted frame
# (delivered = kernel-accepted, accepted + shed = attempted — loss is
# counted, never silent); rows whose flush depth fits the unix-dgram
# receive queue must deliver everything; and batching must not cost
# throughput against the unbatched row (10% jitter allowance — the
# absolute pps number is a property of the machine, not gated here).
if command -v python3 >/dev/null 2>&1; then
  python3 - "$out/BENCH_MICRO.json" <<'PY'
import json, sys

with open(sys.argv[1]) as f:
    doc = json.load(f)
rows = {r["batch"]: r for r in doc["measured"].get("wire", [])}
bad = []
for b in (1, 8, 32):
    if b not in rows:
        bad.append(f"no wire row at batch {b}")
for b, r in sorted(rows.items()):
    if r["delivered"] != r["accepted"] or r["accepted"] + r["tx_errors"] != r["packets"]:
        bad.append(f"batch {b}: silent loss — delivered {r['delivered']}, "
                   f"accepted {r['accepted']}, shed {r['tx_errors']}, "
                   f"attempted {r['packets']}")
    if b <= 8 and (r["delivered"] != r["packets"] or r["tx_errors"]):
        bad.append(f"batch {b}: shallow flush lost frames "
                   f"({r['delivered']}/{r['packets']}, {r['tx_errors']} shed)")
if 1 in rows and 8 in rows and rows[8]["pps"] < 0.9 * rows[1]["pps"]:
    bad.append(f"batch 8 ({rows[8]['pps']:.0f} pps) slower than "
               f"unbatched ({rows[1]['pps']:.0f} pps)")
if bad:
    sys.exit("wire sweep gate failed:\n  " + "\n  ".join(bad))
for b, r in sorted(rows.items()):
    print(f"batch {b:2d}: {r['pps']:8.0f} pps/core, "
          f"{r['delivered']}/{r['packets']} delivered, {r['tx_errors']} shed"
          + (" (mmsg)" if r.get("mmsg") else " (fallback)"))
PY
else
  echo "wire sweep re-derivation skipped (python3 missing): in-bench checks only"
fi

echo "== daemon loopback smoke (unix-dgram, kill/recover, batch sweep) =="
# Two real processes over a UNIX-datagram socket: receiver daemon is
# SIGKILLed mid-run and restarted on the same durable store while the
# sender keeps transmitting. The restarted receiver's convergence gate
# (edge recovered, leap within 2k, no cross-incarnation replay, zero
# duplicates) is the verdict; nonzero exit fails the check. Run once
# unbatched and once at the full batch depth: convergence must not
# depend on the wire batching mode.
for wire_batch in 1 32; do
  echo "-- daemon loopback at --batch $wire_batch --"
  BATCH=$wire_batch sh scripts/daemon_loopback.sh \
    _build/default/bin/ipsec_resets.exe \
    || { echo "daemon loopback kill/recover gate failed at --batch $wire_batch" >&2; exit 1; }
done

echo "== E17 fleet smoke (supervised kill/recover, one cell per reset scope) =="
# One matrix cell per reset scope (single-SA / whole-SADB / disk-lost)
# through the fault-injecting fleet supervisor: daemon pairs over a
# real wire, the receiver SIGKILLed and respawned (store wiped for the
# disk-lost scope), convergence and the 2k fresh-loss bound re-derived
# from the heartbeat JSONL alone. Exit 0 is the verdict that every
# smoke cell held; exit 2 says a cell broke the bound or failed to
# converge; anything else is an infrastructure error. The wall-clock
# cap keeps a hung daemon pair from wedging the gate.
rc=0
if command -v timeout >/dev/null 2>&1; then
  timeout 300 dune exec bin/ipsec_resets.exe -- fleet --smoke \
    --workdir "$out/fleet" --json "$out/fleet-smoke.json" --quiet || rc=$?
else
  dune exec bin/ipsec_resets.exe -- fleet --smoke \
    --workdir "$out/fleet" --json "$out/fleet-smoke.json" --quiet || rc=$?
fi
case $rc in
  0) ;;
  2) echo "E17 smoke: a cell broke the 2k bound or failed to converge" >&2
     [ -f "$out/fleet-smoke.json" ] && cat "$out/fleet-smoke.json" >&2
     exit 1 ;;
  124) echo "E17 smoke: wall-clock timeout — hung daemon pair?" >&2; exit 1 ;;
  *) echo "E17 smoke errored (exit $rc)" >&2; exit 1 ;;
esac
test -s "$out/fleet-smoke.json" || { echo "missing fleet-smoke.json" >&2; exit 1; }
grep -q '"all_ok": true' "$out/fleet-smoke.json" \
  || { echo "fleet-smoke.json does not report all_ok" >&2; exit 1; }
echo "E17 smoke: all reset-scope cells converged within the 2k bound"

echo "== engine determinism smoke (wheel vs legacy heap) =="
# MICRO replays a fixed-seed schedule of one-shot, periodic, tied and
# cancelled timers on both engines and records a named check; require
# that check to exist and pass so a silent drop of the comparison
# cannot slip through.
if command -v python3 >/dev/null 2>&1; then
  python3 - "$out/BENCH_MICRO.json" <<'PY'
import json, sys

with open(sys.argv[1]) as f:
    doc = json.load(f)
name = "wheel and heap fire an identical fixed-seed schedule in the same order"
checks = [c for c in doc["checks"] if c["name"] == name]
if not checks:
    sys.exit("BENCH_MICRO.json carries no wheel-vs-heap determinism check")
if not all(c["pass"] for c in checks):
    sys.exit("wheel and heap diverged on the fixed-seed schedule")
print("wheel and heap fire order identical on the fixed-seed schedule")
PY
else
  grep -q '"wheel and heap fire an identical fixed-seed schedule in the same order"' \
    "$out/BENCH_MICRO.json" \
    || { echo "no wheel-vs-heap determinism check in BENCH_MICRO.json" >&2; exit 1; }
fi

echo "OK"
