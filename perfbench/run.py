#!/usr/bin/env python3
"""The repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Workloads (see perfbench/README.md and BENCHMARK.json for why each exists):

    wire-steady  a `serve` sender/receiver pair over UDP loopback, no resets
    sim-scale    Multi_sa.run in process: 256 SAs, one host reset
    verify       the E11 APN model set plus two chaos batches

wire-steady's traced run also restarts a pair on the real disk over and
over, for the persist and fleet figures (see perfbench/README.md).

With --trace 0 the last stdout line carries every end-to-end metric, with
--trace 1 every per-layer metric (0 where the workload does not reach that
layer). Earlier lines print the machine stanza, each metric by name and unit,
and the workload-specific figures behind the generic ones. The program is
built from source first (dune); a missing source tree or a failed build exits
non-zero without a result line.
"""

import argparse
import hashlib
import json
import os
import signal
import socket
import statistics
import subprocess
import sys
import time

BIN = os.path.join("_build", "default", "bin", "ipsec_resets.exe")
LEDGER = os.path.join("_build", "default", "perfbench", "ledger.exe")
WORK = ".bench_work"
OUT = ".bench_out"

WORKLOADS = ("wire-steady", "sim-scale", "verify")  # BENCHMARK.json's

# The metric names and units are BENCHMARK.json's, next to perfbench/.
with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                       "BENCHMARK.json")) as _f:
    _SPEC = json.load(_f)
END_TO_END = [(m["name"], m["unit"]) for m in _SPEC["end_to_end"]]
PER_LAYER = [(m["name"], m["unit"]) for m in _SPEC["per_layer"]]

# wire-steady: 16 SAs, one worker per daemon, 64k pps aggregate, K so large
# that no SAVE happens after establishment. 4 MiB socket buffers: default
# buffers lost 0.04-1.6% of packets at 32k pps. At 64k the idle-poll share
# of the CPU per packet is smaller than at 32k, and so is its run-to-run
# spread (0.04 against 0.10 over five interleaved runs each).
STEADY = dict(sas=16, rate=64000.0, k=1_000_000, heartbeat=0.02, bufs=4194304)
# The restart series (wire-steady's traced run): 2 SAs at 100 pps each,
# K = 16. A SAVE on this class of disk costs ~45 ms (fsync), and the
# daemon's SAVE blocks its worker, so SAs x (rate / K) x T_save stays near
# 0.55 of one worker. Heartbeats every 2 ms resolve recovery times of
# 100-400 ms.
RESET = dict(sas=2, rate_per_sa=100.0, k=16, heartbeat=0.002)
# sim-scale: 256 SAs. Each holds ~37 KB of live heap, so the host's
# ~9.5 MB of state is well past a 2 MiB L2. At 2048 SAs (~75 MB, past the
# shared L3) the fastest call of a 30 s run varied by up to 1.5x between
# runs as other tenants loaded the memory system; at 256 it held to +-3%.
SIM_SAS = 256

STEADY_PAIRS = 6  # wire-steady's measured pairs per run
SETUPS = 11  # set-up probes per run: setup_s is the fastest


class Failure(Exception):
    """The benchmark could not run (build, missing tree, harness fault)."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def now_ns():
    return time.time_ns()


def median(xs):
    return statistics.median(xs) if xs else 0.0


def best(xs):
    """The fastest of a run's samples. Interference from other tenants of
    a shared machine only ever slows a sample down, and it comes in bursts
    of seconds to minutes; the fastest sample tracks the code's own cost.
    Over ten 30 s sim-scale runs the spread (IQR/median) of the per-run
    minimum call time was 0.13, of the 10th percentile 0.25, of the
    median 0.21."""
    return min(xs) if xs else 0.0


def tail_percentile(xs):
    """The highest percentile with at least ten samples beyond it, and its
    value; (0, 0) when that percentile would not lie above the median
    (fewer than 20 samples)."""
    n = len(xs)
    if n < 20:
        return 0, 0.0
    idx = n - 11  # exactly ten samples lie above sorted(xs)[idx]
    return int(100 * (idx + 1) / n), sorted(xs)[idx]


# --------------------------------------------------------------------------
# processes


class Procs:
    """Every child this run starts; all are stopped and reaped on exit."""

    def __init__(self):
        self.live = {}

    def spawn(self, argv, logpath):
        out = open(logpath, "ab")
        p = subprocess.Popen(argv, stdout=out, stderr=out, stdin=subprocess.DEVNULL)
        out.close()
        self.live[p.pid] = p
        return p

    def reap(self, p, timeout=None):
        """Wait for [p]; return (exit code, cpu seconds, max rss KiB). A
        negative code is the signal that ended it."""
        deadline = None if timeout is None else time.monotonic() + timeout
        pause = 0.001
        while True:
            pid, status, ru = os.wait4(p.pid, os.WNOHANG)
            if pid == p.pid:
                break
            if deadline is not None and time.monotonic() > deadline:
                p.kill()
                deadline = None
            time.sleep(pause)
            pause = min(pause * 2, 0.05)
        p.returncode = os.waitstatus_to_exitcode(status)
        self.live.pop(p.pid, None)
        return p.returncode, ru.ru_utime + ru.ru_stime, ru.ru_maxrss

    def stop_all(self):
        for p in list(self.live.values()):
            try:
                p.kill()
            except ProcessLookupError:
                pass
            try:
                self.reap(p)
            except ChildProcessError:
                self.live.pop(p.pid, None)


def cpu_now(pid):
    """CPU seconds consumed so far by every thread of a live process."""
    total = 0
    for tid in os.listdir(f"/proc/{pid}/task"):
        try:
            with open(f"/proc/{pid}/task/{tid}/schedstat") as f:
                total += int(f.read().split()[0])
        except (FileNotFoundError, ProcessLookupError):
            pass
    return total / 1e9


class Tail:
    """JSON lines appended to a file, consumed in order."""

    def __init__(self, path):
        self.path, self.off, self.buf, self.queue = path, 0, b"", []

    def lines(self):
        """Every complete line not consumed yet."""
        try:
            with open(self.path, "rb") as f:
                f.seek(self.off)
                data = f.read()
        except FileNotFoundError:
            data = b""
        self.off += len(data)
        self.buf += data
        *done, self.buf = self.buf.split(b"\n")
        self.queue += [json.loads(l) for l in done if l.strip()]
        out, self.queue = self.queue, []
        return out


def wait_line(tail, pred, timeout, poll=0.001):
    """Consume lines up to and including the first that satisfies [pred]."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        lines = tail.lines()
        for i, line in enumerate(lines):
            if pred(line):
                tail.queue = lines[i + 1:] + tail.queue
                return line
        time.sleep(poll)
    raise TimeoutError


def free_port():
    s = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    s.bind(("127.0.0.1", 0))
    port = s.getsockname()[1]
    s.close()
    return port


def run_ledger(ctx, args, label):
    """Run the in-process half; return (parsed JSON, wall ns at spawn,
    cpu seconds, max rss KiB)."""
    logpath = os.path.join(ctx.work, f"{label}.log")
    outpath = os.path.join(ctx.work, f"{label}.json")
    t0 = now_ns()
    with open(outpath, "wb") as out, open(logpath, "ab") as err:
        p = subprocess.Popen([LEDGER] + args, stdout=out, stderr=err,
                             stdin=subprocess.DEVNULL)
        ctx.procs.live[p.pid] = p
        code, cpu, rss = ctx.procs.reap(p, timeout=170)
    if code != 0:
        raise Failure(f"ledger {args[0]} exited {code}; see {logpath}")
    with open(outpath) as f:
        return json.loads(f.read().strip().splitlines()[-1]), t0, cpu, rss


# --------------------------------------------------------------------------
# machine stanza


def fs_type(path):
    path = os.path.realpath(path)
    best, kind = "", "unknown"
    with open("/proc/mounts") as f:
        for line in f:
            parts = line.split()
            mnt = parts[1].replace("\\040", " ")
            if (path == mnt or path.startswith(mnt.rstrip("/") + "/")) and len(mnt) >= len(best):
                best, kind = mnt, parts[2]
    return kind


def source_rev():
    if os.path.isdir(".git"):
        try:
            r = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
            if r.returncode == 0:
                return r.stdout.strip()
        except OSError:
            pass
    # not a git checkout: a digest of the sources the benchmark builds
    h = hashlib.sha1()
    for top in ("lib", "bin", "perfbench"):
        for dirpath, dirs, files in sorted(os.walk(top)):
            dirs.sort()
            for name in sorted(files):
                if name.endswith((".ml", ".mli", ".c", "dune")):
                    with open(os.path.join(dirpath, name), "rb") as f:
                        h.update(name.encode() + f.read())
    return "tree-sha1:" + h.hexdigest()


def machine(ctx):
    codec, _, _, _ = run_ledger(ctx, ["codec", "--smoke"], "machine")
    try:
        ocaml = subprocess.run(["ocamlfind", "ocamlopt", "-version"],
                               capture_output=True, text=True).stdout.strip()
    except OSError:
        ocaml = "unknown"
    return {
        "nproc": os.cpu_count(),
        "ocaml": ocaml,
        "rev": source_rev(),
        "using_mmsg": codec["using_mmsg"],
        "crypto_accel": codec["accel_in_use"],
        "link": "loopback (127.0.0.1)",
        "store_fs": fs_type(ctx.work),
    }


# --------------------------------------------------------------------------
# wire-steady


def start_pair(ctx, d, heartbeat, dur):
    """Launch a wire-steady receiver, then its sender (running [dur]
    seconds) once the receiver is bound. Returns both processes, the
    receiver's heartbeat tail, the launch time and the first heartbeat
    that shows a delivered packet. A pair that shows no delivery within
    20 s is killed and relaunched in a fresh directory, up to twice: on
    a shared disk a start-up fsync once stalled a sender for over 30 s.
    Relaunches are reported, not hidden."""
    for attempt in range(3):
        try:
            return launch_pair(ctx, d if attempt == 0 else f"{d}-again{attempt}",
                               heartbeat, dur)
        except TimeoutError:
            ctx.relaunches += 1
            for p in list(ctx.procs.live.values()):
                p.kill()
                ctx.procs.reap(p, timeout=30)
    raise TimeoutError(f"no pair in {d} delivered a packet within 20 s, three times")


def launch_pair(ctx, d, heartbeat, dur):
    os.makedirs(d)
    port = free_port()
    sas = STEADY["sas"]
    common = [
        "--sas", str(sas), "-k", str(STEADY["k"]),
        "--rate", repr(STEADY["rate"] / sas), "--workers", "1",
        "--heartbeat", repr(heartbeat), "--secret", ctx.secret,
        "--spi-base", str(ctx.spi_base), "--quiet",
    ]
    rstats = Tail(os.path.join(d, "r.jsonl"))
    t0 = now_ns()
    recv = ctx.procs.spawn(
        [BIN, "serve", "--role", "recv", "--bind", f"udp:127.0.0.1:{port}",
         "--duration", repr(dur + 60), "--store", os.path.join(d, "rstore"),
         "--stats", rstats.path, "--rcvbuf", str(STEADY["bufs"])] + common,
        os.path.join(d, "recv.log"))
    # a fine poll: the gap before the sender's launch counts in set-up
    wait_line(rstats, lambda l: l.get("event") == "startup", 20, poll=0.0002)
    send = ctx.procs.spawn(
        [BIN, "serve", "--role", "send", "--peer", f"udp:127.0.0.1:{port}",
         "--duration", repr(dur), "--store", os.path.join(d, "sstore"),
         "--stats", os.path.join(d, "s.jsonl"), "--json", os.path.join(d, "s.json"),
         "--sndbuf", str(STEADY["bufs"])] + common,
        os.path.join(d, "send.log"))
    first = wait_line(
        rstats, lambda l: "sas" in l and sum(s["delivered"] for s in l["sas"]) > 0, 20,
        poll=0.002)
    return recv, send, rstats, t0, first


def steady_pair(ctx, seg, dur):
    """One measured pair; returns its measurements."""
    d = os.path.join(ctx.work, f"steady{seg}")
    recv, send, rstats, _, first = start_pair(ctx, d, STEADY["heartbeat"], dur)
    # CPU is counted from the first delivery on, so start-up is excluded
    scpu0, rcpu0 = cpu_now(send.pid), cpu_now(recv.pid)
    d0 = sum(x["delivered"] for x in first["sas"])
    scode, scpu, srss = ctx.procs.reap(send, timeout=dur + 60)
    with open(os.path.join(d, "s.json")) as f:
        srep = json.load(f)
    sent = srep["sent"]
    # The receiver is stopped once its heartbeat shows the last frame
    # delivered (or after a grace period, which the loss check reports).
    # Its CPU is read just before, so it counts traffic only.
    last = first
    deadline = time.monotonic() + 3.0
    while time.monotonic() < deadline:
        for l in rstats.lines():
            if "sas" in l:
                last = l
        if sum(x["delivered"] for x in last["sas"]) >= sent:
            break
        time.sleep(0.01)
    rcpu = cpu_now(recv.pid)
    recv.kill()
    _, _, rrss = ctx.procs.reap(recv, timeout=30)
    delivered = sum(x["delivered"] for x in last["sas"])
    dups = sum(x["dups"] for x in last["sas"])
    bad_icv = sum(x["bad_icv"] for x in last["sas"])
    problems = []
    if scode != 0:
        problems.append(f"sender exited {scode}")
    if delivered != sent or srep["wire_tx_errors"] != 0:
        problems.append(f"sent {sent} delivered {delivered} tx_errors {srep['wire_tx_errors']}")
    if dups or bad_icv:
        problems.append(f"dups {dups} bad_icv {bad_icv}")
    rwire = last["wire"]
    n = max(delivered, 1)
    window = max(delivered - d0, 1)
    return {
        "send_cpu_us": (scpu - scpu0) / window * 1e6,
        "recv_cpu_us": (rcpu - rcpu0) / window * 1e6,
        "pps": delivered / srep["elapsed_s"],
        "rss_kib": max(srss, rrss),
        "sent": sent,
        "failed": max(sent - delivered, 0) + dups + bad_icv + (sent if scode else 0),
        "syscalls_per_pkt": (srep["wire"]["tx_flushes"] + rwire["rx_batches"]) / n,
        "rx_batch_p50": rwire["rx_batch_p50"],
        "dropped": sent - delivered,
        "problems": problems,
    }


def steady_setup(ctx, i):
    """Launch a pair, time it to the first delivered packet, kill it. The
    1 ms heartbeat resolves the set-up time; the measured pairs run the
    coarser one so heartbeats stay a small share of their CPU."""
    recv, send, _, t0, first = start_pair(
        ctx, os.path.join(ctx.work, f"setup{i}"), 0.001, 30)
    for p in (send, recv):
        p.kill()
        ctx.procs.reap(p, timeout=30)
    return (first["ts_ns"] - t0) / 1e9


def wire_steady(ctx):
    segs = 1 if ctx.trace else STEADY_PAIRS
    share = ctx.seconds / 5 if ctx.trace else ctx.seconds
    dur = max(1.0, share / segs - 0.5)
    pairs = [steady_pair(ctx, i, dur) for i in range(segs)]
    pick = lambda k: median([p[k] for p in pairs])
    fastest = lambda k: best([p[k] for p in pairs])
    attempted = sum(p["sent"] for p in pairs)
    failed = sum(p["failed"] for p in pairs)
    problems = [x for p in pairs for x in p["problems"]]
    info = {
        "wire_send_cpu_us_per_pkt": (fastest("send_cpu_us"), "us"),
        "wire_recv_cpu_us_per_pkt": (fastest("recv_cpu_us"), "us"),
        "wire_delivered_pps": (pick("pps"), "1/s"),
    }
    if not ctx.trace:
        metrics = {
            "setup_s": best([steady_setup(ctx, i) for i in range(SETUPS)]),
            "cpu_us_per_op": best([p["send_cpu_us"] + p["recv_cpu_us"] for p in pairs]),
            "ops_per_s": pick("pps"),
            "peak_rss_mb": pick("rss_kib") / 1024,
        }
        return metrics, attempted, failed, problems, info
    daemon_ns = best([p["send_cpu_us"] + p["recv_cpu_us"] for p in pairs]) * 1e3
    layer = {
        "daemon.send_cpu_us_per_pkt": fastest("send_cpu_us"),
        "daemon.recv_cpu_us_per_pkt": fastest("recv_cpu_us"),
        "daemon.delivered_pps": pick("pps"),
        "net.syscalls_per_pkt": pick("syscalls_per_pkt"),
        "net.rx_batch_p50": pick("rx_batch_p50"),
        "net.dropped": sum(p["dropped"] for p in pairs),
    }
    layer.update(codec_layers(ctx))
    args = ["--sas", str(STEADY["sas"]), "--rate", repr(STEADY["rate"]),
            "-k", str(STEADY["k"])]
    comp, probs = wire_composition(ctx, args, ctx.seconds / 10, daemon_ns, wakeups=0)
    layer.update(comp)
    problems += probs
    # persist and fleet: a restart series and the on-disk ledger
    reset, n, bad, probs, rinfo = reset_layers(ctx, ctx.seconds / 2)
    layer.update(reset)
    info.update(rinfo)
    return layer, attempted + n, failed + bad, problems + probs, info


def codec_layers(ctx):
    c, _, _, _ = run_ledger(ctx, ["codec", "--seed", str(ctx.seed)]
                            + (["--smoke"] if ctx.smoke else []), "codec")
    return {
        "ipsec.encap_ns": c["encap_ns"], "ipsec.encap_words": c["encap_words"],
        "ipsec.decap_ns": c["decap_ns"], "ipsec.decap_words": c["decap_words"],
        "ipsec.admit_ns": c["admit_ns"], "ipsec.admit_words": c["admit_words"],
        "ipsec.encap_into_ns": c["encap_into_ns"],
        "ipsec.decap_slice_ns": c["decap_slice_ns"],
        "crypto.icv_ns": c["icv_ns"], "crypto.cipher_ns": c["cipher_ns"],
    }


def wire_composition(ctx, args, seconds, daemon_ns, wakeups, label="wire"):
    """The daemon's layers composed in-process, untraced then traced.
    Returns per-layer figures and composition-check problems."""
    results = {}
    problems = []
    for traced in (False, True):
        name = f"{label}-{'traced' if traced else 'plain'}"
        store = os.path.join(ctx.work, f"{name}-store")
        os.makedirs(store)
        argv = ["wiretrace", "--seed", str(ctx.seed), "--seconds", repr(seconds),
                "--port", str(free_port()), "--store", store,
                "--wakeups", str(wakeups)] + args
        if traced:
            argv += ["--traced", "--spans", os.path.join(ctx.out, f"{ctx.workload}-{name}.csv")]
        r, _, _, _ = run_ledger(ctx, argv, name)
        results[traced] = r
        # composition check: the same protocol outcome as the daemon pair
        if wakeups == 0 and (r["delivered"] != r["sent"] or r["tx_errors"]):
            problems.append(f"{name}: sent {r['sent']} delivered {r['delivered']}")
        if r["dups"] or r["bad_icv"]:
            problems.append(f"{name}: dups {r['dups']} bad_icv {r['bad_icv']}")
        if wakeups and r["lost"] > 2 * r["k"] * wakeups * r["sas"]:
            problems.append(f"{name}: lost {r['lost']} beyond 2K per wakeup")
    plain, tr = results[False], results[True]
    n = max(tr["delivered"], 1)
    sp = tr["spans"]
    per = lambda name, field="self_ns": sp[name][field] / n
    parts = {
        "net.tx_ns_per_pkt": per("net.tx"),
        "net.rx_ns_per_pkt": per("net.rx"),
        "net.copy_ns_per_pkt": per("net.copy"),
        "core.sender_self_ns_per_pkt": per("sim.step"),
        "core.receiver_self_ns_per_pkt": per("core.receiver"),
    }
    # receiver timers and wakeups count by self time, their persist
    # children by total, so nothing is counted twice
    other_ns = (per("core.receiver_timer") + per("core.wakeup")
                + per("persist.save", "total_ns") + per("persist.fetch", "total_ns"))
    covered = sum(parts.values()) + other_ns
    cpu = lambda r: r["cpu_s"] / max(r["delivered"], 1) * 1e9
    out = dict(parts)
    out.update({
        "daemon.residual_ns_per_pkt": daemon_ns - covered,
        "trace.coverage": covered / daemon_ns if daemon_ns else 0.0,
        "trace.overhead_pct": (cpu(tr) - cpu(plain)) / cpu(plain) * 100,
        "core.words_per_pkt": plain["minor_words"] / max(plain["delivered"], 1),
        "persist.save_ns_p50": sp["persist.save"]["p50_ns"],
        "persist.save_ns_tail": sp["persist.save"]["p99_ns"],
        "persist.saves_per_pkt": sp["persist.save"]["n"] / n,
        "persist.fetch_ns": sp["persist.fetch"]["total_ns"] / max(sp["persist.fetch"]["n"], 1),
    })
    return out, problems


# --------------------------------------------------------------------------
# restarts: the persist and fleet figures of wire-steady's traced run


def reset_series(ctx, budget):
    """A pair on the real disk, restarted in turn until [budget] seconds
    of restarts have run. Receivers stop on SIGTERM (graceful: the
    daemon's own --expect-recovery gate runs and sets the exit code);
    senders are SIGKILLed."""
    d = os.path.join(ctx.work, "reset")
    os.makedirs(d)
    port = free_port()
    k, sas = RESET["k"], RESET["sas"]
    common = [
        "--sas", str(sas), "-k", str(k), "--rate", repr(RESET["rate_per_sa"]),
        "--workers", "1", "--heartbeat", repr(RESET["heartbeat"]),
        "--secret", ctx.secret, "--spi-base", str(ctx.spi_base), "--quiet",
        "--duration", "600",
    ]
    rstats = Tail(os.path.join(d, "r.jsonl"))
    sstats = Tail(os.path.join(d, "s.jsonl"))
    gate = lambda i: ["--expect-recovery"] if i > 0 else []

    def recv(i):
        return ctx.procs.spawn(
            [BIN, "serve", "--role", "recv", "--bind", f"udp:127.0.0.1:{port}",
             "--store", os.path.join(d, "rstore"), "--stats", rstats.path,
             "--json", os.path.join(d, f"r{i}.json"), "--graceful"] + gate(i) + common,
            os.path.join(d, "recv.log"))

    def send(j):
        return ctx.procs.spawn(
            [BIN, "serve", "--role", "send", "--peer", f"udp:127.0.0.1:{port}",
             "--store", os.path.join(d, "sstore"), "--stats", sstats.path,
             "--json", os.path.join(d, f"s{j}.json")] + gate(j) + common,
            os.path.join(d, "send.log"))

    def of(p):
        return lambda l: l.get("pid") == p.pid

    def all_delivering(p):
        return lambda l: of(p)(l) and "sas" in l and all(s["delivered"] > 0 for s in l["sas"])

    res = {"recv_recovery_ms": [], "send_recovery_ms": [],
           "spawn_to_startup_ms": [], "startup_to_converged_ms": [],
           "daemon_save_p50_ns": [], "restarts": 0, "failed": 0, "problems": []}

    def finish(p, sig, gated):
        p.send_signal(sig)
        code, _, _ = ctx.procs.reap(p, timeout=30)
        if sig == signal.SIGTERM and code != 0:
            res["problems"].append(f"receiver pid {p.pid} exited {code}"
                                   + (" (recovery gate)" if gated else ""))
            return False
        return True

    r, i = recv(0), 0
    wait_line(rstats, lambda l: of(r)(l) and l.get("event") == "startup", 30)
    s, j = send(0), 0
    wait_line(rstats, all_delivering(r), 30)
    time.sleep(0.3)  # let a few SAVE periods pass before the first reset
    start = time.monotonic()
    while time.monotonic() - start < budget:
        # receiver: graceful stop (gate), respawn, wait for every SA
        ok = finish(r, signal.SIGTERM, i > 0)
        i += 1
        t_r = now_ns()
        r = recv(i)
        try:
            up = wait_line(rstats, lambda l: of(r)(l) and l.get("event") == "startup", 30)
            conv = wait_line(rstats, all_delivering(r), 30)
        except TimeoutError:
            res["problems"].append(f"receiver restart {i} did not converge")
            res["failed"] += 1
            break
        res["recv_recovery_ms"].append((conv["ts_ns"] - t_r) / 1e6)
        res["spawn_to_startup_ms"].append((up["ts_ns"] - t_r) / 1e6)
        res["startup_to_converged_ms"].append((conv["ts_ns"] - up["ts_ns"]) / 1e6)
        # sender: SIGKILL, respawn; converged once every SA delivered a
        # sequence number at or past the new incarnation's leap
        finish(s, signal.SIGKILL, False)
        j += 1
        t_s = now_ns()
        s = send(j)
        try:
            hb = wait_line(sstats, lambda l: of(s)(l) and "sas" in l, 30)
            need = {x["spi"]: x["recovered_from"] + 2 * k for x in hb["sas"]}
            conv = wait_line(
                rstats,
                lambda l: of(r)(l) and "sas" in l
                and all(x["max_seq"] >= need[x["spi"]] for x in l["sas"]), 30)
        except TimeoutError:
            res["problems"].append(f"sender restart {j} did not converge")
            res["failed"] += 1
            break
        res["send_recovery_ms"].append((conv["ts_ns"] - t_s) / 1e6)
        res["restarts"] += 2
        if not ok:
            res["failed"] += 1
    if not finish(r, signal.SIGTERM, i > 0):
        res["failed"] += 1
    finish(s, signal.SIGKILL, False)
    # the last receiver's terminal heartbeat: its SAVE latencies
    last = None
    for l in rstats.lines():
        if of(r)(l) and "save_latency_ns" in l:
            last = l
    if last:
        res["daemon_save_p50_ns"] = [w["p50"] for w in last["save_latency_ns"] if w["count"]]
    return res


def reset_layers(ctx, seconds):
    """Per-layer persist and fleet figures: one restart series, then the
    in-process ledger on the real disk with receiver wakeups. The series'
    own recovery figures are printed, not bounded (see README)."""
    res = reset_series(ctx, max(1.0, seconds * 0.75 - 1.0))
    rec = res["recv_recovery_ms"] + res["send_recovery_ms"]
    pct, tail = tail_percentile(rec)
    info = {
        "recovery_ms_p50": (median(rec), "ms"),
        "recovery_ms_tail": (tail, f"ms (p{pct}, n={len(rec)})"),
        "recv_recovery_ms_p50": (median(res["recv_recovery_ms"]), "ms"),
        "send_recovery_ms_p50": (median(res["send_recovery_ms"]), "ms"),
    }
    layer = {
        "fleet.recovery_ms_p50": median(rec),
        "fleet.recovery_ms_tail": tail,
        "fleet.recovery_tail_pct": pct,
        "fleet.spawn_to_startup_ms": median(res["spawn_to_startup_ms"]),
        "fleet.startup_to_converged_ms": median(res["startup_to_converged_ms"]),
        "persist.daemon_save_p50_ns": median(res["daemon_save_p50_ns"]),
    }
    args = ["--sas", str(RESET["sas"]), "--rate", repr(RESET["rate_per_sa"] * RESET["sas"]),
            "-k", str(RESET["k"])]
    comp, probs = wire_composition(ctx, args, seconds / 4, 0.0, wakeups=4, label="disk")
    for name in ("persist.save_ns_p50", "persist.save_ns_tail", "persist.saves_per_pkt",
                 "persist.fetch_ns"):
        layer[name] = comp[name]
    return (layer, max(res["restarts"], 1), res["failed"], res["problems"] + probs, info)


# --------------------------------------------------------------------------
# sim-scale


def probe_setup(ctx, args, i):
    """Launch a set-up probe of the ledger; seconds from exec to ready."""
    r, t0, _, _ = run_ledger(ctx, args, f"probe{i}")
    return (r["ready_wall_ns"] - t0) / 1e9


def load_pinned():
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pinned_sim.json")
    with open(path) as f:
        return json.load(f)


def sim_scale(ctx):
    # The program's seed is drawn from the run's seed within the pinned
    # range, so every run's outcome is checked against its pin.
    pins = load_pinned()
    sim_seed = ctx.seed % len(pins)
    pinned = pins[str(sim_seed)]
    keys = ("delivered", "messages_lost", "replay_accepted", "duplicate_deliveries")
    problems = []

    def check(r, label):
        bad = 0
        if r["replay_accepted"] or r["duplicate_deliveries"] or r["mismatches"]:
            problems.append(f"{label}: replay_accepted {r['replay_accepted']} "
                            f"dups {r['duplicate_deliveries']} "
                            f"nondeterministic calls {r['mismatches']}")
            bad = 1
        if any(r[k] != pinned[k] for k in keys):
            problems.append(f"{label}: outcome {[r[k] for k in keys]} != pinned "
                            f"{[pinned[k] for k in keys]}")
            bad = 1
        return bad

    if not ctx.trace:
        r, _, _, rss = run_ledger(
            ctx, ["sim", "--seed", str(sim_seed), "--sas", str(SIM_SAS),
                  "--seconds", repr(max(0.5, ctx.seconds - 1.0))], "sim")
        bad = check(r, "sim")
        call_ms, call_cpu_ms = r["call_ms"], r["call_cpu_ms"]
        metrics = {
            "setup_s": best([probe_setup(ctx, ["setup-sim", "--seed", str(sim_seed),
                                               "--sas", str(SIM_SAS)], i)
                              for i in range(SETUPS)]),
            "cpu_us_per_op": best(call_cpu_ms) * 1e3 / r["delivered"],
            "ops_per_s": r["delivered"] / (best(call_ms) / 1e3),
            "peak_rss_mb": rss / 1024,
        }
        info = {
            "sim_delivered_per_s": (metrics["ops_per_s"], "1/s"),
            "sim_peak_rss_mb": (metrics["peak_rss_mb"], "MB"),
            "sim_call_ms_p50": (median(call_ms), "ms"),
            "sim_call_ms_best": (best(call_ms), "ms"),
            "sim_calls": (len(call_ms), ""),
            "pinned_seed": (str(sim_seed), "(outcome checked)"),
        }
        return metrics, r["calls"], r["calls"] if bad else 0, problems, info
    r, _, _, _ = run_ledger(
        ctx, ["simtrace", "--seed", str(sim_seed), "--sas", str(SIM_SAS),
              "--seconds", repr(ctx.seconds * 0.6),
              "--spans", os.path.join(ctx.out, f"{ctx.workload}-spans.csv")], "simtrace")
    r["mismatches"] = 0
    failed = check(r, "simtrace")
    if not r["composition_ok"]:
        problems.append("rebuilt host did not reach Multi_sa.run's outcome")
        failed += 1
    step = r["spans"]["sim.step"]
    save = r["spans"]["persist.save"]
    fetch = r["spans"]["persist.fetch"]
    delivered = r["delivered"]
    layer = {
        "sim.step_ns": step["total_ns"] / max(step["n"], 1),
        "sim.engine_alone_ns_per_event": r["engine_alone_ns_per_event"],
        "sim.engine_alone_words_per_event": r["engine_alone_words_per_event"],
        "sim.words_per_event": r["words_per_event"],
        "sim.events_per_delivered": r["events_fired"] / max(delivered, 1),
        "sim.major_gcs": r["major_gcs_per_call"],
        "sim.delivered_per_s": delivered / (r["untraced_ns_per_call"] / 1e9),
        "persist.save_ns_p50": save["p50_ns"],
        "persist.save_ns_tail": save["p99_ns"],
        "persist.saves_per_pkt": save["n"] / max(r["traced_calls"] * delivered, 1),
        "persist.fetch_ns": fetch["total_ns"] / max(fetch["n"], 1),
        "trace.coverage": (step["total_ns"] / r["traced_calls"]) / r["untraced_ns_per_call"],
        "trace.overhead_pct":
            (r["traced_ns_per_call"] - r["untraced_ns_per_call"]) / r["untraced_ns_per_call"] * 100,
    }
    layer.update(codec_layers(ctx))
    return layer, r["traced_calls"] + r["untraced_calls"], failed, problems, {}


# --------------------------------------------------------------------------
# verify


def verify(ctx):
    # One ledger process per pass, each over the run's seed-drawn stock
    # batch, for as long as the run allows.
    smoke = ["--smoke"] if ctx.smoke else []
    budget = max(0.0, ctx.seconds - 4.0 - (0 if ctx.trace else 3.0))
    t0 = time.monotonic()
    passes, problems = [], []
    while not passes or time.monotonic() - t0 < budget:
        r, _, _, _ = run_ledger(ctx, ["verify", "--seed", str(ctx.seed)] + smoke,
                                f"verify{len(passes)}")
        problems += r["failures"]
        passes.append(r["pass"])
    attempted = sum(p["models"] + p["schedules"] for p in passes)
    states = sum(p["states"] for p in passes)
    apn_s = sum(p["apn_ns"] for p in passes) / 1e9
    scheds = sum(p["schedules"] for p in passes)
    chaos_s = sum(p["stock_ns"] + p["weak_ns"] for p in passes) / 1e9
    info = {
        "apn_states_per_s": (states / apn_s, "1/s"),
        "chaos_schedules_per_s": (scheds / chaos_s, "1/s"),
        "passes": (len(passes), ""),
    }
    if not ctx.trace:
        # peak_rss_mb: one more pass, over a fixed stock batch (the set-up
        # probe's, seed 0). A pass's peak is the same on every run of one
        # seed but steps with the seed-drawn schedules: over 20 seeds, 18
        # passes peaked at 60.4-60.9 MB and 2 at 68.4 MB.
        r, _, _, rss = run_ledger(ctx, ["verify", "--seed", "0"] + smoke, "verify-rss")
        problems += r["failures"]
        attempted += r["pass"]["models"] + r["pass"]["schedules"]
        metrics = {
            "setup_s": best([probe_setup(ctx, ["setup-verify"], i) for i in range(SETUPS)]),
            "cpu_us_per_op": best([p["pass_cpu_s"] for p in passes]) * 1e6,
            "ops_per_s": 1 / best([p["wall_s"] for p in passes]),
            "peak_rss_mb": rss / 1024,
        }
        return metrics, attempted, len(problems), problems, info
    stock = sum(p["stock_schedules"] for p in passes)
    layer = {
        "apn.states": passes[0]["states"],
        "apn.ns_per_state": apn_s * 1e9 / states,
        "apn.words_per_state": sum(p["apn_words"] for p in passes) / states,
        "apn.states_per_s": states / apn_s,
        "chaos.ns_per_schedule": chaos_s * 1e9 / scheds,
        "chaos.shrink_s": median([p["shrink_ns"] / 1e9 for p in passes]),
        "chaos.words_per_schedule": sum(p["stock_words"] for p in passes) / max(stock, 1),
        "chaos.schedules_per_s": scheds / chaos_s,
    }
    return layer, attempted, len(problems), problems, info


# --------------------------------------------------------------------------


class Ctx:
    pass


def build():
    for need in ("dune-project", "bin", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(need):
            raise Failure(f"{need} missing: run from the root of a checkout")
    # the shared build cache lives outside the checkout: keep it out
    r = subprocess.run(["dune", "build", "--root", ".", "./bin/ipsec_resets.exe",
                        "./perfbench/ledger.exe"], capture_output=True, text=True,
                       env=dict(os.environ, DUNE_CACHE="disabled"))
    if r.returncode != 0:
        raise Failure("build failed:\n" + r.stderr[-4000:])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes and short runs: checks the harness, not performance")
    a = ap.parse_args()
    ctx = Ctx()
    ctx.workload, ctx.seed, ctx.trace, ctx.smoke = a.workload, a.seed, a.trace == 1, a.smoke
    ctx.seconds = min(a.seconds, 6.0) if a.smoke else a.seconds
    ctx.secret = f"perfbench-{a.seed}"
    ctx.spi_base = 0x5000 + (a.seed % 4096) * 16
    ctx.procs = Procs()
    ctx.relaunches = 0
    # a SIGTERM unwinds through the finally below, which stops every child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    ctx.out = OUT
    ctx.work = os.path.join(WORK, f"{a.workload}-{os.getpid()}-{time.time_ns()}")
    try:
        build()
        os.makedirs(ctx.work)
        os.makedirs(ctx.out, exist_ok=True)
        stanza = machine(ctx)
        print("machine " + json.dumps(stanza, sort_keys=True), flush=True)
        run = {"wire-steady": wire_steady, "sim-scale": sim_scale,
               "verify": verify}[a.workload]
        metrics, attempted, failed, problems, info = run(ctx)
    except (Failure, TimeoutError, OSError, KeyError, ValueError) as e:
        log(f"perfbench: {type(e).__name__}: {e}")
        return 1
    finally:
        ctx.procs.stop_all()
    if ctx.relaunches:
        info["pair_relaunches"] = (ctx.relaunches, "")
    names = PER_LAYER if ctx.trace else END_TO_END
    out = {}
    for name, unit in names:
        value = float(metrics.get(name, 0.0))
        out[name] = {"value": value, "unit": unit}
        print(f"{name} {value:.6g} {unit}")
    for name, (value, unit) in info.items():
        print(f"  {name} {value if isinstance(value, str) else format(value, '.6g')} {unit}")
    for p in problems:
        print(f"  check failed: {p}")
    result = {"correct": failed == 0 and not problems, "attempted": int(attempted),
              "failed": int(failed), "metrics": out}
    with open(os.path.join(OUT, f"{a.workload}-trace{a.trace}.json"), "w") as f:
        json.dump({"machine": stanza, "seed": a.seed, "info": info,
                   "problems": problems, "result": result}, f, indent=1)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
