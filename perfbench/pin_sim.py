#!/usr/bin/env python3
"""Regenerate perfbench/pinned_sim.json: the sim-scale outcome of every
seed in [0, N), which run.py requires each sim-scale run to reproduce.

    python3 perfbench/pin_sim.py [N]      (from the root of a checkout)

Only regenerate it when a change is meant to alter the protocol's outcome;
a perf change must leave every pinned value as it is.
"""

import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

KEYS = ("delivered", "messages_lost", "replay_accepted", "duplicate_deliveries")


def main():
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 300
    run.build()
    pinned = {}
    for seed in range(n):
        r = subprocess.run([run.LEDGER, "sim", "--seed", str(seed), "--seconds", "0",
                            "--sas", str(run.SIM_SAS)], capture_output=True, text=True,
                           check=True)
        out = json.loads(r.stdout.strip().splitlines()[-1])
        pinned[str(seed)] = {k: out[k] for k in KEYS}
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pinned_sim.json")
    with open(path, "w") as f:
        f.write("{\n" + ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}"
                                     for k, v in pinned.items()) + "\n}\n")


if __name__ == "__main__":
    main()
