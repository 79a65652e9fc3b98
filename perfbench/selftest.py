#!/usr/bin/env python3
"""Self-test of the perfbench correctness gate, at smoke size.

For every workload:
  * a run at a stored seed passes (correct, failed == 0);
  * the same run with one stored value perturbed fails exactly one World, so
    failed / attempted == 1 / N for that workload's N Worlds;
  * a traced run passes;
  * a run at a seed without stored values passes on invariants alone.

    python3 perfbench/selftest.py

Exits 0 when every check holds.
"""
import json
import pathlib
import subprocess
import sys

RUN = pathlib.Path(__file__).resolve().parent / "run.py"
# One stored key per workload to perturb, and the Worlds one pass runs.
PERTURB = {
    "titan_sync": ("jk.max_offset_t0", 2),
    "titan_sync_sharded": ("hca3.events", 2),
    "fig09_allreduce": ("h2hca.repro_us.1024", 1),
    "service_churn": ("service.read3.r4", 1),
}


def run(workload, seed, trace=0, perturb=None):
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", "0", "--trace", str(trace), "--size", "smoke"]
    if perturb:
        cmd += ["--perturb", perturb]
    r = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if r.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {r.returncode}: {r.stderr[-2000:]}")
    return json.loads(r.stdout.strip().splitlines()[-1])


def main():
    problems = []

    def expect(cond, what):
        print(("ok   " if cond else "FAIL ") + what)
        if not cond:
            problems.append(what)

    for workload, (key, nworlds) in PERTURB.items():
        base = run(workload, 1)
        expect(base["correct"] and base["failed"] == 0 and base["attempted"] == nworlds,
               f"{workload}: stored seed passes ({base['failed']}/{base['attempted']} failed)")
        bad = run(workload, 1, perturb=key)
        expect(not bad["correct"] and bad["failed"] == 1 and bad["attempted"] == nworlds,
               f"{workload}: perturbed {key} gives failed_ratio "
               f"{bad['failed']}/{bad['attempted']} (want 1/{nworlds})")
        traced = run(workload, 1, trace=1)
        expect(traced["correct"] and "trace.overhead" in traced["metrics"],
               f"{workload}: traced run passes")
        other = run(workload, 3)
        expect(other["correct"], f"{workload}: seed 3 passes on invariants")
    print(f"{len(problems)} failure(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
