"""Run the benchmark once per seed and report each end-to-end metric's
median and quartile spread against its bound in BENCHMARK.json.

    python3 bench/spread.py --workload sl4-reduced --seeds 1-10
    python3 bench/spread.py --seeds 1-10 --baseline bench/baseline.json

The spread is (Q3 - Q1) / median over the runs, with the quartiles of
statistics.quantiles(values, n=4).  Without --workload every workload of
BENCHMARK.json is measured.  --baseline also makes one --trace 1 run of
every workload (sl3-full too) at the first seed and writes the spreads,
the traced layer shares and the machine facts to FILE.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# per-layer metrics copied into the baseline next to the layer shares
TRACE_KEPT = ("certify.filtrations_per_cert", "certify.ranks_per_cert",
              "certify.gram_bits_max", "certify.gram_side_mean",
              "scalar.ops_per_op", "trace.overhead", "trace.ops",
              "trace.traced_s", "catalog.catalog_build.total_s")


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace=0):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def measure(bench, workload, seeds, seconds):
    """Ten-seed summary of one workload; prints a line per run and metric."""
    values = {m["name"]: [] for m in bench["end_to_end"]}
    failed = 0
    for seed in seeds:
        report, result = run_once(workload, seed, seconds)
        failed += result["failed"]
        m = result["metrics"]
        for name in values:
            values[name].append(m[name]["value"])
        print(f"{workload} seed {seed}: rounds {report['rounds']}, failed "
              f"{result['failed']}/{result['attempted']}, ops_per_s "
              f"{m['ops_per_s']['value']:.4g}, latency_p50_s "
              f"{m['latency_p50_s']['value']:.4g}", flush=True)

    summary = {}
    for m in bench["end_to_end"]:
        q1, med, q3 = statistics.quantiles(values[m["name"]], n=4)
        spread = (q3 - q1) / med if med else 0.0
        summary[m["name"]] = {"median": med, "q1": q1, "q3": q3,
                              "spread": spread, "bound": m["bound"],
                              "unit": m["unit"]}
        flag = "" if spread <= m["bound"] / 3 else "  <-- above bound/3"
        print(f"{m['name']:18s} median {med:.6g} {m['unit']:6s} spread "
              f"{spread:.3f} bound {m['bound']}{flag}")
    print(f"{workload} failed ops: {failed}", flush=True)
    return {"seeds": seeds, "failed_ops": failed, "end_to_end": summary}, \
        report["machine"]


def traced(workload, seed, seconds):
    """Layer shares (total_s / trace.traced_s) of one traced run."""
    _, result = run_once(workload, seed, seconds, trace=1)
    m = {k: v["value"] for k, v in result["metrics"].items()}
    base = m["trace.traced_s"]
    shares = {k[:-len(".total_s")]: round(v / base, 3)
              for k, v in m.items()
              if k.endswith(".total_s") and not k.startswith("catalog.")
              and m[k[:-len("total_s")] + "calls"]}
    print(f"{workload} traced: " + ", ".join(
        f"{k} {v}" for k, v in shares.items() if v >= 0.05), flush=True)
    return {"seed": seed, "seconds": seconds, "failed_ops": result["failed"],
            "shares": shares, **{k: m[k] for k in TRACE_KEPT}}


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", action="append",
                    choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--baseline", type=Path)
    args = ap.parse_args()

    names = args.workload or [w["name"] for w in bench["workloads"]]
    measured = {}
    for workload in names:
        measured[workload], machine = measure(
            bench, workload, args.seeds, args.seconds)
    if args.baseline:
        args.baseline.write_text(json.dumps({
            "note": "bench/spread.py --baseline: end_to_end holds the median "
                    "and quartiles of each metric over the seeds, spread = "
                    "(Q3 - Q1) / median; trace holds one --trace 1 run per "
                    "workload at the first seed, shares = total_s / "
                    "trace.traced_s",
            "run_seconds": args.seconds,
            "machine": machine,
            "workloads": measured,
            "trace": {w: traced(w, args.seeds[0], args.seconds)
                      for w in wl.WORKLOADS},
        }, indent=1) + "\n")


if __name__ == "__main__":
    main()
