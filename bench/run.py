"""Closed-loop benchmark of kregular's certificates and verify suites.

    python3 bench/run.py --workload sl3-full --seed 1 --seconds 30 --trace 0

One client, one thread, jobs=1: each op is one library call on an input
generated from --seed (see workloads.py).  Ops run in rounds of one op
per class (or suite entry) until --seconds have passed, so every run holds
whole rounds and the class mix does not depend on where the clock stops.
Every output is re-checked after the loop (see checks.py).  The last
line of stdout is the result JSON; the line before it is a report with
the machine facts, sample counts, failures and the output digest.

--trace 0 prints the end-to-end metrics.  --trace 1 runs half the time
untraced, then the same rounds with a span around every traced layer
function (see spans.py), and prints the per-layer metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads as wl
from spans import TRACED, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PINS = HERE / "pins.json"
DEFAULT_SEED = 1
SETUP_PROBES = 15
TAIL_BEYOND = 10

# Cold set-up in a fresh interpreter: import plus catalog_build and
# catalog_datum for each size, timed inside the child so interpreter
# start-up is excluded.
SETUP_PROBE = r"""
import sys, time
src = sys.argv[1]
sys.path.insert(0, src)
t0 = time.perf_counter()
import kregular
for size in map(int, sys.argv[2:]):
    alg, cd = kregular.catalog_build("split-sl", size)
    kregular.catalog_datum(alg, cd)
t1 = time.perf_counter()
if not kregular.__file__.startswith(src):
    sys.exit("kregular imported from outside " + src)
print(t1 - t0)
"""


def import_kregular():
    """Import kregular from this checkout's src/, or exit 2."""
    if not (SRC / "kregular" / "__init__.py").is_file():
        sys.exit(f"bench: no kregular sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import kregular

    if not Path(kregular.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"bench: kregular imported from {kregular.__file__}")
    return kregular


def setup_seconds(sizes):
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_PROBE, str(SRC),
             *map(str, sizes)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def machine_facts(K):
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    q = K.scalar._Q
    return {
        "python": platform.python_version(),
        "scalar_q": f"{q.__module__}.{q.__name__}",
        "gmpy2": q.__module__.startswith("gmpy2"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "jobs": 1,
    }


def digest_of(obj):
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True).encode()).hexdigest()


class Runner:
    """Runs the closed loop and keeps one record per op."""

    def __init__(self, K, workload, seed):
        self.K = K
        self.workload = workload
        self.seed = seed
        self.algebras = {n: K.catalog_build("split-sl", n)
                         for n in wl.sizes(workload)}
        self.pool = wl.pool(workload, seed)
        self.zs = {op.key: tuple(K.Scalar(a, b) for a, b in op.element.coords)
                   for ops in self.pool.values() for op in ops
                   if op.element is not None}
        self.records = []
        self.tracer = None

    def run(self, seconds=None, rounds=None):
        """Whole rounds until `seconds` pass (or exactly `rounds`)."""
        start = time.perf_counter()
        first = len(self.records)
        r = 0
        while True:
            for op in wl.ops_for_round(self.pool, r):
                self.records.append(self.execute(op))
            r += 1
            if rounds is not None:
                if r >= rounds:
                    break
            elif time.perf_counter() - start >= seconds:
                break
        return r, self.records[first:]

    def execute(self, op):
        K = self.K
        alg, cd = self.algebras[op.size]
        rec = {"op": op, "error": None, "out": None}
        t0 = time.perf_counter()
        try:
            if op.suite:
                out = K.verify_suite(alg, cd, op.suite, seed=op.suite_seed,
                                     samples=op.samples, jobs=1)
            else:
                call = getattr(K, wl.CLASS_CALL[op.cls][0])
                out = call(alg, cd, self.zs[op.key], jobs=1)
        except Exception as exc:  # a failed op is counted, the loop goes on
            rec["latency"] = time.perf_counter() - t0
            rec["error"] = f"{type(exc).__name__}: {exc}"
            return rec
        rec["latency"] = time.perf_counter() - t0
        rec["out"] = self.summarize(op, out)
        if self.tracer is not None:
            self.record_grams()
        return rec

    @staticmethod
    def summarize(op, out):
        """What the checks and the digest need; the result is dropped."""
        if op.suite:
            return {"digest": digest_of(out.body_dict()), "ok": out.ok,
                    "failures": out.failures}
        s = {"verdict": out.verdict, "mode": out.mode, "rank": out.rank,
             "witnesses": out.witnesses}
        s["digest"] = digest_of(
            [out.verdict, out.mode, out.rank, out.gram_hash()])
        w = out.witnesses or {}
        if "minor_rows" in w:
            g = out.gram
            s["minor"] = [[g[i, j].to_quad() for j in w["minor_cols"]]
                          for i in w["minor_rows"]]
        if out.verdict == "nil-k":
            s["gram_zero"] = all(checks.quad_is_zero(e.to_quad())
                                 for e in out.gram.entries)
        return s

    def record_grams(self):
        stats = self.gram_stats
        for g in self.tracer.grams:
            stats["count"] += 1
            stats["side"] += g.rows
            for e in g.entries:
                if e:
                    bits = sum(abs(v).bit_length() for v in e.to_quad())
                    if bits > stats["bits"]:
                        stats["bits"] = bits
        self.tracer.grams.clear()

    def traced_run(self, rounds):
        """Trace a cold catalog set-up, then the given number of rounds.

        Only catalog_build keeps what the set-up recorded, so every other
        layer count belongs to the ops alone.
        """
        K = self.K
        self.tracer = Tracer()
        self.gram_stats = {"count": 0, "side": 0, "bits": 0}
        K.catalog.catalog_build.cache_clear()
        self.tracer.install()
        try:
            for n in wl.sizes(self.workload):
                K.catalog_datum(*K.catalog_build("split-sl", n))
            self.tracer.reset()
            _, recs = self.run(rounds=rounds)
        finally:
            self.tracer.uninstall()
        return recs


class Checker:
    """Re-checks every record; results are cached per distinct output."""

    def __init__(self, K, runner, pins):
        self.K = K
        self.runner = runner
        self.pins = pins
        self._filtration = {}
        self._minor = {}
        self._exponents = {}

    def failures(self, rec):
        if rec["error"] is not None:
            return [rec["error"]]
        op, out = rec["op"], rec["out"]
        bad = []
        if self.pins:
            pinned = self.pins.get(op.key)
            if pinned is None:
                bad.append("no pinned digest")
            elif pinned != out["digest"]:
                bad.append(f"digest {out['digest'][:12]} != pinned "
                           f"{pinned[:12]}")
        if op.suite:
            if not out["ok"]:
                bad.append(f"suite report has {out['failures']} failures")
            return bad
        return bad + self.cert_failures(op, out)

    def cert_failures(self, op, out):
        alg, cd = self.runner.algebras[op.size]
        expected = wl.CLASS_CALL[op.cls][1]
        bad = []
        if out["verdict"] != expected:
            bad.append(f"verdict {out['verdict']} != {expected}")
        if expected == "k-regular":
            if op.key not in self._filtration:
                self._filtration[op.key] = self.K.generated_subalgebra(
                    alg, cd, self.runner.zs[op.key]).dim
            if self._filtration[op.key] != alg.dim:
                bad.append(f"filtration dim {self._filtration[op.key]}")
        if out["verdict"] == "k-regular" and "minor" in out:
            minor = out["minor"]
            if len(minor) != out["rank"] or out["rank"] != alg.dim:
                bad.append(f"witness minor of size {len(minor)}")
            elif not self.minor_ok(minor):
                bad.append("witness minor is singular")
        if out["verdict"] == "nil-k":
            if not out["gram_zero"]:
                bad.append("nil-k with a nonzero Gram")
            w = out["witnesses"] or {}
            stated = (w.get("ad_x_exponent"), w.get("ad_y_exponent"))
            if self.exponents(op) != stated:
                bad.append(f"exponents {stated} != {self.exponents(op)}")
        return bad

    def minor_ok(self, minor):
        key = json.dumps(minor)
        if key not in self._minor:
            self._minor[key] = checks.is_nonsingular(checks.cleared_rows(minor))
        return self._minor[key]

    def exponents(self, op):
        e = op.element
        if e.x_mat is None:
            return None
        if op.key not in self._exponents:
            self._exponents[op.key] = tuple(
                checks.nilpotency_exponent(checks.ad_operator(m))
                for m in (e.x_mat, e.y_mat))
        return self._exponents[op.key]


def tail(latencies):
    """(percentile, value, samples beyond) at the highest percentile that
    still has TAIL_BEYOND samples above it; the minimum when there are
    fewer samples than that."""
    xs = sorted(latencies)
    n = len(xs)
    idx = max(n - 1 - TAIL_BEYOND, 0)
    return 100 * (idx + 1) / n, xs[idx], n - 1 - idx


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(records, setup, rss_mb, n_failed):
    lat = [r["latency"] for r in records]
    pct, tail_value, beyond = tail(lat)
    m = {
        "setup_s": metric(statistics.median(setup), "s"),
        "ops_per_s": metric(len(lat) / sum(lat), "1/s"),
        "latency_p50_s": metric(statistics.median(lat), "s"),
        "latency_tail_s": metric(tail_value, "s"),
    }
    for cls in wl.CLASSES:
        xs = [r["latency"] for r in records if r["op"].cls == cls]
        m[f"{cls}_p50_s"] = metric(statistics.median(xs), "s")
    m["ok_ratio"] = metric((len(lat) - n_failed) / len(lat), "ratio")
    m["peak_rss_mb"] = metric(rss_mb, "MB")
    info = {"tail_percentile": pct, "tail_samples_beyond": beyond,
            "samples": len(lat)}
    return m, info


def per_layer(tracer, recs, gram_stats, untraced):
    m = {}
    for name in TRACED:
        calls, total, self_s = tracer.stats[name]
        m[f"{name}.calls"] = metric(calls, "count")
        m[f"{name}.total_s"] = metric(total, "s")
        m[f"{name}.self_s"] = metric(self_s, "s")
    ops = len(recs)
    certs = (tracer.stats["certify.is_k_regular"][0]
             + tracer.stats["certify.nilcone_test"][0])
    traced = sum(r["latency"] for r in recs)
    scalar_ops = tracer.scalar_ops[0]
    m["scalar.ops"] = metric(scalar_ops, "count")
    m["scalar.ops_per_op"] = metric(scalar_ops / ops, "count/op")
    m["certify.gram_bits_max"] = metric(gram_stats["bits"], "bits")
    m["certify.gram_side_mean"] = metric(
        gram_stats["side"] / max(gram_stats["count"], 1), "rows")
    m["certify.filtrations_per_cert"] = metric(
        tracer.stats["certify.generated_subalgebra"][0] / max(certs, 1),
        "count/cert")
    m["certify.ranks_per_cert"] = metric(
        tracer.stats["linalg.rank_profile"][0] / max(certs, 1), "count/cert")
    m["trace.ops"] = metric(ops, "count")
    m["trace.traced_s"] = metric(traced, "s")
    m["trace.overhead"] = metric(traced / untraced - 1, "ratio")
    return m


def load_pins(workload, seed):
    """Pinned digests of the default seed; every op it runs has one."""
    if seed != DEFAULT_SEED:
        return {}
    return json.loads(PINS.read_text())[workload]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")

    K = import_kregular()
    setup = [] if args.trace else setup_seconds(wl.sizes(args.workload))
    runner = Runner(K, args.workload, args.seed)
    if args.trace:
        rounds, plain = runner.run(seconds=args.seconds / 2)
        recs = runner.traced_run(rounds)
    else:
        rounds, recs = runner.run(seconds=args.seconds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    checker = Checker(K, runner, load_pins(args.workload, args.seed))
    failures = []
    n_failed = 0
    for rec in runner.records:
        bad = checker.failures(rec)
        n_failed += bool(bad)
        failures.extend(f"{rec['op'].key}: {msg}" for msg in bad)

    if args.trace:
        metrics = per_layer(runner.tracer, recs,
                            runner.gram_stats,
                            sum(r["latency"] for r in plain))
        info = {}
    else:
        metrics, info = end_to_end(recs, setup, rss_mb, n_failed)
    outputs = sorted({(r["op"].key, r["out"]["digest"])
                      for r in runner.records if r["out"] is not None})
    report = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "rounds": rounds,
        "machine": machine_facts(K),
        "setup_samples_s": setup,
        "per_class_samples": {c: sum(1 for r in recs if r["op"].cls == c)
                              for c in wl.CLASSES},
        **info,
        "digest": digest_of(outputs),
        "pinned_ops": sum(1 for r in runner.records
                          if r["op"].key in checker.pins),
        "failures": failures[:20],
    }
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": n_failed == 0,
        "attempted": len(runner.records),
        "failed": n_failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
