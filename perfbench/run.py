#!/usr/bin/env python3
"""perfbench: the repository's end-to-end benchmark.

Builds perfbench/ (the dagsfc libraries plus the dagsfc_perfbench binary),
runs a workload in fresh processes, checks its correctness gate and
recorded digests, saves a run record, and prints the result as the last
line of stdout:

    python3 perfbench/run.py --workload serve_churn --seed 3 --seconds 20 --trace 0

--trace 0 prints every end-to-end metric of BENCHMARK.json; --trace 1 runs
the workload twice, untraced then traced, and prints every per-layer metric
(bench.trace_overhead_ratio compares the two throughputs). setup_s and its
parts are medians over three cold set-ups: the untraced run's and two
set-up-only processes'. --workload all runs every workload of
BENCHMARK.json, one process at a time; regional_hier is held out of it and
runs only by name. --record-digests 0-63 records the input and cost digests
of those seeds into perfbench/digests.json. See perfbench/README.md.
"""

import argparse
import datetime
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fig6_offline", "serve_churn", "regional_hier")
SEED_INDEPENDENT = ("fig6_offline",)  # inputs and costs are the same per seed
BUILD_TYPE = "RelWithDebInfo"
DIGESTS = os.path.join(HERE, "digests.json")
RUN_BUDGET_S = 175  # per workload, every process of a traced run included
SETUP_PROCESSES = 3  # cold set-ups per run, the untraced run's included
SETUP_METRICS = ("setup_s", "bench.inputs_s", "bench.build_s", "bench.warmup_s")


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Configures (once) and builds dagsfc_perfbench; returns its path."""
    bdir = build_dir()
    generated = [os.path.join(bdir, f) for f in ("build.ninja", "Makefile")]
    if not any(os.path.exists(f) for f in generated):
        cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, timeout=120)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", bdir, "--target", "dagsfc_perfbench", "-j", jobs],
        check=True, stdout=sys.stderr, timeout=600)
    return os.path.join(bdir, "dagsfc_perfbench")


def run_binary(binary, workload, seed, seconds, traced, deadline):
    """One workload in a fresh process (set-up only at 0 seconds); returns
    its record."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds)), "--trace", "1" if traced else "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.stderr:
        log(proc.stderr.rstrip())
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("%s exited with %d" % (workload, proc.returncode))
    rec = json.loads(lines[-1])
    rec["setup_only"] = seconds == 0
    return rec


def load_json(path, default):
    if not os.path.exists(path):
        return default
    with open(path) as f:
        return json.load(f)


def check_record(rec, digests):
    """Problems with one record: its own gate plus the recorded digests."""
    problems = list(rec["errors"])
    if rec["failed"] != 0:
        problems.append("%d of %d ops failed" % (rec["failed"], rec["attempted"]))
    if rec["setup_only"]:  # the warm-up's own gate; no window, no digests
        return problems
    ok_ratio = rec["metrics"]["ok_ratio"]["value"]
    if ok_ratio != 1.0:
        problems.append("ok_ratio %r" % ok_ratio)
    recorded = digests.get(rec["workload"], {})
    want = recorded.get("*", recorded.get(str(rec["seed"])))
    if want is None:
        log("note: no recorded digests for %s seed %s" % (rec["workload"], rec["seed"]))
        return problems
    if want["input"] != rec["input_digest"]:
        problems.append("input digest %s != recorded %s" % (rec["input_digest"], want["input"]))
    for algo, digest in want.get("costs", {}).items():
        got = rec["cost_digests"].get(algo)
        if got != digest:
            problems.append("%s cost digest %s != recorded %s" % (algo, got, digest))
    return problems


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def save_record(workload, seed, seconds, traced, records, result):
    """Writes the run record under $PERFBENCH_RECORDS (.bench_records)."""
    top = os.environ.get("PERFBENCH_RECORDS", os.path.join(ROOT, ".bench_records"))
    os.makedirs(top, exist_ok=True)
    stamp = datetime.datetime.now(datetime.timezone.utc).strftime("%Y%m%dT%H%M%S%f")
    notes = records[-1]["notes"]
    doc = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(traced),
        "host": {"nproc": os.cpu_count(), "build_type": BUILD_TYPE,
                 "git_sha": git_sha(), "version": notes.get("version"),
                 "build_flags": notes.get("build_flags")},
        "records": records, "result": result,
    }
    path = os.path.join(top, "%s_%s_s%s_t%d.json" % (stamp, workload, seed, int(traced)))
    with open(path, "w") as f:
        json.dump(doc, f, indent=1)
    return path


def print_metrics(title, metrics):
    print("== %s" % title)
    for name in sorted(metrics):
        m = metrics[name]
        print("  %-36s %16.6g %-6s samples=%d" % (name, m["value"], m["unit"], m["samples"]))


def run_workload(binary, spec, workload, seed, seconds, traced):
    """Runs one workload: the set-up-only processes, the untraced run and,
    when traced, the traced run; returns the result object."""
    digests = load_json(DIGESTS, {})
    deadline = time.monotonic() + RUN_BUDGET_S
    records = [run_binary(binary, workload, seed, 0, False, deadline)
               for _ in range(SETUP_PROCESSES - 1)]
    records.append(run_binary(binary, workload, seed, seconds, False, deadline))
    if traced:
        records.append(run_binary(binary, workload, seed, seconds, True, deadline))
    problems = []
    for rec in records:
        problems += check_record(rec, digests)
        title = "set-up only" if rec["setup_only"] else (
            "traced" if rec["traced"] else "untraced")
        print_metrics("%s seed %d %s" % (workload, seed, title), rec["metrics"])
        print("  input digest %s, cost digests %s" % (rec["input_digest"], rec["cost_digests"]))
        print("  notes %s" % json.dumps(rec["notes"], sort_keys=True))
    final = dict(records[-1]["metrics"])
    for name in SETUP_METRICS:
        values = [r["metrics"][name]["value"] for r in records if not r["traced"]]
        final[name] = {"value": statistics.median(values), "unit": "s",
                       "samples": len(values)}
    print_metrics("%s seed %d set-up, median of the untraced processes" % (workload, seed),
                  {name: final[name] for name in SETUP_METRICS})
    if traced:
        untraced = records[-2]["metrics"]["throughput_rps"]["value"]
        final["bench.trace_overhead_ratio"] = {
            "value": final["throughput_rps"]["value"] / untraced, "unit": "ratio", "samples": 2}
    section = "per_layer" if traced else "end_to_end"
    metrics = {}
    for m in spec[section]:
        got = final.get(m["name"])
        if got is not None and got["value"] is None:
            problems.append("metric %s is not finite" % m["name"])
            got = None
        elif got is None and not traced:
            problems.append("metric %s missing" % m["name"])
        # A layer the workload does not run reads 0 with 0 samples.
        metrics[m["name"]] = {"value": got["value"] if got else 0.0, "unit": m["unit"]}
    for p in problems:
        print("  FAIL: %s" % p)
    failed = sum(r["failed"] for r in records)
    if problems and failed == 0:
        failed = 1  # a run-level check failed (digest, drain, residuals)
    result = {
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in records),
        "failed": failed,
        "metrics": metrics,
    }
    path = save_record(workload, seed, seconds, traced, records, result)
    print("  record %s" % os.path.relpath(path, ROOT))
    return result


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def record_digests(binary, workloads, seeds):
    digests = load_json(DIGESTS, {})
    for workload in workloads:
        # fig6_offline walks one fixed corpus: recorded once, for every seed.
        todo = seeds[:2] if workload in SEED_INDEPENDENT else seeds
        entries = {}
        for seed in todo:
            rec = run_binary(binary, workload, seed, 0.05, False,
                             time.monotonic() + RUN_BUDGET_S)
            entries[str(seed)] = {"input": rec["input_digest"]}
            if rec["cost_digests"]:
                entries[str(seed)]["costs"] = rec["cost_digests"]
            log("%s seed %d: %s" % (workload, seed, json.dumps(entries[str(seed)])))
        if workload in SEED_INDEPENDENT:
            first = next(iter(entries.values()))
            if any(e != first for e in entries.values()):
                raise RuntimeError("%s digests depend on the seed" % workload)
            entries = {"*": first}
        digests.setdefault(workload, {}).update(entries)
    with open(DIGESTS, "w") as f:
        json.dump(digests, f, indent=1, sort_keys=True)
        f.write("\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="timed phase per run (default: BENCHMARK.json run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-digests", metavar="LO-HI",
                    help="record input/cost digests of these seeds and exit")
    args = ap.parse_args()

    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"), None)
    if spec is None:
        log("perfbench: BENCHMARK.json not found at the repository root")
        return 2
    try:
        binary = build()
    except (OSError, subprocess.SubprocessError) as e:
        log("perfbench: build failed: %s" % e)
        return 1
    listed = tuple(w["name"] for w in spec["workloads"])
    if args.record_digests:
        record_digests(binary, listed, parse_seeds(args.record_digests))
        return 0

    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    workloads = listed if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for w in workloads:
            results[w] = run_workload(binary, spec, w, args.seed, seconds, bool(args.trace))
    except (OSError, subprocess.SubprocessError, RuntimeError, ValueError, KeyError) as e:
        log("perfbench: run failed: %s" % e)
        return 1
    if len(results) == 1:
        out = results[workloads[0]]
    else:
        out = {"correct": all(r["correct"] for r in results.values()),
               "attempted": sum(r["attempted"] for r in results.values()),
               "failed": sum(r["failed"] for r in results.values()),
               "metrics": {"%s.%s" % (w, k): v for w, r in results.items()
                           for k, v in r["metrics"].items()}}
    print(json.dumps(out, sort_keys=True))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
