"""Run the benchmark over several seeds and summarise each metric.

    python3 benchmarks/sweep.py --seeds 1-10 [--workloads a,b] [--trace 0|1]
                                [--seconds S] [--out FILE]

Run from the repository root. Each (workload, seed) is one run of
``run.py``, one after another. For every metric the summary gives the
median, the first and third quartiles (``statistics.quantiles(n=4)``) and
the spread, the interquartile distance as a share of the median, which is
what a metric's bound in ``BENCHMARK.json`` is compared against. The
summary, with every run's figures and the output digests, is printed and
written to ``FILE`` when given.

``--compare EARLIER`` sets each run beside the run of the same workload and
seed in an earlier summary, which is what a comparison of a change with its
parent sees: per metric, the ratio of the two medians and the spread of the
per-seed ratios, and whether every seed's output digests are identical.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import run

HERE = os.path.dirname(os.path.abspath(__file__))


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None, "values": values}


def compare(before: dict, runs: list[dict]) -> dict:
    """Ratios of ``runs`` to the runs of the same seeds in ``before``."""
    prior = {r["seed"]: r for r in before["runs"]}
    pairs = [(prior[r["seed"]], r) for r in runs if r["seed"] in prior]
    metrics = {}
    for m in runs[0]["metrics"]:
        if not all(a["metrics"][m]["value"] for a, _ in pairs):
            continue
        metrics[m] = {
            "median_ratio": (statistics.median(b["metrics"][m]["value"] for _, b in pairs)
                             / statistics.median(a["metrics"][m]["value"] for a, _ in pairs)),
            "seed_ratios": summarise([b["metrics"][m]["value"] / a["metrics"][m]["value"]
                                      for a, b in pairs]),
        }
    return {"metrics": metrics,
            "digests_identical": all(a["digests"] == b["digests"] for a, b in pairs)}


def main(argv=None) -> int:
    with open(os.path.join(HERE, "..", "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out")
    parser.add_argument("--compare", metavar="EARLIER")
    args = parser.parse_args(argv)
    earlier = {}
    if args.compare:
        with open(args.compare, encoding="utf-8") as fh:
            earlier = json.load(fh)["workloads"]

    summary = {"seeds": parse_seeds(args.seeds), "trace": args.trace,
               "seconds": args.seconds, "workloads": {}}
    for name in args.workloads.split(","):
        runs = []
        for seed in summary["seeds"]:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                capture_output=True, text=True)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            with open(run.result_path(run.WORK, name, seed, args.trace), encoding="utf-8") as fh:
                digests = json.load(fh)["digests"]
            runs.append({"seed": seed, **result, "digests": digests})
            figures = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
                               if not args.trace or k in ("process.cpu_s",))
            print(f"{name} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} {figures}", flush=True)
        metrics = {
            m: summarise([r["metrics"][m]["value"] for r in runs])
            for m in runs[0]["metrics"]
        }
        summary["workloads"][name] = {
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": metrics,
            "runs": runs,
        }
        for m, s in metrics.items():
            spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
            print(f"  {name} {m}: median {s['median']:.6g} q1 {s['q1']:.6g} "
                  f"q3 {s['q3']:.6g} spread {spread}", flush=True)
        if name in earlier:
            cmp = summary["workloads"][name]["compare"] = compare(earlier[name], runs)
            print(f"  {name} vs earlier: digests identical for every seed: "
                  f"{cmp['digests_identical']}")
            for m, c in cmp["metrics"].items():
                r = c["seed_ratios"]
                print(f"  {name} {m} vs earlier: median ratio {c['median_ratio']:.4f}; "
                      f"per-seed ratio median {r['median']:.4f} q1 {r['q1']:.4f} "
                      f"q3 {r['q3']:.4f} spread {r['spread']:.4f} "
                      f"min {min(r['values']):.4f} max {max(r['values']):.4f}", flush=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
