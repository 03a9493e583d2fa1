"""Steadiness check: run each workload repeatedly, one process per run,
alternating the workload order between rounds, with a new seed each round.

    python3 perfbench/steady.py --runs 10 --out .perfbench_out/set-a.json
    python3 perfbench/steady.py --runs 10 --out .perfbench_out/set-b.json \
        --compare .perfbench_out/set-a.json

For every workload and end-to-end metric it prints the median, the
quartiles (`statistics.quantiles(values, n=4)`) and the spread, the distance
between the quartiles as a share of the median, next to the metric's bound
from BENCHMARK.json. With --compare it also prints how far each median moved
against an earlier set, as a share of the earlier median, signed so that
positive is worse.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_once(spec, workload, seed, seconds, trace=0):
    cmd = [sys.executable if c == "python3" else c for c in spec["command"]]
    cmd += ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"values": values, "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf")}


def worse_by(metric, old, new):
    """Relative change of the median, positive when it got worse."""
    change = (new - old) / old
    return -change if metric["better"] == "higher" else change


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seed0", type=int, default=1, help="first seed; round r uses seed0 + r")
    p.add_argument("--workloads", default=None, help="comma list; default: all")
    p.add_argument("--seconds", type=int, default=None,
                   help="default: run_seconds from BENCHMARK.json")
    p.add_argument("--out", default=None, help="write the summary JSON here")
    p.add_argument("--compare", default=None, help="earlier summary JSON")
    args = p.parse_args(argv)

    spec = load_spec()
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    values = {w: {} for w in names}
    failures = []
    for r in range(args.runs):
        for w in (names if r % 2 == 0 else names[::-1]):
            res = run_once(spec, w, args.seed0 + r, seconds)
            if not res["correct"]:
                failures.append((w, args.seed0 + r, res["failed"]))
            for k, m in res["metrics"].items():
                values[w].setdefault(k, []).append(m["value"])
            print(f"round {r} {w}: " + ", ".join(f"{k}={m['value']:.6g}"
                                                for k, m in res["metrics"].items()),
                  flush=True)

    summary = {"runs": args.runs, "seed0": args.seed0, "seconds": seconds,
               "failures": failures, "workloads": {}}
    earlier = None
    if args.compare:
        with open(args.compare) as fh:
            earlier = json.load(fh)["workloads"]
    ok = not failures
    print(f"\n{'workload':16} {'metric':15} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>7} {'bound':>6}" + ("  moved" if earlier else ""))
    for w in names:
        summary["workloads"][w] = {}
        for metric in spec["end_to_end"]:
            k = metric["name"]
            s = summarize(values[w][k])
            summary["workloads"][w][k] = s
            line = (f"{w:16} {k:15} {s['median']:12.6g} {s['q1']:12.6g} {s['q3']:12.6g} "
                    f"{s['spread']:7.4f} {metric['bound']:6.3f}")
            if s["spread"] > metric["bound"]:
                ok = False
                line += "  SPREAD>BOUND"
            if earlier and w in earlier:
                moved = worse_by(metric, earlier[w][k]["median"], s["median"])
                line += f"  {moved:+.4f}"
                if moved > metric["bound"]:
                    ok = False
                    line += " WORSE>BOUND"
            print(line)
    if failures:
        print(f"runs with failed checks: {failures}")
    summary["ok"] = ok
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(summary, fh, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
