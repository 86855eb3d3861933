"""Medians and quartiles over result files written by run.py.

    python3 benchmarks/summarize.py benchmarks/out/*.json > summary.json

Groups the files by workload and by trace mode. For each metric it gives
the number of runs, the median, the quartiles (`statistics.quantiles`, n=4)
and the spread, which is the distance between the quartiles as a share of
the median. It also lists the seeds used and the environment of the first
file.
"""

import json
import statistics
import sys


def summarize(paths):
    groups = {}
    env = None
    for path in sorted(paths):
        with open(path) as f:
            result = json.load(f)
        env = env or result["env"]
        key = (result["env"]["workload"], "per_layer" if result["env"]["trace"] else "end_to_end")
        group = groups.setdefault(key, {"seeds": [], "failed": 0, "attempted": 0, "values": {}})
        group["seeds"].append(result["env"]["seed"])
        group["failed"] += result["failed"]
        group["attempted"] += result["attempted"]
        for name, m in result["metrics"].items():
            group["values"].setdefault(name, (m["unit"], []))[1].append(m["value"])
    out = {}
    for (workload, mode), group in sorted(groups.items()):
        metrics = {}
        for name, (unit, values) in sorted(group["values"].items()):
            median = statistics.median(values)
            entry = {"unit": unit, "runs": len(values), "median": median}
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                entry.update(q1=q1, q3=q3, spread=(q3 - q1) / median if median else None)
            metrics[name] = entry
        out.setdefault(workload, {})[mode] = {
            "seeds": group["seeds"], "attempted": group["attempted"],
            "failed": group["failed"], "metrics": metrics}
    env = {k: v for k, v in (env or {}).items() if k not in ("workload", "seed", "trace")}
    return {"env": env, "workloads": out}


if __name__ == "__main__":
    if len(sys.argv) < 2:
        raise SystemExit("usage: summarize.py RESULT.json...")
    print(json.dumps(summarize(sys.argv[1:]), indent=1))
