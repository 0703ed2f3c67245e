"""Summarize and compare saved runs of perfbench/run.py.

    python3 perfbench/compare.py --summary LOG...           # medians as JSON
    python3 perfbench/compare.py --base LOG... --new LOG... # parent vs change

Each LOG is the standard output of one run. Runs are comparable only when
their environment records agree (the git commit aside: it names the code
under test); otherwise the comparison is refused with exit code 2, because
core count, BLAS threads and library versions move these numbers more than
most code changes do.
"""

import argparse
import json
import os
import re
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def read_log(path):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    env = next(json.loads(ln[len("perfbench env "):]) for ln in lines
               if ln.startswith("perfbench env "))
    head = next(ln for ln in lines if ln.startswith("perfbench workload="))
    fields = dict(re.findall(r"(\w+)=(\S+)", head))
    return {"env": env, "workload": fields["workload"], "trace": fields["trace"],
            "result": json.loads(lines[-1])}


def comparable(env):
    return {k: v for k, v in env.items() if k != "git_commit"}


def summarize(runs):
    out = {}
    for run in runs:
        key = run["workload"] if run["trace"] == "0" else run["workload"] + "/trace"
        entry = out.setdefault(key, {"runs": 0, "attempted": 0, "failed": 0, "metrics": {}})
        entry["runs"] += 1
        entry["attempted"] += run["result"]["attempted"]
        entry["failed"] += run["result"]["failed"]
        for name, m in run["result"]["metrics"].items():
            entry["metrics"].setdefault(name, {"unit": m["unit"], "values": []})["values"].append(m["value"])
    for entry in out.values():
        for m in entry["metrics"].values():
            values = m.pop("values")
            m["median"] = statistics.median(values)
            m["n"] = len(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                m["q1"], m["q3"] = q1, q3
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description="Summarize or compare perfbench runs.")
    parser.add_argument("--summary", nargs="+", metavar="LOG")
    parser.add_argument("--base", nargs="+", metavar="LOG")
    parser.add_argument("--new", nargs="+", metavar="LOG")
    args = parser.parse_args(argv)
    if not args.summary and not (args.base and args.new):
        parser.error("give --summary LOG... or both --base LOG... and --new LOG...")
    runs = [read_log(p) for p in (args.summary or args.base + args.new)]
    envs = {json.dumps(comparable(r["env"]), sort_keys=True) for r in runs}
    if len(envs) > 1:
        print("refusing: runs come from different environments:\n" + "\n".join(sorted(envs)),
              file=sys.stderr)
        return 2
    if args.summary:
        print(json.dumps({"environment": comparable(runs[0]["env"]),
                          "workloads": summarize(runs)}, indent=1, sort_keys=True))
        return 0
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = {m["name"]: m for m in json.load(fh)["end_to_end"]}
    base, new = summarize(runs[:len(args.base)]), summarize(runs[len(args.base):])
    worse = 0
    for workload in sorted(set(base) & set(new)):
        for name, b in sorted(base[workload]["metrics"].items()):
            n = new[workload]["metrics"].get(name)
            if n is None or name not in spec:
                continue
            change = (n["median"] - b["median"]) / b["median"]
            if spec[name]["better"] == "higher":
                change = -change
            spread = (b.get("q3", b["median"]) - b.get("q1", b["median"])) / b["median"]
            verdict = "worse" if change > spec[name]["bound"] else "ok"
            if spread > spec[name]["bound"]:
                verdict = "unresolved"
            worse += verdict == "worse"
            print(f"{workload:13s} {name:12s} base={b['median']:.6g} new={n['median']:.6g} "
                  f"{spec[name]['unit']} worse_by={change:+.3f} bound={spec[name]['bound']} {verdict}")
        print(f"{workload:13s} failed base={base[workload]['failed']}/{base[workload]['attempted']} "
              f"new={new[workload]['failed']}/{new[workload]['attempted']}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
