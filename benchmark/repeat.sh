#!/usr/bin/env bash
# Repeatability check of the benchmark against its own bounds.
#
#   benchmark/repeat.sh [runs-per-set]        (default 10)
#
# Two sets of runs of every workload, each run with another --seed, started
# with the command in BENCHMARK.json. For every end-to-end metric: the
# spread of each set (distance between the first and third quartile over
# the median) must stay within the metric's bound, and the second set's
# median may not be worse than the first's by more than the bound. Then
# two traced runs per workload at one seed, whose exact metrics (the ones
# a run's table marks `exact`: counts and digests) must agree bit for bit.
# Prints a Markdown report (benchmark/REPEATABILITY.md is this output);
# exits 1 on any disagreement.
set -euo pipefail
cd "$(dirname "$0")/.."
exec python3 - "${1:-10}" <<'PY'
import json, statistics, subprocess, sys

runs = int(sys.argv[1])
spec = json.load(open("BENCHMARK.json"))
seconds = spec["run_seconds"]

def run(workload, seed, trace):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    *table, last = done.stdout.strip().splitlines()
    result = json.loads(last)
    if done.returncode != 0 or not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: exit {done.returncode}, {result['failed']} failed")
    exact = [row.split()[0] for row in table if row.endswith(" exact")]
    return {name: m["value"] for name, m in result["metrics"].items()}, exact

def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)

ok = True
print(f"# Repeatability\n\nTwo sets of {runs} runs per workload, {seconds} s each, "
      f"seeds 1-{runs} and {runs + 1}-{2 * runs}.\n")
print("| workload | metric | bound | spread 1 | spread 2 | median 1 | median 2 | worse by | verdict |")
print("|---|---|---|---|---|---|---|---|---|")
sets = [{w["name"]: [run(w["name"], s * runs + i + 1, 0)[0] for i in range(runs)]
         for w in spec["workloads"]} for s in (0, 1)]
for w in spec["workloads"]:
    for m in spec["end_to_end"]:
        name, bound = m["name"], m["bound"]
        a, b = ([r[name] for r in s[w["name"]]] for s in sets)
        ma, mb = statistics.median(a), statistics.median(b)
        worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
        spreads = [spread(a), spread(b)]
        good = worse <= bound and max(spreads) <= bound
        ok &= good
        print(f"| {w['name']} | {name} | {bound} | {spreads[0]:.4f} | {spreads[1]:.4f} | "
              f"{ma:.6g} | {mb:.6g} | {worse:+.4f} | {'ok' if good else 'FAIL'} |")

print("\n## Exact metrics, two traced runs at seed 7\n")
print("| workload | identical | differing |")
print("|---|---|---|")
for w in spec["workloads"]:
    (first, exact), (second, _) = (run(w["name"], 7, 1) for _ in range(2))
    differing = [n for n in exact if first[n] != second[n]]
    ok &= bool(exact) and not differing
    print(f"| {w['name']} | {len(exact) - len(differing)} of {len(exact)} | "
          f"{', '.join(differing) or '-'} |")

print(f"\n{'All within bounds.' if ok else 'DISAGREEMENT: see FAIL rows.'}")
sys.exit(0 if ok else 1)
PY
