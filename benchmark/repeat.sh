#!/usr/bin/env bash
# Run every workload of BENCHMARK.json N times and print, per workload and
# metric, the median, the quartiles, the spread (quartile distance over the
# median) and the max/min ratio, next to the metric's bound.
#
#   bash benchmark/repeat.sh N [--seconds S] [--trace 0|1] [--first-seed K]
#                              [--out FILE] [--against FILE] [--smoke]
#
# Run i uses seed K+i; the workload order alternates between forward and
# reversed from one round to the next. Result lines go to FILE (default
# benchmark/build/repeat.jsonl), each run's stderr to FILE.stderr. With
# --against, each median is also compared with the median of an earlier
# set, and the shift is flagged when it is worse than the metric's bound.
# The exit code is non-zero when a run failed, a spread exceeds its bound,
# or a shift does.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
rounds="${1:?usage: repeat.sh N [options]}"
shift
seconds="" trace=0 first_seed=1 out="$here/build/repeat.jsonl" against="" smoke=""
while (($#)); do
  case "$1" in
    --seconds) seconds="$2"; shift 2 ;;
    --trace) trace="$2"; shift 2 ;;
    --first-seed) first_seed="$2"; shift 2 ;;
    --out) out="$2"; shift 2 ;;
    --against) against="$2"; shift 2 ;;
    --smoke) smoke="--smoke"; shift ;;
    *) echo "repeat.sh: unknown option $1" >&2; exit 2 ;;
  esac
done

read -r -a workloads < <(python3 -c '
import json, sys
print(" ".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' \
  "$root/BENCHMARK.json")
[[ -n "$seconds" ]] || seconds="$(python3 -c '
import json, sys
print(json.load(open(sys.argv[1]))["run_seconds"])' "$root/BENCHMARK.json")"

mkdir -p "$(dirname "$out")"
: >"$out"
: >"$out.stderr"
for ((i = 0; i < rounds; i++)); do
  order=("${workloads[@]}")
  if ((i % 2 == 1)); then
    order=()
    for ((j = ${#workloads[@]} - 1; j >= 0; j--)); do order+=("${workloads[j]}"); done
  fi
  for w in "${order[@]}"; do
    seed=$((first_seed + i))
    status=0
    echo "== $w seed $seed" >>"$out.stderr"
    line="$(cd "$root" && bash benchmark/run.sh --workload "$w" --seed "$seed" \
      --seconds "$seconds" --trace "$trace" $smoke 2>>"$out.stderr" | tail -n 1)" || status=$?
    echo "{\"workload\": \"$w\", \"seed\": $seed, \"exit\": $status, \"result\": ${line:-null}}" >>"$out"
    echo "round $((i + 1))/$rounds $w seed $seed exit $status" >&2
  done
done

python3 - "$root/BENCHMARK.json" "$out" "$trace" "$against" <<'EOF'
import json, statistics, sys

bench = json.load(open(sys.argv[1]))
key = "per_layer" if sys.argv[3] == "1" else "end_to_end"
metrics = bench[key]

def load(path):
    runs = {}
    for raw in open(path):
        row = json.loads(raw)
        runs.setdefault(row["workload"], []).append(row)
    return runs

def values(rows, name):
    return [r["result"]["metrics"][name]["value"] for r in rows
            if r["result"] and name in r["result"]["metrics"]]

runs = load(sys.argv[2])
base = load(sys.argv[4]) if sys.argv[4] else None
bad = 0
for w in bench["workloads"]:
    rows = runs.get(w["name"], [])
    failed = [r for r in rows if r["exit"] != 0 or not r["result"] or not r["result"]["correct"]]
    print(f"\n{w['name']}: {len(rows)} runs, {len(failed)} failed or incorrect")
    bad += len(failed)
    print(f"  {'metric':28} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'max/min':>8} {'bound':>6}"
          + (f" {'shift':>8}" if base else ""))
    for m in metrics:
        v = values(rows, m["name"])
        if len(v) < 2:
            print(f"  {m['name']:28} (fewer than 2 values)")
            continue
        q1, med, q3 = statistics.quantiles(v, n=4)
        med = statistics.median(v)
        spread = (q3 - q1) / med if med else float("inf")
        ratio = max(v) / min(v) if min(v) > 0 else float("inf")
        bound = m.get("bound")
        over = bound is not None and spread > bound
        flags = []
        if bound is not None and spread > bound / 3:
            flags.append("SPREAD>bound" if over else "SPREAD>bound/3")
        line = (f"  {m['name']:28} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.3f} {ratio:8.3f} "
                + (f"{bound:6.2f}" if bound is not None else f"{'-':>6}"))
        shifted = False
        if base:
            b = values(base.get(w["name"], []), m["name"])
            if b:
                bmed = statistics.median(b)
                worse = (med - bmed) / bmed if m["better"] == "lower" else (bmed - med) / bmed
                line += f" {worse:+8.3f}"
                shifted = bound is not None and worse > bound
                if shifted:
                    flags.append("SHIFT>bound")
        print(line + "".join(" " + f for f in flags))
        # setup_s's spread is not held to its bound; its median shift is.
        if (over and m["name"] != "setup_s") or shifted:
            bad += 1
sys.exit(1 if bad else 0)
EOF
