#!/usr/bin/env bash
# Alternating perfbench pairs: a parent commit against the working tree.
#
#   scripts/perfpair.sh --parent REF --workload W --seed S --pairs N \
#       [--seconds T]
#
# Exports REF into a fresh directory under $TMPDIR (git archive, so an
# interrupted run leaves no state in the repository's .git) and removes it
# on any exit. Then runs `python3 perfbench/run.py --workload W --seed S
# --seconds T` (T defaults to 20) 2N times, alternating between the REF
# copy and the working tree, the parent first in odd pairs and the change
# first in even ones. Each side builds its own perfbench into its own
# checkout (.bench_build/), so CARGO_TARGET_DIR is cleared for every run.
#
# Prints one line per run: the four end-to-end metrics, the run's failed
# operations and the steal from perfbench's stderr host line. Ends with a
# summary per metric: medians with quartiles per side, the change/parent
# ratio of the medians, the per-pair ratios, the parent's quartile spread
# against the gap between the medians, and the pairs each side won.
#
# Exits non-zero if any run fails or reports a failed operation. Never
# touches the page cache or perfbench/; each run's full output stays in
# $TMPDIR until the script exits.
set -euo pipefail

usage() {
  echo "usage: $0 --parent REF --workload W --seed S --pairs N" \
       "[--seconds T]" >&2
  exit 2
}

parent="" workload="" seed="" pairs="" seconds=20
while [ $# -gt 0 ]; do
  case "$1" in
    --parent) parent="${2:-}"; shift 2 ;;
    --workload) workload="${2:-}"; shift 2 ;;
    --seed) seed="${2:-}"; shift 2 ;;
    --pairs) pairs="${2:-}"; shift 2 ;;
    --seconds) seconds="${2:-}"; shift 2 ;;
    *) usage ;;
  esac
done
[ -n "$parent" ] && [ -n "$workload" ] && [ -n "$seed" ] && [ -n "$pairs" ] \
  || usage
case "$pairs" in ''|*[!0-9]*) usage ;; esac
[ "$pairs" -ge 1 ] || usage

root=$(git rev-parse --show-toplevel)
cd "$root"
commit=$(git rev-parse --verify "${parent}^{commit}")
work=$(mktemp -d "${TMPDIR:-/tmp}/perfpair.XXXXXX")
trap 'rm -rf "$work"' EXIT
trap 'exit 130' INT TERM
mkdir "$work/parent" "$work/runs"
git archive "$commit" | tar -x -C "$work/parent"
echo "perfpair: parent $commit in $work/parent; change = working tree $root" >&2

run_side() {  # run_side SIDE PAIR
  local side=$1 pair=$2 dir out
  if [ "$side" = parent ]; then dir="$work/parent"; else dir="$root"; fi
  out="$work/runs/$pair-$side"
  if ! (cd "$dir" && env -u CARGO_TARGET_DIR python3 perfbench/run.py \
          --workload "$workload" --seed "$seed" --seconds "$seconds" \
          >"$out.json" 2>"$out.err"); then
    echo "perfpair: $side run of pair $pair failed; its stderr:" >&2
    tail -n 20 "$out.err" >&2
    exit 1
  fi
  python3 - "$side" "$pair" "$out" <<'EOF'
import json, sys
side, pair, out = sys.argv[1:]
result = json.loads(open(out + ".json").read().strip().splitlines()[-1])
host = [l for l in open(out + ".err") if l.startswith("perfbench: host ")]
steal = (json.loads(host[-1][len("perfbench: host "):])["steal_pct"]
         if host else float("nan"))
m = {k: v["value"] for k, v in result["metrics"].items()}
print(f"pair {int(pair):2d} {side:6s} " +
      " ".join(f"{k}={m[k]:.4g}" for k in sorted(m)) +
      f" failed={result['failed']} steal={steal:.2f}%", flush=True)
sys.exit(1 if result["failed"] or not result["correct"] else 0)
EOF
}

for pair in $(seq 1 "$pairs"); do
  if [ $((pair % 2)) -eq 1 ]; then
    run_side parent "$pair"; run_side change "$pair"
  else
    run_side change "$pair"; run_side parent "$pair"
  fi
done

python3 - "$work/runs" "$pairs" "$root/BENCHMARK.json" <<'EOF'
import json, statistics, sys
runs, pairs, spec = sys.argv[1], int(sys.argv[2]), sys.argv[3]
better = {m["name"]: m["better"] for m in json.load(open(spec))["end_to_end"]}

def metrics(pair, side):
    text = open(f"{runs}/{pair}-{side}.json").read().strip().splitlines()[-1]
    return {k: v["value"] for k, v in json.loads(text)["metrics"].items()}

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], statistics.median(xs), q[2]

parent = [metrics(p, "parent") for p in range(1, pairs + 1)]
change = [metrics(p, "change") for p in range(1, pairs + 1)]
print(f"\nsummary over {pairs} pairs (median (q1-q3); ratio = change/parent)")
for name in sorted(parent[0]):
    a = [r[name] for r in parent]
    b = [r[name] for r in change]
    qa, qb = quartiles(a), quartiles(b)
    ratios = [y / x if x else float("nan") for x, y in zip(a, b)]
    lower = better.get(name, "lower") == "lower"
    wins = sum((y < x) if lower else (y > x) for x, y in zip(a, b))
    losses = sum((y > x) if lower else (y < x) for x, y in zip(a, b))
    print(f"{name}: parent {qa[1]:.4g} ({qa[0]:.4g}-{qa[2]:.4g}), "
          f"change {qb[1]:.4g} ({qb[0]:.4g}-{qb[2]:.4g}), "
          f"ratio {qb[1] / qa[1] if qa[1] else float('nan'):.3f}, "
          f"parent IQR {qa[2] - qa[0]:.4g} vs gap {abs(qb[1] - qa[1]):.4g}, "
          f"wins change {wins} / parent {losses} ({better.get(name, '?')} "
          f"is better)")
    print("  per-pair ratios: " + " ".join(f"{r:.3f}" for r in ratios))
EOF
