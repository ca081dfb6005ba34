#!/usr/bin/env bash
# pairs.sh <rev> <workload> <n> [seed]
#
# Alternating benchmark pairs: the parent <rev> against the change, each
# run as `benchmark/run.sh --workload W --seed S --seconds 16 --trace 0`
# in a tree of its own, n pairs, the parent first in odd pairs and the
# change first in even ones. It prints,
# for every end-to-end metric of BENCHMARK.json, the parent's and the
# change's medians, the parent's IQR, the change's wins out of n and a
# verdict:
#
#   identical           seek_pages_per_read / page_reads_per_object equal
#                       to the last digit in every pair (else DIFFERENT);
#   unresolved          the medians differ by no more than the parent's IQR;
#   better              the change's median is better by more than the IQR,
#                       "claim holds" when it also wins at least 9 pairs
#                       in 10;
#   within bound        worse by more than the IQR but no more than the
#                       metric's bound: not a regression;
#   worse               worse by more than both the IQR and the bound.
#
# The change is the checkout this script sits in, uncommitted edits
# included; PAIRS_CHANGE=<rev> exports that revision instead. <rev> (and
# PAIRS_CHANGE) are exported with `git archive` into PAIRS_DIR (default: a
# new temporary directory), so each tree builds into its own
# .bench_build/. Every raw result line is kept in PAIRS_DIR/results.tsv.
#
# An A/A check is `PAIRS_CHANGE=HEAD scripts/pairs.sh HEAD <workload> <n>`:
# no verdict should be "DIFFERENT" or "worse".
set -euo pipefail

if [ $# -lt 3 ] || [ $# -gt 4 ]; then
	echo "usage: $0 <rev> <workload> <n> [seed]" >&2
	exit 2
fi
rev=$1 workload=$2 n=$3 seed=${4:-7}
repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
dir=${PAIRS_DIR:-$(mktemp -d)}
mkdir -p "$dir"

export_rev() { # export_rev <rev> <dest>
	rm -rf "$2"
	mkdir -p "$2"
	git -C "$repo" archive "$1" | tar -x -C "$2"
}

export_rev "$rev" "$dir/parent"
change=$repo
if [ -n "${PAIRS_CHANGE:-}" ]; then
	export_rev "$PAIRS_CHANGE" "$dir/change"
	change=$dir/change
fi
echo "parent $rev ($(git -C "$repo" rev-parse --short "$rev")) in $dir/parent" >&2
echo "change ${PAIRS_CHANGE:-the checkout} in $change" >&2
echo "workload $workload, seed $seed, $n pairs" >&2

results=$dir/results.tsv
: >"$results"
run() { # run <side> <tree> <pair>
	local line
	line=$(cd "$2" && bash benchmark/run.sh --workload "$workload" --seed "$seed" --seconds 16 --trace 0 | tail -n 1)
	printf '%s\t%s\t%s\n' "$1" "$3" "$line" >>"$results"
	echo "pair $3 $1 done" >&2
}
for i in $(seq 1 "$n"); do
	if [ $((i % 2)) -eq 1 ]; then
		run parent "$dir/parent" "$i"
		run change "$change" "$i"
	else
		run change "$change" "$i"
		run parent "$dir/parent" "$i"
	fi
done

python3 - "$results" "$change/BENCHMARK.json" <<'EOF'
import json, statistics, sys

rows = [l.rstrip("\n").split("\t", 2) for l in open(sys.argv[1]) if l.strip()]
decl = json.load(open(sys.argv[2]))
runs = {"parent": {}, "change": {}}
ops = {"parent": [0, 0], "change": [0, 0]}
for side, pair, line in rows:
    r = json.loads(line)
    runs[side][int(pair)] = {k: v["value"] for k, v in r["metrics"].items()}
    ops[side][0] += r.get("failed", 0)
    ops[side][1] += r.get("attempted", 0)
pairs = sorted(set(runs["parent"]) & set(runs["change"]))
n = len(pairs)
exact = {"seek_pages_per_read", "page_reads_per_object"}

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]

print(f"{'metric':24} {'parent':>12} {'change':>12} {'delta':>8} {'IQR(p)':>10} {'wins':>6}  verdict")
for m in decl["end_to_end"]:
    name, lower = m["name"], m["better"] == "lower"
    p = [runs["parent"][i][name] for i in pairs]
    c = [runs["change"][i][name] for i in pairs]
    mp, mc = statistics.median(p), statistics.median(c)
    q1, q3 = quartiles(p)
    iqr = q3 - q1
    wins = sum((ci < pi) if lower else (ci > pi) for pi, ci in zip(p, c))
    delta = (mc - mp) / mp * 100 if mp else 0.0
    if name in exact:
        verdict = "identical" if p == c else "DIFFERENT"
    elif abs(mc - mp) <= iqr:
        verdict = "unresolved"
    elif (mc < mp) == lower:
        verdict = "better"
        if wins * 10 >= 9 * n:
            verdict += " (claim holds)"
    elif mp and abs(mc - mp) / mp <= m["bound"]:
        verdict = f"within bound ({m['bound']:.0%})"
    else:
        verdict = f"worse, past the {m['bound']:.0%} bound"
    print(f"{name:24} {mp:12.6g} {mc:12.6g} {delta:+7.2f}% {iqr:10.4g} {wins:3d}/{n:<2d}  {verdict}")
for side in ("parent", "change"):
    failed, attempted = ops[side]
    print(f"{side}: {failed} of {attempted} operations failed")
EOF
