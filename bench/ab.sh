#!/usr/bin/env bash
# Interleaved A/B of the repository benchmark (perfbench) between an old
# revision and the current working tree. Run from anywhere in the repo:
#
#   bash bench/ab.sh OLD W N [SEED] [SECONDS]
#   make ab OLD=<rev> W=<workload> N=<pairs> [SEED=<first seed>] [SECONDS=<s>]
#
# OLD is exported (git archive, so no worktree is registered) into
# .bench_build/ab/<sha>/ and reused on later calls. Each pair runs
#
#   bash perfbench/run.sh --workload W --seed S --seconds SECONDS --trace 0
#
# once in the old tree and once in the working tree with the same seed
# (SEED, SEED+1, ...); the side that runs first alternates pair by pair,
# so drift in the machine's speed hits both sides alike. Each run's
# result line is kept under .bench_build/ab/runs/. The summary gives, per
# end-to-end metric of BENCHMARK.json, the median [first quartile, third
# quartile] of each side, the ratio of medians, and in how many pairs
# the working tree was better; then each run's correct/failed fields.
set -euo pipefail

if [ $# -lt 3 ]; then
	echo "usage: bash bench/ab.sh OLD W N [SEED] [SECONDS]" >&2
	exit 2
fi
old_rev="$1" workload="$2" pairs="$3" seed0="${4:-1001}" seconds="${5:-30}"

root="$(git rev-parse --show-toplevel)"
sha="$(git -C "$root" rev-parse --verify --quiet "$old_rev^{commit}")" || {
	echo "ab: OLD=$old_rev is not a commit" >&2
	exit 2
}
ab="$root/.bench_build/ab"
old="$ab/${sha:0:12}"
if [ ! -f "$old/perfbench/run.sh" ]; then
	rm -rf "$old"
	mkdir -p "$old"
	git -C "$root" archive "$sha" | tar -x -C "$old"
fi
runs="$ab/runs/$(date +%Y%m%d-%H%M%S)-$workload"
mkdir -p "$runs"

# run SIDE DIR SEED: one benchmark run; its last output line is the result.
run() {
	local side="$1" dir="$2" seed="$3"
	echo "ab: $side seed $seed" >&2
	(cd "$dir" && bash perfbench/run.sh --workload "$workload" --seed "$seed" \
		--seconds "$seconds" --trace 0 2>/dev/null | tail -n 1) >"$runs/$side-$seed.json"
}

for ((p = 0; p < pairs; p++)); do
	seed=$((seed0 + p))
	if ((p % 2 == 0)); then
		run old "$old" "$seed"
		run new "$root" "$seed"
	else
		run new "$root" "$seed"
		run old "$old" "$seed"
	fi
done

python3 - "$root/BENCHMARK.json" "$runs" "$seed0" "$pairs" "$old_rev" "$workload" <<'EOF'
import json, statistics, sys

spec, runs, seed0, pairs, old_rev, workload = sys.argv[1:]
seeds = range(int(seed0), int(seed0) + int(pairs))
load = lambda side, s: json.load(open(f"{runs}/{side}-{s}.json"))
old = [load("old", s) for s in seeds]
new = [load("new", s) for s in seeds]

def quart(v):
    q = statistics.quantiles(v, n=4, method="inclusive") if len(v) > 1 else [v[0]] * 3
    return q[1], q[0], q[2]

fmt = lambda x: f"{x:.3g}" if abs(x) < 100 else f"{x:.0f}"
print(f"{workload}: {old_rev} (old) vs working tree (new), {pairs} pairs, seeds {seed0}–{int(seed0) + int(pairs) - 1}\n")
print("| metric | old | new | new/old | new better |")
print("|---|---|---|---|---|")
for m in json.load(open(spec))["end_to_end"]:
    name, lower = m["name"], m["better"] == "lower"
    o = [r["metrics"][name]["value"] for r in old]
    n = [r["metrics"][name]["value"] for r in new]
    wins = sum((b < a) if lower else (b > a) for a, b in zip(o, n))
    (om, oq1, oq3), (nm, nq1, nq3) = quart(o), quart(n)
    ratio = f"{nm / om:.2f}×" if om else "–"
    print(f"| {name} | {fmt(om)} [{fmt(oq1)}, {fmt(oq3)}] | {fmt(nm)} [{fmt(nq1)}, {fmt(nq3)}] | {ratio} | {wins}/{len(o)} |")
print()
for side, rs in (("old", old), ("new", new)):
    print(side, " ".join(f"correct={r['correct']},failed={r['failed']}" for r in rs))
EOF
echo "ab: runs kept in $runs" >&2
