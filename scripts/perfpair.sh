#!/bin/sh
# Wall-time tripwire: run the repository benchmark's suite-run workload
# (perfbench/, BENCHMARK.json) in five alternating pairs, one run of
# BASE's committed tree and one of the working tree per seed, on one
# host, then judge the working tree's medians against BASE's at
# BENCHMARK.json's bounds. It catches a regression past those bounds;
# it is not a performance claim, which takes ten pairs (DESIGN.md §12).
# Usage:
#
#   scripts/perfpair.sh BASE    # BASE is any commit, e.g. a merge-base
#
# Exits 1 as soon as a run fails (a wrong value or no result), and
# after printing the comparison table if any end-to-end metric
# regressed past its bound; 2 if BASE is missing or not a commit.
set -eu
cd "$(dirname "$0")/.."

if [ $# -ne 1 ]; then
    echo "usage: scripts/perfpair.sh BASE" >&2
    exit 2
fi
BASE=$1
if ! git rev-parse -q --verify "$BASE^{commit}" > /dev/null; then
    echo "perfpair.sh: $BASE is not a commit" >&2
    exit 2
fi
SECONDS_PER_RUN=10
PAIRS=5

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
mkdir "$WORK/base"
git archive "$BASE" | tar -x -C "$WORK/base"
# Both sides build through one Go cache; each keeps its own binary.
mkdir -p .bench_build/gocache "$WORK/base/.bench_build"
ln -s "$(pwd)/.bench_build/gocache" "$WORK/base/.bench_build/gocache"

run() { # run SIDE SEED: one suite-run, its record appended to SIDE.jsonl
    if [ "$1" = base ]; then dir="$WORK/base"; else dir=.; fi
    echo "== $1, seed $2 =="
    if ! out=$(cd "$dir" && python3 perfbench/run.py --workload suite-run \
        --seed "$2" --seconds "$SECONDS_PER_RUN" --trace 0); then
        echo "perfpair.sh: the $1 run with seed $2 failed" >&2
        exit 1
    fi
    printf '{"workload":"suite-run","seed":%d,"result":%s}\n' \
        "$2" "$(printf '%s\n' "$out" | tail -n 1)" >> "$WORK/$1.jsonl"
}

seed=1
while [ "$seed" -le "$PAIRS" ]; do
    # Alternate which side runs first, so a drift in the host's speed
    # over the run does not favour one side.
    if [ $((seed % 2)) -eq 1 ]; then
        run base "$seed"
        run cand "$seed"
    else
        run cand "$seed"
        run base "$seed"
    fi
    seed=$((seed + 1))
done

echo "== working tree against $BASE: $PAIRS pairs of suite-run at ${SECONDS_PER_RUN}s =="
.bench_build/perfbench -compare BENCHMARK.json "$WORK/base.jsonl" "$WORK/cand.jsonl"
