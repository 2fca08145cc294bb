#!/usr/bin/env bash
# Measures the benchmark's baseline and its stability: every workload at ten
# seeds, in two independent sets, plus one traced pass per workload; then
# prints every metric's median, quartiles and quartile spread per set.
#
#   bash bench/baseline.sh            # from the repository root
#
# Results land in .bench_build/baseline/. With the run length in
# BENCHMARK.json this takes about 40 minutes on two cores.
set -euo pipefail

out=.bench_build/baseline
mkdir -p "$out"
seconds=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)
workloads=(replay megagrid corun sweep whatif)

for set in 1 2; do
	for w in "${workloads[@]}"; do
		: >"$out/set$set-$w.ndjson"
		for i in $(seq 1 10); do
			seed=$(((set - 1) * 10 + i))
			bash bench/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 |
				tail -n 1 >>"$out/set$set-$w.ndjson"
		done
	done
done
for w in "${workloads[@]}"; do
	bash bench/run.sh --workload "$w" --seed 0 --seconds "$seconds" --trace 1 \
		--spans "$out/spans-$w.ndjson" | tail -n 1 >"$out/traced-$w.ndjson"
done

summarize() { .bench_build/hcmdbench --summarize "$@"; }
for w in "${workloads[@]}"; do
	summarize "$out/set1-$w.ndjson" "$out/set2-$w.ndjson"
done
summarize "$out"/traced-*.ndjson
