#!/usr/bin/env bash
# Count gate: run the repo benchmark's workloads — the table-, RIB- and
# BGP-bearing ones and xrl, the IPC one — for a few seconds at HEAD and
# at the merge base with BASE_REF
# (default origin/main; the previous commit when HEAD is the merge base, as
# on a push to main), and fail when a machine-independent metric — the two
# allocation counts, and the live heap after the run, which is the table —
# rises by more than its bound in BENCHMARK.json or any op fails. Time
# metrics are printed, never gated: a few seconds on a shared runner cannot
# resolve them. Needs the full history (fetch-depth: 0) and jq.
set -euo pipefail
root="$(git rev-parse --show-toplevel)"
cd "$root"

base="$(git merge-base HEAD "${BASE_REF:-origin/main}")"
if [ "$base" = "$(git rev-parse HEAD)" ]; then
	base="$(git rev-parse --verify --quiet HEAD~1)" || { echo "countgate: no parent commit, skipping"; exit 0; }
fi
if ! git cat-file -e "$base:benchmark/run.sh" 2>/dev/null; then
	echo "countgate: merge base $base has no benchmark/, skipping"
	exit 0
fi

tree="$(mktemp -d)"
trap 'git worktree remove --force "$tree" 2>/dev/null || true; rm -rf "$tree"' EXIT
git worktree add --detach --quiet "$tree" "$base"

# run <checkout> <workload>: the benchmark's last stdout line (one JSON object).
run() {
	(cd "$1" && bash benchmark/run.sh --workload "$2" --seed 1 --seconds 2 --trace 0) | tail -n 1
}

status=0
for w in trickle bulk routeserver forward xrl; do
	was="$(run "$tree" "$w")"
	now="$(run "$root" "$w")"
	for side in was now; do
		failed="$(jq -r '.failed' <<<"${!side}")"
		if [ "$failed" != "0" ]; then
			echo "FAIL $w: $failed ops failed ($side)"
			status=1
		fi
	done
	for m in allocs_per_op alloc_bytes_per_op heap_mb; do
		bound="$(jq -r --arg m "$m" '.end_to_end[] | select(.name == $m) | .bound' BENCHMARK.json)"
		a="$(jq -r --arg m "$m" '.metrics[$m].value' <<<"$was")"
		b="$(jq -r --arg m "$m" '.metrics[$m].value' <<<"$now")"
		if jq -en --argjson a "$a" --argjson b "$b" --argjson bound "$bound" '$b > $a * (1 + $bound)' >/dev/null; then
			echo "FAIL $w $m: $a -> $b, more than +$bound"
			status=1
		else
			echo "ok   $w $m: $a -> $b (bound +$bound)"
		fi
	done
	for m in wall_us_per_op cpu_us_per_op txn_p50_us; do
		echo "info $w $m: $(jq -r --arg m "$m" '.metrics[$m].value' <<<"$was") -> $(jq -r --arg m "$m" '.metrics[$m].value' <<<"$now") (not gated)"
	done
done
exit $status
