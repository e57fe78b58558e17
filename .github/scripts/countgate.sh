#!/usr/bin/env bash
# Count gate: run the repo benchmark's workloads — the table-, RIB- and
# BGP-bearing ones and xrl, the IPC one — for a few seconds here (the
# working tree, uncommitted edits included) and at the merge base with
# BASE_REF (default origin/main; the previous commit when HEAD is the merge
# base, as on a push to main), and fail when a machine-independent metric —
# the two allocation counts, and the live heap after the run, which is the
# table — rises by more than its bound in BENCHMARK.json or any op fails.
#
# Then one short traced trickle run per side gates the per-layer counts
# (per route, per transaction, per round trip) at allocs_per_op's bound; a
# count the base reports and here does not fails. Time metrics are
# printed, never gated: a few seconds on a shared runner cannot resolve
# them (pairs.sh is the tool for a time claim). Both sides are checked out
# and run through pairs.sh's add_side and run_side, so through
# benchmark/run.sh. Needs the full history (fetch-depth: 0) and jq.
set -euo pipefail
source "$(dirname "${BASH_SOURCE[0]}")/pairs.sh"
cd "$root"

base="$(git merge-base HEAD "${BASE_REF:-origin/main}")"
if [ "$base" = "$(git rev-parse HEAD)" ]; then
	base="$(git rev-parse --verify --quiet HEAD~1)" || { echo "countgate: no parent commit, skipping"; exit 0; }
fi
if ! git cat-file -e "$base:benchmark/run.sh" 2>/dev/null; then
	echo "countgate: merge base $base has no benchmark/, skipping"
	exit 0
fi

trap cleanup_sides EXIT
logs="$(mktemp -d)"
trees+=("$logs")
add_side "$base"
was_dir="$SIDE_DIR"
add_side ""
now_dir="$SIDE_DIR"

status=0
# value <json> <metric>
value() { jq -r --arg m "$2" '.metrics[$m].value' <<<"$1"; }
# gate <label> <metric> <was> <now> <bound>: fail when now > was × (1 + bound),
# or when here does not report the metric.
gate() {
	local a b
	a="$(value "$3" "$2")"
	b="$(value "$4" "$2")"
	if [ -z "$b" ] || [ "$b" = null ]; then
		echo "FAIL $1 $2: $a at the base, not reported here"
		status=1
	elif jq -en --argjson a "$a" --argjson b "$b" --argjson bound "$5" '$b > $a * (1 + $bound)' >/dev/null; then
		echo "FAIL $1 $2: $a -> $b, more than +$5"
		status=1
	else
		echo "ok   $1 $2: $a -> $b (bound +$5)"
	fi
}
# failed <label> <was> <now>: fail when either side failed an op.
failed() {
	local a b
	a="$(jq -r '.failed' <<<"$2")"
	b="$(jq -r '.failed' <<<"$3")"
	if [ "$a" != 0 ] || [ "$b" != 0 ]; then
		echo "FAIL $1: $a ops failed at the base, $b here"
		status=1
	fi
}
bound_of() { jq -r --arg m "$1" '.end_to_end[] | select(.name == $m) | .bound' BENCHMARK.json; }

for w in trickle bulk routeserver forward xrl; do
	was="$(run_side "$was_dir" "$logs/was.log" "$w" 1 2 0)"
	now="$(run_side "$now_dir" "$logs/now.log" "$w" 1 2 0)"
	failed "$w" "$was" "$now"
	for m in allocs_per_op alloc_bytes_per_op heap_mb; do
		gate "$w" "$m" "$was" "$now" "$(bound_of "$m")"
	done
	for m in wall_us_per_op cpu_us_per_op txn_p50_us; do
		echo "info $w $m: $(value "$was" "$m") -> $(value "$now" "$m") (not gated)"
	done
done

# The per-layer counts, from the traced runs.
was="$(run_side "$was_dir" "$logs/was.log" trickle 1 1 1)"
now="$(run_side "$now_dir" "$logs/now.log" trickle 1 1 1)"
failed "trickle --trace 1" "$was" "$now"
bound="$(bound_of allocs_per_op)"
for m in fwd.snapshots_per_txn fwd.apply_allocs_per_route rib.add_allocs_per_route \
	bgp.group_encodes_per_route bgp.bytes_per_member_route bgp.pipeline_allocs_per_route \
	trie.persistent_insert_allocs xrl.codec_allocs_per_roundtrip; do
	if [ "$(value "$was" "$m")" = null ]; then
		echo "info layers $m: not reported at the base (not gated)"
	else
		gate layers "$m" "$was" "$now" "$bound"
	fi
done
exit $status
