#!/usr/bin/env bash
# exports.sh — the unused-export scan.
#
# Every exported function or method (`func Name(` / `func (recv) Name(`,
# generic ones too) declared in a root-module non-test file is counted
# against every word occurrence in every .go file of the repository —
# tests and the benchmark/ module included — with `//` comments stripped.
# A name with no occurrence but its declarations is unused; one whose
# other occurrences are all in _test.go files is test-only.
#
# Usage: bash .github/scripts/exports.sh [-v]
#   -v lists the names. Exits 1 when either count is above the one
#   recorded below: lower them here when a change deletes such names.
set -euo pipefail
MAX_UNUSED=0
MAX_TEST_ONLY=43

cd "$(git rev-parse --show-toplevel)"
git ls-files --cached --others --exclude-standard -- '*.go' | xargs awk '
FNR == 1 {
	test = FILENAME ~ /_test\.go$/
	prod = !test && FILENAME !~ /^benchmark\//
}
{
	line = $0
	if (prod && line ~ /^func (\([^)]*\) )?[A-Z]/) {
		s = line
		sub(/^func (\([^)]*\) )?/, "", s)
		match(s, /^[A-Za-z0-9_]+/)
		decl[substr(s, 1, RLENGTH)]++
	}
	sub(/\/\/.*/, "", line)
	while (match(line, /[A-Za-z_][A-Za-z0-9_]*/)) {
		w = substr(line, RSTART, RLENGTH)
		if (test) tests[w]++; else uses[w]++
		line = substr(line, RSTART + RLENGTH)
	}
}
END {
	for (name in decl)
		if (uses[name] == decl[name])
			print (tests[name] ? "test-only" : "unused"), name
}' | sort > "${TMPDIR:-/tmp}/exports.$$"
unused=$(grep -c '^unused ' "${TMPDIR:-/tmp}/exports.$$" || true)
testonly=$(grep -c '^test-only ' "${TMPDIR:-/tmp}/exports.$$" || true)
[ "${1:-}" = -v ] && cat "${TMPDIR:-/tmp}/exports.$$"
rm -f "${TMPDIR:-/tmp}/exports.$$"
echo "unused $unused (at most $MAX_UNUSED), test-only $testonly (at most $MAX_TEST_ONLY)"
if [ "$unused" -gt "$MAX_UNUSED" ] || [ "$testonly" -gt "$MAX_TEST_ONLY" ]; then
	echo "exports: an exported function lost its last non-test caller; delete it, move it to a _test.go file, or unexport it" >&2
	exit 1
fi
