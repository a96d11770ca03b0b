#!/usr/bin/env bash
# lint_allows.sh — audit every //simcheck:allow directive in shipped code.
#
# Prints one table row per directive (file:line, analyzer list,
# justification) so reviewers can scan the complete set of deliberate
# analyzer exemptions in one place, and exits nonzero if any directive
# has an empty justification. Analyzer fixture trees
# (internal/analysis/*/testdata) and _test.go files are excluded: those
# exercise the directive machinery rather than exempting real code.
#
# `make lint-allows` runs this; `make check` includes it. The table in
# docs/ARCHITECTURE.md §8 is a snapshot of this output, and
# scripts/docs_check.sh fails when its sites differ from this one's.
set -euo pipefail
cd "$(dirname "$0")/.."

rows=$(grep -rn --include='*.go' -E '^[[:space:]]*//simcheck:allow\(' internal cmd 2>/dev/null \
	| grep -v '/testdata/' | grep -v '_test\.go:' || true)

if [ -z "$rows" ]; then
	echo "lint-allows: no //simcheck:allow directives in shipped code"
	exit 0
fi

echo "$rows" | LC_ALL=C sort | awk '
BEGIN {
	FS = ":"
	printf "%-36s %-20s %s\n", "SITE", "ANALYZER(S)", "JUSTIFICATION"
	bad = 0
	n = 0
}
{
	site = $1 ":" $2
	text = $0
	sub(/^[^:]+:[0-9]+:/, "", text)
	sub(/^[[:space:]]*\/\/simcheck:allow\(/, "", text)
	paren = index(text, ")")
	analyzers = substr(text, 1, paren - 1)
	gsub(/[[:space:]]/, "", analyzers)
	just = substr(text, paren + 1)
	sub(/^[[:space:]]+/, "", just)
	sub(/[[:space:]]+$/, "", just)
	n++
	if (just == "") {
		bad++
		just = "<<< MISSING JUSTIFICATION >>>"
	}
	printf "%-36s %-20s %s\n", site, analyzers, just
}
END {
	printf "\n%d directive(s)", n
	if (bad > 0) {
		printf ", %d without a justification\n", bad
		exit 1
	}
	printf ", all justified\n"
}'
