#!/usr/bin/env bash
# loc.sh prints the non-test Go line count of every package directory outside
# benchmark/ (a module of its own), then the total: .go files that are not
# _test.go, with blank lines and lines holding only a // comment dropped.
# This is the size ROADMAP.md and CHANGES.md quote. Run it from the
# repository root: bash scripts/loc.sh (or make loc).
set -euo pipefail

find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path './.*' -print0 |
	xargs -0 awk '
		{ line = $0; gsub(/^[ \t]+|[ \t]+$/, "", line) }
		line == "" || line ~ /^\/\// { next }
		{ dir = FILENAME; sub(/\/[^\/]*$/, "", dir); sub(/^\.\//, "", dir); n[dir]++; total++ }
		END {
			sort = "sort -k2"
			for (d in n) printf "%6d %s\n", n[d], d | sort
			close(sort)
			printf "%6d total\n", total
		}'
