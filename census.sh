#!/bin/sh
# census.sh — the non-test functions that no test of the tree enters.
#
# Runs every test of the root module once with coverage over the whole tree
# (-coverpkg=./...), keeps each coverage block's largest count across the
# test binaries (each binary reports every package), and prints, sorted, one
# "file function" line per non-test function outside cmd/, examples/ and
# benchmark/ left at 0%. Line numbers are left out, so moving a function
# does not change the list; a newly unreached or newly reached function
# does.
#
# ci.sh compares the output with testdata/unreached.txt. After a change that
# moves the list on purpose, regenerate it:
#
#	sh census.sh > testdata/unreached.txt
set -eu

cd "$(dirname "$0")"

raw="$(mktemp -t census-raw.XXXXXX)"
merged="$(mktemp -t census-merged.XXXXXX)"
log="$(mktemp -t census-log.XXXXXX)"
trap 'rm -f "$raw" "$merged" "$log"' EXIT

if ! go test -count=1 -coverpkg=./... -coverprofile="$raw" ./... >"$log" 2>&1; then
	cat "$log" >&2
	exit 1
fi

# A block line is "file:start,end statements count"; the first line names
# the mode.
awk 'NR == 1 { print; next }
	{
		key = $1 " " $2
		if (!(key in count)) order[++n] = key
		if (!(key in count) || $3 > count[key]) count[key] = $3
	}
	END { for (i = 1; i <= n; i++) print order[i], count[order[i]] }' "$raw" >"$merged"

go tool cover -func="$merged" |
	awk '$NF == "0.0%" { sub(/:[0-9]+:$/, "", $1); print $1, $2 }' |
	grep -vE '^qcc/(cmd|examples)/' |
	LC_ALL=C sort
