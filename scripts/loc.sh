#!/usr/bin/env sh
# loc.sh — non-test Go lines per package (wc -l, comments and blanks
# included), the bookkeeping CHANGES.md records for every PR.
#
#   scripts/loc.sh                      # every package under internal/ and cmd/
#   scripts/loc.sh internal/avis cmd    # just these trees
set -eu

cd "$(dirname "$0")/.."

[ $# -gt 0 ] || set -- internal cmd
total=0
for dir in $(find "$@" -type f -name '*.go' ! -name '*_test.go' -exec dirname {} \; | sort -u); do
	n=$(find "$dir" -maxdepth 1 -type f -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l)
	printf '%6d  %s\n' "$n" "$dir"
	total=$((total + n))
done
printf '%6d  total\n' "$total"
