#!/usr/bin/env bash
# Runs tests by name and fails unless every name printed its own
# "--- PASS: <name> " line, so a renamed or deleted test fails the run
# instead of silently matching nothing:
#
#   bash .github/named-tests.sh [go test flags] PKG... -- NAME...
#
# Arguments before "--" that start with "-" are go test flags (-race,
# -short); the others are packages. Each name is a top-level test.
set -euo pipefail
flags=()
pkgs=()
while [ $# -gt 0 ] && [ "$1" != -- ]; do
	case $1 in
	-*) flags+=("$1") ;;
	*) pkgs+=("$1") ;;
	esac
	shift
done
if [ $# -lt 2 ] || [ ${#pkgs[@]} -eq 0 ]; then
	echo "usage: $0 [go test flags] PKG... -- NAME..." >&2
	exit 2
fi
shift
pattern="^($(IFS='|'; echo "$*"))\$"
if ! out=$(go test "${flags[@]}" -count 1 -v -run "$pattern" "${pkgs[@]}" 2>&1); then
	echo "$out"
	exit 1
fi
echo "$out" | grep -E '^(ok|FAIL|PASS)' || true
for name in "$@"; do
	echo "$out" | grep -q -- "^--- PASS: $name " || { echo "::error::$name did not run"; exit 1; }
done
