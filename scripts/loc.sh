#!/usr/bin/env bash
# The ROADMAP's line metric: non-blank, non-comment lines of non-test Go
# outside benchmark/, per package directory and in total. A line counts as a
# comment when `//` is the first thing on it (the tree has no block comments).
#
# With --check the total is a ratchet like reach.sh's list: the script fails
# when it is above the number in scripts/loc.max. A PR that shrinks the tree
# lowers that number to its own total; one that grows it has to raise the
# number in the same diff, where a reviewer sees it.
#
# --check also fails on any non-test function in internal/core longer than
# maxfunc lines: the tree is gofmt'd, so a function runs from a column-0
# `func ` line to the next column-0 `}`, both counted.
#
# usage: scripts/loc.sh [--check]
set -euo pipefail
cd "$(dirname "$0")/.."

out=$(find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' -print0 | sort -z |
  xargs -0 awk '
    FNR == 1 { dir = FILENAME; sub(/^\.\//, "", dir); if (!sub(/\/[^\/]*$/, "", dir)) dir = "." }
    !/^[[:space:]]*($|\/\/)/ { n[dir]++; total++ }
    END {
      for (d in n) printf "%6d %s\n", n[d], d | "sort -k2"
      close("sort -k2")
      printf "%6d total\n", total
    }')
echo "$out"

if [ "${1:-}" = --check ]; then
  total=$(awk '$2 == "total" { print $1 }' <<< "$out") max=$(cat scripts/loc.max)
  if [ "$total" -gt "$max" ]; then
    echo "loc: total $total is above scripts/loc.max ($max)" >&2
    exit 1
  fi
  maxfunc=120
  long=$(find internal/core -name '*.go' ! -name '*_test.go' -print0 | sort -z |
    xargs -0 awk -v max="$maxfunc" '
      /^func / && !/}$/ {
        name = $0; sub(/^func (\([^)]*\) )?/, "", name); sub(/\(.*/, "", name)
        start = FNR; next
      }
      /^}/ && start {
        if (FNR - start + 1 > max) printf "%s:%d %s %d\n", FILENAME, start, name, FNR - start + 1
        start = 0
      }')
  if [ -n "$long" ]; then
    echo "loc: functions in internal/core longer than $maxfunc lines:" >&2
    echo "$long" >&2
    exit 1
  fi
fi
