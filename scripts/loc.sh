#!/usr/bin/env bash
# The ROADMAP's line metric: non-blank, non-comment lines of non-test Go
# outside benchmark/, per package directory and in total. A line counts as a
# comment when `//` is the first thing on it (the tree has no block comments).
#
# usage: scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' -print0 | sort -z |
  xargs -0 awk '
    FNR == 1 { dir = FILENAME; sub(/^\.\//, "", dir); if (!sub(/\/[^\/]*$/, "", dir)) dir = "." }
    !/^[[:space:]]*($|\/\/)/ { n[dir]++; total++ }
    END {
      for (d in n) printf "%6d %s\n", n[d], d | "sort -k2"
      close("sort -k2")
      printf "%6d total\n", total
    }'
