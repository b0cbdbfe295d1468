#!/usr/bin/env bash
# Reach audit: which internal/ code do the shipped commands actually run?
#
# Builds every cmd/* and examples/* main cover-instrumented, runs the
# command battery, merges the counters and prints the internal/ statement
# total plus every function no command reached (0.0 %). Tests are
# deliberately not part of it: a function only tests reach is a candidate
# for deletion, not evidence of use. Always exits 0 on a completed audit —
# the list is for reading, not a gate.
#
# usage: scripts/reach.sh [workdir]      (default: a fresh mktemp -d)
set -uo pipefail
cd "$(dirname "$0")/.."

work=${1:-$(mktemp -d)}
bin=$work/bin cov=$work/cov
mkdir -p "$bin" "$cov"
export GOCOVERDIR=$cov

# One build per main: a single multi-package `go build -cover -o dir/`
# with -coverpkg=./internal/... wrote no counters when this was set up.
for main in cmd/* examples/*; do
  go build -cover -coverpkg=jitckpt/... -o "$bin/$(basename "$main")" "./$main" || exit 1
done

run() { "$@" >/dev/null 2>&1 || true; } # exit 2 (incomplete run) is data, not failure

run "$bin/jitbench" -quick
run "$bin/jitbench" -quick -parallel 2
run "$bin/jitbench" -serve-check
run "$bin/costmodel"
for ex in comparison harderror quickstart transparent; do run "$bin/$ex"; done

sim() { run "$bin/jitsim" -workload GPT2-8B -iters 8 -fail-iter 4 "$@"; }
policies="none pc_disk pc_mem checkfreq pc_daily userjit transparent jit+daily peer jit+peer jit+elastic peer+elastic multistep jit+multistep pipefree"
kinds="gpu-hard gpu-sticky driver-corrupt network-hang network-error node-down storage-fault rack-down"
for pol in $policies; do
  for kind in $kinds; do sim -policy "$pol" -fail "$kind"; done
done
for pol in peer jit+peer peer+elastic; do
  sim -policy "$pol" -fail node-down -rs 2,1
  sim -policy "$pol" -fail node-down -chaos -trace-text "$work/chaos.txt"
done
sim -policy jit+elastic -fail-rate 300 -iters 40 -spares 0
sim -policy userjit -fail gpu-hard -stats -trace "$work/trace.json" -trace-text "$work/trace.txt"
run "$bin/jitsim" -fleet "4xjit+elastic,2xpeer,2xpc_disk@5:20" -fail-rate 300 -iters 30

go tool covdata textfmt -i="$cov" -o "$work/reach.out" || exit 1
go tool cover -func="$work/reach.out" | awk '
  $1 ~ /^jitckpt\/internal\// && $NF == "0.0%" { zero[++n] = $1 "\t" $2 }
  END { for (i = 1; i <= n; i++) print zero[i]; print n " internal/ functions reached by no command" }'
# The total over internal/ only: re-filter the profile, keeping its header.
awk 'NR == 1 || $1 ~ /^jitckpt\/internal\//' "$work/reach.out" > "$work/reach.internal.out"
go tool cover -func="$work/reach.internal.out" | awk '/^total:/ { print "internal/ statements reached: " $NF }'
echo "profile: $work/reach.out"
