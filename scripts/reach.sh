#!/usr/bin/env bash
# Reach ratchet: which internal/ code do the shipped commands actually run?
#
# Builds every cmd/* main and examples/transparent (the one command that
# turns on §4.1 replay validation) cover-instrumented, runs the command
# battery, merges the counters and lists every internal/ function no command
# reached (0.0 %). Tests are deliberately not part of it: a function
# only tests reach is a candidate for deletion, not evidence of use.
#
# The list is checked against scripts/reach.allow, one
# `pkg/file.go<TAB>[Recv.]Func<TAB>reason` line per function that is allowed
# to stay unreached. The script exits 1 when an unreached function is not on
# the list (delete it, reach it from the battery, or add it with a reason),
# when an entry is stale (the function is reached now, or gone), and when the
# list holds more than maxAllow entries: it may only shrink, so a PR that
# empties a line lowers maxAllow to the new count.
#
# usage: scripts/reach.sh [workdir]      (default: a fresh mktemp -d)
set -uo pipefail
cd "$(dirname "$0")/.."

# maxAllow caps scripts/reach.allow: the list may only shrink.
maxAllow=30

allow=scripts/reach.allow
if bad=$(grep -vE '^(#|$)' "$allow" | grep -vP '^[^\t]+\t[^\t]+\t[^\t]*\S'); [ -n "$bad" ]; then
  printf 'reach: %s entries need file<TAB>Func<TAB>reason:\n%s\n' "$allow" "$bad"
  exit 1
fi
if n=$(grep -cvE '^(#|$)' "$allow"); [ "$n" -gt "$maxAllow" ]; then
  printf 'reach: %s has %d entries, above maxAllow (%d): the list may only shrink\n' "$allow" "$n" "$maxAllow"
  exit 1
fi

work=${1:-$(mktemp -d)}
bin=$work/bin cov=$work/cov
mkdir -p "$bin" "$cov"
export GOCOVERDIR=$cov

# One build per main: a single multi-package `go build -cover -o dir/`
# with -coverpkg=./internal/... wrote no counters when this was set up.
for main in cmd/* examples/transparent; do
  go build -cover -coverpkg=jitckpt/... -o "$bin/$(basename "$main")" "./$main" || exit 1
done

run() { "$@" >/dev/null 2>&1 || true; } # exit 2 (incomplete run) is data, not failure

run "$bin/jitbench" -quick
run "$bin/jitbench" -quick -parallel 2
run "$bin/jitbench" -serve-check
run "$bin/jitbench" -quick -table 9 -policies UserJIT,UserJIT+Peer -parallel 0
run "$bin/jitbench" -quick -table 5 -parallel 2 -trace "$work/bench.json"
run "$bin/costmodel"
run "$bin/transparent"

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
run "$bin/jitsim" -fleet "2xuserjit:4000" -fleet-horizon 30 # both tenants end at the horizon (JobHandle.ForceFinish)
# FSDP (comm keys, ReduceScatter) only runs on the hybrid-sharded workload.
for pol in transparent userjit; do
  for kind in gpu-hard gpu-sticky; do sim -workload T5-3B -policy "$pol" -fail "$kind"; done
done
# A multi-step generation spans several boundaries: the gradient ring and the
# restore-time reconcile need a fault after slices of one have landed.
for pol in multistep jit+multistep; do sim -workload GPT2-XL -policy "$pol" -iters 3800 -fail-iter 3500 -fail gpu-hard; done
# Capacity that only comes back by repair: no spares, node losses and repairs.
sim -policy jit+elastic -fail-rate 2000 -mix node-down:0.6,node-repaired:0.4 -iters 60 -spares 0
# Hard recovery under a lease: the transparent coordinator releases by node ID.
run "$bin/jitsim" -fleet "2xtransparent,2xuserjit" -fail-rate 600 -mix gpu-hard:1 -iters 20

# Live observability: -serve lingers after the run, so it runs in the
# background, is read over loopback once it says the run has finished, and is
# interrupted — the counters are written on the way out of main.
"$bin/jitsim" -policy userjit -fail gpu-hard -fail-iter 5 -iters 8 -serve 127.0.0.1:0 >/dev/null 2>"$work/serve.err" &
serve=$!
for _ in $(seq 100); do grep -q 'still serving' "$work/serve.err" && break; sleep 0.1; done
base=$(sed -nE 's|.*serving live metrics on (http://[^ ]+).*|\1|p' "$work/serve.err")
for path in / /metrics /fleet /jobs/r1.job/timeline; do run curl -sf --max-time 5 "$base$path"; done
kill -INT $serve
wait $serve || { echo "reach: jitsim -serve did not exit 0 on SIGINT"; cat "$work/serve.err"; exit 1; }

go tool covdata textfmt -i="$cov" -o "$work/reach.out" || exit 1
# One `pkg/file.go<TAB>[Recv.]Func` line per 0 % function; cover -func prints
# no receiver, so it is read off the declaration line.
go tool cover -func="$work/reach.out" |
  awk '$1 ~ /^jitckpt\/internal\// && $NF == "0.0%" { split($1, loc, ":"); print loc[1], loc[2], $2 }' |
  while read -r file line fn; do
    recv=$(sed -n "${line}p" "${file#jitckpt/}" | sed -nE 's/^func \([A-Za-z_]+ \*?([A-Za-z_]+)[^)]*\).*/\1./p')
    printf '%s\t%s%s\n' "${file#jitckpt/internal/}" "$recv" "$fn"
  done | sort -u > "$work/unreached.txt"
cat "$work/unreached.txt"
echo "$(wc -l < "$work/unreached.txt") internal/ functions reached by no command"
# The total over internal/ only: re-filter the profile, keeping its header.
awk 'NR == 1 || $1 ~ /^jitckpt\/internal\//' "$work/reach.out" > "$work/reach.internal.out"
go tool cover -func="$work/reach.internal.out" | awk '/^total:/ { print "internal/ statements reached: " $NF }'
echo "profile: $work/reach.out"

grep -vE '^(#|$)' "$allow" | cut -f1,2 | sort -u > "$work/allowed.txt"
new=$(comm -23 "$work/unreached.txt" "$work/allowed.txt")
stale=$(comm -13 "$work/unreached.txt" "$work/allowed.txt")
[ -z "$new" ] || printf 'reach: unreached and not in %s (delete it, reach it, or add it with a reason):\n%s\n' "$allow" "$new"
[ -z "$stale" ] || printf 'reach: stale entries in %s (reached now, or gone):\n%s\n' "$allow" "$stale"
[ -z "$new$stale" ]
