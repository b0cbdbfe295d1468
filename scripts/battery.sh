#!/usr/bin/env bash
# Parent-vs-child battery: does this tree's jitsim print what <parent-ref>'s
# prints, byte for byte, over the three scenario grids refactors are checked
# against (2056 scenarios)?
#
#   transparent stack   256  {transparent, userjit, jit+peer, jit+daily}
#                            x 8 -fail kinds x 4 -fail-frac x 2 workloads
#   checkpoint tiers   1472  14 policies x the same 64, plus the three peer
#                            policies again under -rs 2,2, under -chaos and
#                            under both
#   fault plans         328  sampled plans, racks and repairs. -fleet: 5 job
#                            specs x -fail-rate {100,300,900} x seeds 1-3 x
#                            -fleet-rack {2,4} x -repair {0,5} (180), plus 3
#                            -mix values x 2 seeds (6). Single job, GPT2-8B
#                            with -spares 3: 7 policies x -fail-rate
#                            {2000,8000} x seeds 1-3 x -rack {0,1,4} (126),
#                            plus {jit,peer}+elastic under 2 mixes that draw
#                            node-repaired x seeds 1-4 (16)
#
# Each scenario runs `jitsim ... -stats -trace-text -` on both builds and
# compares stdout, stderr and the exit status: the whole text timeline
# (`sched` proc-start/proc-end lines included), the summary and the
# `kernel:` counter line. Only the `throughput:` line is dropped, which is
# host time. A non-zero exit (2: an incomplete run or rejected flags, 1: a
# runtime error) is data, identical on both sides or a diff: over half of
# the single-job fault-plan runs are storms no policy finishes under. Under
# each differing scenario's command line it prints the first line (kernel:
# aside) where the two outputs part, one per side, and both kernel: lines,
# so what a change moved reads from one run. Last comes a census of every
# differing line over all scenarios (a diff's removed lines count on the
# parent side, its added lines on the child side), keyed by category and
# name with digit runs folded to `#`: a trace line by its category, event
# name and, for a `sched` line, its process (`sched proc-end
# rank#.watchdog`, `core acct`); a summary line by its label (`wall time`);
# `kernel` and `exit`. Each key shows the scenarios it differs in and its
# line count per side, so a stated signature checks against one run.
# About seven and a half minutes on two cores. To make the fault-plan grid
# cheaper shorten its -iters and -fleet-horizon, not its axes: the
# transparent tenants already run `:20` iterations, because a fleet fault
# rarely finds them either way. The parent is unpacked with `git
# archive` into a temp dir, so nothing is registered in .git the way a
# worktree would be.
#
# usage: scripts/battery.sh <parent-ref>
set -euo pipefail
cd "$(dirname "$0")/.."

ref=${1:?usage: scripts/battery.sh <parent-ref>}
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

mkdir "$work/parent"
git archive "$ref" | tar -x -C "$work/parent"
(cd "$work/parent" && go build -o "$work/jitsim.parent" ./cmd/jitsim)
go build -o "$work/jitsim.child" ./cmd/jitsim

kinds="gpu-hard gpu-sticky driver-corrupt network-hang network-error node-down storage-fault rack-down"
tiers="pc_disk pc_mem checkfreq pc_daily userjit jit+daily peer jit+peer jit+elastic peer+elastic multistep jit+multistep pipefree transparent"

grid() { # grid "<policies>" [extra flags]: one scenario per line
  local pols=$1 pol kind frac wl
  shift
  for pol in $pols; do for kind in $kinds; do for frac in 0.1 0.4 0.7 0.95; do for wl in GPT2-8B T5-3B; do
    # No trailing blank: xargs -L joins a line that ends in one to the next.
    echo "-workload $wl -policy $pol -iters 8 -fail-iter 4 -fail $kind -fail-frac $frac${*:+ $*}"
  done; done; done; done
}
plans() { # the fault-plan grid: one scenario per line
  local spec rate seed rack repair mix pol
  local fleet="-iters 80 -fleet-horizon 20" job="-workload GPT2-8B -spares 3 -iters 40"
  for spec in "6xjit+elastic,3xpc_disk,1xpc_disk@5" "4xjit+elastic,4xuserjit@1" "8xuserjit" "3xpeer+elastic,3xpc_disk@2" "4xtransparent:20,4xjit+elastic"; do
    for rate in 100 300 900; do for seed in 1 2 3; do for rack in 2 4; do for repair in 0 5; do
      echo "-fleet $spec $fleet -fail-rate $rate -seed $seed -fleet-rack $rack -repair $repair"
    done; done; done; done
  done
  for mix in "gpu-hard:1" "node-down:0.5,rack-down:0.5" "gpu-hard:0.4,node-down:0.3,rack-down:0.2,node-repaired:0.1"; do for seed in 1 2; do
    echo "-fleet 6xjit+elastic,3xpc_disk,1xpc_disk@5 $fleet -fail-rate 900 -mix $mix -seed $seed"
  done; done
  for pol in pc_disk userjit transparent peer jit+elastic multistep pipefree; do
    for rate in 2000 8000; do for seed in 1 2 3; do for rack in 0 1 4; do
      echo "$job -policy $pol -fail-rate $rate -seed $seed -rack $rack"
    done; done; done
  done
  for pol in jit+elastic peer+elastic; do for mix in "gpu-hard:0.4,node-down:0.3,node-repaired:0.3" "node-down:0.4,rack-down:0.2,node-repaired:0.4"; do for seed in 1 2 3 4; do
    echo "$job -policy $pol -fail-rate 4000 -mix $mix -seed $seed"
  done; done; done
}
{
  grid "transparent userjit jit+peer jit+daily"
  grid "$tiers"
  for extra in "-rs 2,2" "-chaos" "-rs 2,2 -chaos"; do grid "peer jit+peer peer+elastic" "$extra"; done
  plans
} > "$work/scenarios"

# first <parent-out> <child-out>: the first line, kernel: lines aside, at
# which the two outputs differ, one per side ("(end)" for a side that ran
# out first), then both kernel: lines.
first() {
  awk -v other="$2" '
    function next_other() { do r = (getline l < other) > 0; while (r && l ~ /^kernel:/); return r }
    /^kernel:/ { next }
    { if (!next_other() || l != $0) { print "  parent: " $0; print "  child:  " (r ? l : "(end)"); done = 1; exit } }
    END { if (!done && next_other()) { print "  parent: (end)"; print "  child:  " l } }' "$1"
  sed -n 's/^kernel: */  parent kernel: /p' "$1"
  sed -n 's/^kernel: */  child kernel:  /p' "$2"
}

# census <parent-out> <child-out>: one line per key of the differing lines,
# "<key>\t<parent lines>\t<child lines>".
census() {
  diff "$1" "$2" | awk '
    /^[<>] / {
      line = substr($0, 3)
      split(line, f, " ")
      if (f[1] ~ /^[0-9]+[.][0-9]+$/) {
        key = f[3] " " f[5]
        if (f[3] == "sched") for (i = 6; i in f; i++) if (f[i] ~ /^proc=/) key = key " " substr(f[i], 6)
      } else if (line ~ /^[a-z][a-z -]*:/) key = substr(line, 1, index(line, ":") - 1)
      else key = f[1]
      gsub(/[0-9]+/, "#", key)
      if (/^</) np[key]++; else nc[key]++
      keys[key] = 1
    }
    END { for (k in keys) print k "\t" np[k] + 0 "\t" nc[k] + 0 }'
}

# one <n> <flags>: run scenario n on both builds; when they differ, list its
# flags and keep what first and census say about it.
one() {
  local n=$1 side
  shift
  for side in parent child; do
    { "$work/jitsim.$side" $* -stats -trace-text - 2>&1; echo "exit $?"; } |
      grep -v '^throughput:' > "$work/$n.$side"
  done
  if ! cmp -s "$work/$n.parent" "$work/$n.child"; then
    first "$work/$n.parent" "$work/$n.child" > "$work/$n.first"
    census "$work/$n.parent" "$work/$n.child" > "$work/$n.census"
    printf 'jitsim %s\t%s\n' "$*" "$n"
  fi
  rm -f "$work/$n.parent" "$work/$n.child"
}
export -f first census one
export work

nl -w1 -s' ' "$work/scenarios" | xargs -P "$(nproc)" -L1 bash -c 'one $0 "$@"' > "$work/diffs"
n=$(wc -l < "$work/scenarios") d=$(wc -l < "$work/diffs")
echo "$n scenarios, $d diffs"
sort "$work/diffs" | while IFS=$'\t' read -r cmd i; do
  echo "$cmd"
  cat "$work/$i.first"
done
if [ "$d" -gt 0 ]; then
  echo "census of differing lines: scenarios, parent lines, child lines, key"
  cut -f2 "$work/diffs" | while read -r i; do cat "$work/$i.census"; done | awk -F'\t' '
    { s[$1]++; np[$1] += $2; nc[$1] += $3 }
    END { for (k in s) printf "%9d %7d %7d  %s\n", s[k], np[k], nc[k], k }' | sort -k1,1nr -k4
fi
[ "$d" -eq 0 ]
