#!/usr/bin/env bash
# Parent-vs-child battery: does this tree's jitsim print what <parent-ref>'s
# prints, byte for byte, over the two scenario grids refactors are checked
# against?
#
#   transparent stack   256  {transparent, userjit, jit+peer, jit+daily}
#                            x 8 -fail kinds x 4 -fail-frac x 2 workloads
#   checkpoint tiers   1472  14 policies x the same 64, plus the three peer
#                            policies again under -rs 2,2, under -chaos and
#                            under both
#
# Each scenario runs `jitsim ... -stats -trace-text -` on both builds and
# compares stdout, stderr and the exit status: the whole text timeline
# (`sched` proc-start/proc-end lines included), the summary and the
# `kernel:` counter line. Only the `throughput:` line is dropped, which is
# host time. A non-zero exit (2: an incomplete run or rejected flags, 1: a
# runtime error) is data, identical on both sides or a diff. About a minute
# on two cores. The parent is unpacked with `git archive` into a temp dir,
# so nothing is registered in .git the way a worktree would be.
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
    echo "-workload $wl -policy $pol -iters 8 -fail-iter 4 -fail $kind -fail-frac $frac $*"
  done; done; done; done
}
{
  grid "transparent userjit jit+peer jit+daily"
  grid "$tiers"
  for extra in "-rs 2,2" "-chaos" "-rs 2,2 -chaos"; do grid "peer jit+peer peer+elastic" "$extra"; done
} > "$work/scenarios"

# one <n> <flags>: run scenario n on both builds, print its flags if they differ.
one() {
  local n=$1 side
  shift
  for side in parent child; do
    { "$work/jitsim.$side" $* -stats -trace-text - 2>&1; echo "exit $?"; } |
      grep -v '^throughput:' > "$work/$n.$side"
  done
  cmp -s "$work/$n.parent" "$work/$n.child" || echo "jitsim $*"
  rm -f "$work/$n.parent" "$work/$n.child"
}
export -f one
export work

nl -w1 -s' ' "$work/scenarios" | xargs -P "$(nproc)" -L1 bash -c 'one $0 "$@"' > "$work/diffs"
n=$(wc -l < "$work/scenarios") d=$(wc -l < "$work/diffs")
echo "$n scenarios, $d diffs"
sort "$work/diffs"
[ "$d" -eq 0 ]
