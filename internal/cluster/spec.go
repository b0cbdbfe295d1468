package cluster

import (
	"fmt"
	"strconv"
	"strings"

	"jitckpt/internal/core"
	"jitckpt/internal/train"
	"jitckpt/internal/vclock"
	"jitckpt/internal/workload"
)

// FleetWorkload is the per-tenant workload fleet simulations use: small
// enough that hundreds of concurrent copies stay fast, large enough to
// exercise every recovery path (4 data-parallel ranks over 2 nodes, so
// node loss, rack loss and elastic shrink are all meaningful).
func FleetWorkload() workload.Workload {
	return workload.Tiny("fleet-tiny", "fleet", 2, 2, train.Topology{D: 4, P: 1, T: 1}, 0.004, 2, 8)
}

// ParseJobsSpec parses a fleet job-mix specification into JobSpecs. The
// grammar is comma-separated groups of
//
//	COUNTxPOLICY[@PRIORITY][:ITERS]
//
// e.g. "40xjit+elastic,8xpeer,2xtransparent@2:30" — forty elastic JIT
// tenants at priority 0, eight peer-shelter tenants, two high-priority
// transparent tenants running 30 iterations. Every tenant runs
// FleetWorkload; defaultIters applies when a group omits ITERS. The
// policies map supplies name resolution (the jitsim/jitbench name set).
func ParseJobsSpec(spec string, policies map[string]core.Policy, defaultIters int) ([]JobSpec, error) {
	if defaultIters <= 0 {
		defaultIters = 20
	}
	var jobs []JobSpec
	for _, group := range strings.Split(spec, ",") {
		group = strings.TrimSpace(group)
		if group == "" {
			continue
		}
		countStr, rest, ok := strings.Cut(group, "x")
		if !ok {
			return nil, fmt.Errorf("cluster: bad jobs group %q (want COUNTxPOLICY[@PRI][:ITERS])", group)
		}
		count, err := strconv.Atoi(strings.TrimSpace(countStr))
		if err != nil || count <= 0 {
			return nil, fmt.Errorf("cluster: bad count in jobs group %q", group)
		}
		iters := defaultIters
		if polPart, itStr, has := strings.Cut(rest, ":"); has {
			rest = polPart
			iters, err = strconv.Atoi(strings.TrimSpace(itStr))
			if err != nil || iters <= 0 {
				return nil, fmt.Errorf("cluster: bad iters in jobs group %q", group)
			}
		}
		pri := 0
		if polPart, priStr, has := strings.Cut(rest, "@"); has {
			rest = polPart
			pri, err = strconv.Atoi(strings.TrimSpace(priStr))
			if err != nil {
				return nil, fmt.Errorf("cluster: bad priority in jobs group %q", group)
			}
		}
		polName := strings.TrimSpace(rest)
		pol, ok := policies[polName]
		if !ok {
			return nil, fmt.Errorf("cluster: unknown policy %q in jobs group %q", polName, group)
		}
		for k := 0; k < count; k++ {
			jobs = append(jobs, JobSpec{
				Name:     fmt.Sprintf("%s.p%d.%d", polName, pri, len(jobs)),
				Priority: pri,
				Config: core.JobConfig{
					WL:     FleetWorkload(),
					Policy: pol,
					Iters:  iters,
					// Fleet tenants run a minutes-scale workload; the
					// single-job defaults (hour-scale optimal checkpoint
					// interval, 10 s hang timeout) would leave a whole-job
					// loss — no surviving rank to observe a communicator
					// error — undetected past the horizon.
					CkptInterval: vclock.Second,
					HangTimeout:  2 * vclock.Second,
				},
			})
		}
	}
	if len(jobs) == 0 {
		return nil, fmt.Errorf("cluster: empty jobs spec %q", spec)
	}
	return jobs, nil
}
