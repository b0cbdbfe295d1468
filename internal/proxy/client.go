package proxy

import (
	"cmp"
	"slices"

	"jitckpt/internal/cuda"
	"jitckpt/internal/vclock"
)

// Client is the worker-side half of the device proxy. It implements
// cuda.API (through the embedded adapter) by putting calls on the proxy
// wire. Ops the cuda op table marks async return as soon as the request is
// submitted, their SendLatency owed; the rest block the calling process
// until the handler answers (or forever, if the server is wedged or
// restarted — recovering those callers is the interception layer's job).
//
// Each calling process is treated as a distinct worker thread: its calls
// execute on the server in issue order, independently of other threads.
type Client struct {
	cuda.Adapter
	server  *Server
	nextID  uint64
	threads map[*vclock.Proc]*thread
	byID    []*thread // threads by thread id, in the order they first called

	// The process whose call Step last began, and its thread: a call looks
	// its thread up at its first step only.
	stepP  *vclock.Proc
	stepTh *thread
}

// thread is one worker thread's slot on the client. A thread blocks on at
// most one call at a time, so one embedded event, re-armed per call, and
// one answer are all the waiting it needs.
type thread struct {
	id      int
	waiting bool     // a blocking call is in flight
	req     uint64   // the request id of the thread's latest call
	out     *Request // the request of the thread's latest synchronising call
	done    vclock.Event
	res     cuda.Result
	err     error
}

var _ cuda.API = (*Client)(nil)

// NewClient creates a client for server. It starts no process, and env must
// be the server's: the client runs on the server's environment.
func NewClient(env *vclock.Env, server *Server) *Client {
	c := &Client{server: server, threads: make(map[*vclock.Proc]*thread)}
	c.Adapter = cuda.Adapt(c)
	return c
}

// release answers th's blocking call and wakes the thread.
func (th *thread) release(res cuda.Result, err error) {
	th.waiting = false
	th.res, th.err = res, err
	th.done.Trigger()
}

// AbortPending releases every caller blocked on an in-flight request with
// ErrProxyDown. The recovery controller uses it when it restarts the proxy
// server, so worker threads return to the interception layer instead of
// hanging on answers that will never arrive. Callers are released in
// request order: Trigger puts the waiter straight on the run queue, so
// thread order here would make the resume (and trace) order differ from
// the order the calls were made.
func (c *Client) AbortPending() int {
	var waiting []*thread
	for _, th := range c.byID {
		if th.waiting {
			waiting = append(waiting, th)
		}
	}
	slices.SortFunc(waiting, func(a, b *thread) int { return cmp.Compare(a.req, b.req) })
	for _, th := range waiting {
		th.release(cuda.Result{}, ErrProxyDown)
	}
	return len(waiting)
}

// Do implements cuda.API: it puts one call on the wire and, unless the op
// is async, blocks until its answer arrives. The call is cloned before Do
// first yields, so argument slices are captured at call time and callers
// may reuse them. Do is the coroutine loop over the steps Step takes.
func (c *Client) Do(p *vclock.Proc, call cuda.Call) (cuda.Result, error) {
	for n := 0; ; n++ {
		u, waits, res, err := c.Step(p, &call, n)
		if !waits {
			return res, err
		}
		p.Await(u)
	}
}

// Step runs step n (from 0) of p's call *call in steps, for a caller with
// no stack to block on: the interception layer's watchdog, a callback
// process. Step 0 takes the request id and clones the call into a request.
// An async op's request is submitted there and then, its send latency owed
// (vclock.Proc.Owe), and the call returns; for any other op p sleeps its
// debt and the send latency, once. Step 1 submits the request and waits on
// the thread's event for the answer, which step 2 reads. Each reports the
// wait before the step after it or, when there is none, the call's outputs.
func (c *Client) Step(p *vclock.Proc, call *cuda.Call, n int) (vclock.Until, bool, cuda.Result, error) {
	if n == 0 || p != c.stepP {
		th, ok := c.threads[p]
		if !ok {
			th = &thread{id: len(c.byID)}
			c.threads[p] = th
			c.byID = append(c.byID, th)
		}
		c.stepP, c.stepTh = p, th
	}
	th := c.stepTh
	switch n {
	case 0:
		r, _ := c.server.free.Get()
		c.nextID++
		r.ID, r.from, th.req = c.nextID, th, c.nextID
		call.CloneInto(&r.Call)
		if call.Op.Info().Async {
			p.Owe(c.server.ipc.SendLatency)
			c.server.submit(r)
			return vclock.Until{}, false, cuda.Result{}, nil
		}
		th.out = r
		return vclock.Until{D: p.Settle() + c.server.ipc.SendLatency}, true, cuda.Result{}, nil
	case 1:
		th.waiting = true
		c.server.env.InitEvent(&th.done, "proxy.call")
		c.server.submit(th.out)
		return vclock.Until{Ev: &th.done}, true, cuda.Result{}, nil
	}
	return vclock.Until{}, false, th.res, th.err
}
