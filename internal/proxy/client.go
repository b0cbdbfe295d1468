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
// queued; the rest block the calling process until the server responds (or
// forever, if the server is wedged or restarted — recovering those callers
// is the interception layer's job).
//
// Each calling process is treated as a distinct worker thread: its calls
// execute on the server in issue order, independently of other threads.
type Client struct {
	cuda.Adapter

	env    *vclock.Env
	server *Server
	ipc    Params

	nextID  uint64
	threads map[*vclock.Proc]*thread
	byID    []*thread // threads by thread id, the Response's address

	// The process whose call Step last began, and its thread: a call looks
	// its thread up at its first step only.
	stepP  *vclock.Proc
	stepTh *thread
}

// thread is one worker thread's slot on the client. A thread blocks on at
// most one call at a time, so one embedded event, re-armed per call, and
// one response are all the waiting it needs.
type thread struct {
	id      int
	waiting bool   // a blocking call is in flight
	req     uint64 // the request id of the thread's latest call
	done    vclock.Event
	resp    Response
}

var _ cuda.API = (*Client)(nil)

// NewClient creates a client for server and starts its response
// dispatcher.
func NewClient(env *vclock.Env, server *Server) *Client {
	c := &Client{
		env:     env,
		server:  server,
		ipc:     server.ipc,
		threads: make(map[*vclock.Proc]*thread),
	}
	c.Adapter = cuda.Adapt(c)
	env.GoFunc("proxy.client.dispatch", func(p *vclock.Proc) {
		for resp, ok := server.respQ.PopNext(p); ok; resp, ok = server.respQ.PopNext(p) {
			th := c.byID[resp.Thread]
			if !th.waiting || th.req != resp.ID {
				// Response to a fire-and-forget call, or to one AbortPending
				// already released: nobody waits for it (a failed device op
				// surfaces through its poisoned stream).
				continue
			}
			th.release(resp)
		}
	})
	return c
}

func (th *thread) release(resp Response) {
	th.waiting = false
	th.resp = resp
	th.done.Trigger()
}

// AbortPending releases every caller blocked on an in-flight request with
// ErrProxyDown. The recovery controller uses it when it restarts the proxy
// server, so worker threads return to the interception layer instead of
// hanging on responses that will never arrive. Callers are released in
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
		th.release(Response{Err: ErrProxyDown})
	}
	return len(waiting)
}

// Do implements cuda.API: it puts one call on the wire and, unless the op
// is async, blocks until its response arrives. The call is cloned before Do
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
// process. Step 0 takes the request id and captures the call (*call becomes
// its Clone), and the send latency follows; step 1 puts the request on the
// wire and, unless the op is async, waits on the thread's event for the
// response; step 2 reads it. Each reports the wait before the step after
// it or, when there is none, the call's outputs.
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
		th.req, *call = c.nextID, call.Clone()
		c.nextID++
		return vclock.Until{D: c.ipc.SendLatency}, true, cuda.Result{}, nil
	case 1:
		c.server.reqQ.Push(Request{ID: th.req, Thread: th.id, Call: *call})
		if call.Op.Info().Async {
			return vclock.Until{}, false, cuda.Result{}, nil
		}
		th.waiting = true
		c.env.InitEvent(&th.done, "proxy.call")
		return vclock.Until{Ev: &th.done}, true, cuda.Result{}, nil
	}
	return vclock.Until{}, false, th.resp.Result, th.resp.Err
}
