package proxy

import (
	"bytes"
	"encoding/gob"
	"slices"

	"jitckpt/internal/cuda"
	"jitckpt/internal/vclock"
)

// Client is the worker-side half of the device proxy. It implements
// cuda.API (through the embedded adapter) by serializing calls onto the
// proxy wire. Ops the cuda op table marks async return as soon as the
// request is queued; the rest block the calling process until the server
// responds (or forever, if the server is wedged or restarted — recovering
// those callers is the interception layer's job).
//
// Each calling process is treated as a distinct worker thread: its calls
// execute on the server in issue order, independently of other threads.
type Client struct {
	cuda.Adapter

	env    *vclock.Env
	server *Server
	ipc    Params

	nextID     uint64
	threads    map[*vclock.Proc]int
	nextThread int
	pending    map[uint64]*pendingCall
}

type pendingCall struct {
	done *vclock.Event
	resp Response
}

var _ cuda.API = (*Client)(nil)

// NewClient creates a client for server and starts its response
// dispatcher.
func NewClient(env *vclock.Env, server *Server) *Client {
	c := &Client{
		env:     env,
		server:  server,
		ipc:     server.ipc,
		threads: make(map[*vclock.Proc]int),
		pending: make(map[uint64]*pendingCall),
	}
	c.Adapter = cuda.Adapt(c)
	env.Go("proxy.client.dispatch", func(p *vclock.Proc) {
		for {
			raw := server.respQ.Pop(p)
			var resp Response
			if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&resp); err != nil {
				panic("proxy: response decode: " + err.Error()) // as the server's request decode
			}
			pc, ok := c.pending[resp.ID]
			if !ok {
				// Response to a fire-and-forget call: nobody waits for it (a
				// failed device op surfaces through its poisoned stream).
				continue
			}
			delete(c.pending, resp.ID)
			pc.resp = resp
			pc.done.Trigger()
		}
	})
	return c
}

// AbortPending releases every caller blocked on an in-flight request with
// ErrProxyDown. The recovery controller uses it when it restarts the proxy
// server, so worker threads return to the interception layer instead of
// hanging on responses that will never arrive. Callers are released in
// request order: Trigger puts the waiter straight on the run queue, so map
// order here would make the resume (and trace) order differ run to run.
func (c *Client) AbortPending() int {
	ids := make([]uint64, 0, len(c.pending))
	for id := range c.pending {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		pc := c.pending[id]
		pc.resp = Response{ID: id}
		pc.resp.ErrCode, pc.resp.ErrMsg = encodeErr(ErrProxyDown)
		pc.done.Trigger()
		delete(c.pending, id)
	}
	return len(ids)
}

func (c *Client) threadID(p *vclock.Proc) int {
	id, ok := c.threads[p]
	if !ok {
		id = c.nextThread
		c.nextThread++
		c.threads[p] = id
	}
	return id
}

// Do implements cuda.API: it puts one call on the wire and, unless the op
// is async, blocks until its response arrives. The request is serialized
// before Do first yields, so argument slices are captured at call time and
// callers may reuse them.
func (c *Client) Do(p *vclock.Proc, call cuda.Call) (cuda.Result, error) {
	req := Request{ID: c.nextID, Thread: c.threadID(p), Call: call}
	c.nextID++
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&req); err != nil {
		panic("proxy: request encode: " + err.Error())
	}
	p.Sleep(c.ipc.SendLatency)
	c.server.reqQ.Push(buf.Bytes())
	info := call.Op.Info()
	if info.Async {
		return cuda.Result{}, nil
	}
	pc := &pendingCall{done: c.env.NewEvent("proxy.call")}
	c.pending[req.ID] = pc
	p.Wait(pc.done)
	return pc.resp.Result, decodeErr(pc.resp.ErrCode, pc.resp.ErrMsg)
}
