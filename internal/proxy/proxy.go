// Package proxy implements the device proxy of the paper's Figure 2: a
// separate server process owns all GPU and network driver state, and the
// worker's calls reach it over a wire.
//
// A call crosses as a value, and the transport itself is not charged:
// Params bills two fixed latencies per message and nothing per byte. What
// the wire does for the model is capture a call's argument slices when the
// call is made (cuda.Call.CloneInto), so the caller may reuse them at once and
// neither side aliases the other's memory (TestCallCapturedAtSend). Errors
// cross unchanged: errors.Is and the error text are what the driver gave.
//
// The proxy exists for one reason (§2, §4.2): corrupted GPU or network
// driver state can be cleared by restarting the proxy server process
// without touching the worker process, whose CPU state then stays intact
// for CRIU-style checkpointing. Restart kills the server's handler
// processes and resets the device; in-flight requests are never answered
// (their callers are recovered by the interception layer's watchdog), and
// device buffers survive, because device memory outlives a driver context
// reset in this model just as parameters survive a proxy restart in the
// paper's strategy 2. A request sent while the server is down is held, and
// runs after Restart.
//
// Requests from one worker thread are executed in issue order by a handler
// of that thread's own; different threads proceed independently — which is
// what keeps the watchdog thread's EventQuery calls responsive while the
// main thread is wedged in a hung collective. The wire has no relay
// processes: the client puts a request straight on its thread's handler
// queue (the server spawns the handler on demand), and the handler answers
// by releasing the waiting thread itself, so a call costs the server only
// dispatches of that handler. A handler is a callback process
// (vclock.Env.GoFunc) that runs its call as a cuda.Pending, parking at each
// wait a coroutine would block in.
//
// Asynchronous device APIs (kernel launches, async memcpys, collective
// enqueues) are fire-and-forget on both legs, under the clock-debt rule of
// cuda.Driver.Latency. The client submits the request at once and adds its
// SendLatency to the calling process's debt (vclock.Proc.Owe); the caller's
// next synchronising call sleeps that debt with its own SendLatency, once.
// The handler sends no answer to an async call, not even for one the driver
// refuses at call time (bad handle, unknown kernel): it owes the SendLatency
// the answer would have cost, and pays it at its next synchronising call. A
// failed device op poisons its stream, the poison travels through recorded
// events, and the caller sees it at the next StreamSynchronize or
// MemcpyD2H. This is the paper's "device APIs executed asynchronously with
// respect to the CPU worker thread", and it is why steady-state logging
// overhead measures near zero (§6.3).
package proxy

import (
	"errors"
	"fmt"

	"jitckpt/internal/cuda"
	"jitckpt/internal/dense"
	"jitckpt/internal/gpu"
	"jitckpt/internal/nccl"
	"jitckpt/internal/vclock"
)

// ErrProxyDown is returned for calls that raced a proxy server restart.
var ErrProxyDown = errors.New("proxy: server restarted, call dropped")

// Request is one API call on the wire. The client clones the call into it
// once, and the handler runs it in place; a finished request goes back to
// the server's free list.
type Request struct {
	ID   uint64
	Call cuda.Call
	from *thread // the client thread that made the call: its handler, the answer's address
}

// Params models IPC costs of the proxy transport.
type Params struct {
	// SendLatency is charged to the sender per message: owed for an async
	// call's request, and slept for a synchronising call's and its answer.
	SendLatency vclock.Time
	// HandleLatency is charged by the server per request.
	HandleLatency vclock.Time
}

// DefaultParams returns shared-memory-ring IPC costs.
func DefaultParams() Params {
	return Params{SendLatency: vclock.Microsecond, HandleLatency: vclock.Microsecond}
}

// Server is the device proxy server: it owns the driver (all GPU and
// network driver state) and executes requests.
type Server struct {
	env        *vclock.Env
	dev        *gpu.Device
	engine     *nccl.Engine
	kernels    cuda.Registry
	cudaParams cuda.Params
	ipc        Params

	drv        *cuda.Driver
	handlers   dense.Table[*handler] // by worker thread
	free       gpu.FreeList[Request] // finished requests, for the client to reuse
	held       []*Request            // sent while the server is down, in order
	generation int
	down       bool
}

// NewServer creates a proxy server for dev and starts its driver.
func NewServer(env *vclock.Env, dev *gpu.Device, engine *nccl.Engine, kernels cuda.Registry, cudaParams cuda.Params, ipc Params) (*Server, error) {
	s := &Server{
		env:        env,
		dev:        dev,
		engine:     engine,
		kernels:    kernels,
		cudaParams: cudaParams,
		ipc:        ipc,
	}
	if err := s.startDriver(); err != nil {
		return nil, err
	}
	return s, nil
}

// startDriver starts a fresh driver and hands it the requests held while
// the server was down.
func (s *Server) startDriver() error {
	drv, err := cuda.NewDriver(s.dev, s.engine, s.kernels, s.cudaParams)
	if err != nil {
		return err
	}
	s.drv, s.down = drv, false
	for _, r := range s.held {
		s.submit(r)
	}
	s.held = nil
	return nil
}

// submit puts r on its thread's handler queue, spawning the handler on
// demand, or holds it while the server is down.
func (s *Server) submit(r *Request) {
	if s.down {
		s.held = append(s.held, r)
		return
	}
	th := r.from.id
	h, ok := s.handlers.At(th)
	if !ok {
		h = &handler{s: s, tq: vclock.NewQueue[*Request](s.env, fmt.Sprintf("proxy.t%d", th))}
		h.proc = s.env.GoFunc(fmt.Sprintf("%s.proxy.t%d.g%d", s.dev.Name(), th, s.generation), h.step)
		s.handlers.Set(th, h)
	}
	h.tq.Push(r)
}

// handler is one worker thread's request handler: a callback process that
// takes each request in turn and sleeps the handling latency together with
// the call latency the driver's rule gives (Driver.Latency: the handler
// owes an async call's, and pays its debt at its next synchronising call).
// It then runs the call on the server's driver as a cuda.Pending, parking
// at each of its waits. A synchronising call's answer costs the send
// latency, after which the handler releases the waiting thread; an async
// call gets no answer, and the handler owes the send latency instead. at
// is where its next dispatch resumes; the request and the call in progress
// are all it keeps.
type handler struct {
	s    *Server
	tq   *vclock.Queue[*Request]
	proc *vclock.Proc
	at   handlerAt
	req  *Request
	drv  *cuda.Driver // the server's driver when the call started: the call runs on it to the end
	k    cuda.Pending
}

type handlerAt uint8

const (
	idle    handlerAt = iota // take the next request
	calling                  // the handling and call latencies are over: the op runs
	waiting                  // a wait of the call is over
	sending                  // the send latency is over: answer
)

func (h *handler) step(p *vclock.Proc) {
	for {
		switch h.at {
		case idle:
			r, ok := h.tq.PopNext(p)
			if !ok {
				return
			}
			h.req, h.drv, h.at = r, h.s.drv, calling
			if lat := h.s.ipc.HandleLatency + h.drv.Latency(p, r.Call.Op); lat > 0 {
				p.SleepNext(lat)
				return
			}
			continue
		case calling:
			h.drv.Start(p, &h.req.Call, &h.k)
		case waiting:
			h.k.Resume(p)
		case sending:
			if th := h.req.from; th.waiting && th.req == h.req.ID {
				th.release(h.k.Result())
			}
			h.done()
			continue
		}
		// The call ran on from Start or from a wait: it waits again (at
		// once, if what it waits for has fired), or it has returned.
		u, waits := h.k.Waits()
		if !waits {
			if h.req.Call.Op.Info().Async {
				p.Owe(h.s.ipc.SendLatency)
				h.done()
				continue
			}
			h.at = sending
			p.SleepNext(h.s.ipc.SendLatency)
			return
		}
		if h.at = waiting; p.AwaitNext(u) {
			return
		}
	}
}

// done ends the request in progress: it goes back to the server's free
// list, its captured slices dropped.
func (h *handler) done() {
	*h.req = Request{}
	h.s.free.Put(h.req)
	h.req, h.at = nil, idle
}

// ResetThreads aborts all in-flight request handling: every per-thread
// handler process is killed (releasing handlers wedged inside hung device
// calls) and queued requests are dropped. Fresh handlers spawn on demand.
// This is the §4.2 "watchdog thread aborts all in-flight operations" for
// recoveries that keep the proxy server (and device memory) alive.
func (s *Server) ResetThreads() {
	// Kill in thread order, so the traced proc-end sequence is the same on
	// every run.
	s.handlers.Each(func(_ int, h *handler) { h.proc.Kill() })
	s.handlers = dense.Table[*handler]{}
}

// Driver exposes the server-side driver to infrastructure code (the
// transparent recovery controller operates here, next to the device).
func (s *Server) Driver() *cuda.Driver { return s.drv }

// Device returns the device this proxy fronts.
func (s *Server) Device() *gpu.Device { return s.dev }

// Stop kills the server: handler processes die, in-flight requests are
// never answered, queued requests are dropped, and requests sent from now
// on are held until Restart. Driver state (handle tables, streams, events,
// comms) is lost; device buffers survive.
func (s *Server) Stop() {
	s.ResetThreads()
	s.down = true
}

// Restart models killing and relaunching the proxy server process to clear
// corrupted driver state (§4.2 strategy 2/3): the device context is reset
// (clearing sticky errors and driver corruption) and a fresh driver starts.
// Restart fails if the device has a hard hardware failure.
func (s *Server) Restart() error {
	if !s.down {
		s.Stop()
	}
	if err := s.dev.Reset(); err != nil {
		return err
	}
	s.generation++
	return s.startDriver()
}
