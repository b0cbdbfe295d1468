// Package proxy implements the device proxy of the paper's Figure 2: a
// separate server process owns all GPU and network driver state, and the
// worker talks to it through a byte-level wire protocol.
//
// The encoding itself is not charged: Params bills two fixed latencies per
// message and nothing per byte. What it does for the model is capture a
// call's argument slices when the call is made and keep either side from
// aliasing the other's memory (TestCallCapturedAtSend); sentinel errors are
// re-attached by code on the client so errors.Is survives the bytes. A
// message either side cannot encode or decode is a simulator bug and ends
// the run.
//
// The proxy exists for one reason (§2, §4.2): corrupted GPU or network
// driver state can be cleared by restarting the proxy server process
// without touching the worker process, whose CPU state then stays intact
// for CRIU-style checkpointing. Restart kills the server's handler
// processes and resets the device; in-flight requests are never answered
// (their callers are recovered by the interception layer's watchdog), and
// device buffers survive, because device memory outlives a driver context
// reset in this model just as parameters survive a proxy restart in the
// paper's strategy 2.
//
// Requests from one worker thread are executed in issue order by a
// dedicated handler process per thread; different threads proceed
// independently — which is what keeps the watchdog thread's EventQuery
// calls responsive while the main thread is wedged in a hung collective.
//
// Asynchronous device APIs (kernel launches, async memcpys, collective
// enqueues) are fire-and-forget on the client: the call returns as soon as
// the request is queued. A failed device op poisons its stream, the poison
// travels through recorded events, and the caller sees it at the next
// StreamSynchronize or MemcpyD2H; a request the driver refuses at call time
// (bad handle, unknown kernel) is answered, and the answer dropped.
// This is the paper's "device APIs executed asynchronously with respect to
// the CPU worker thread", and it is why steady-state logging overhead
// measures near zero (§6.3).
package proxy

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"sort"

	"jitckpt/internal/cuda"
	"jitckpt/internal/gpu"
	"jitckpt/internal/nccl"
	"jitckpt/internal/vclock"
)

// ErrProxyDown is returned for calls that raced a proxy server restart.
var ErrProxyDown = errors.New("proxy: server restarted, call dropped")

// Request is one API call on the wire.
type Request struct {
	ID     uint64
	Thread int
	Call   cuda.Call
}

// Response is one API result on the wire.
type Response struct {
	ID      uint64
	ErrCode int // 0 = nil, -1 = opaque, >0 = wireErrors index+1
	ErrMsg  string
	Result  cuda.Result
}

// wireErrors are sentinel errors whose identity survives the wire, so
// errors.Is works on the client exactly as it does against a local driver.
var wireErrors = []error{
	gpu.ErrDeviceLost, gpu.ErrSticky, gpu.ErrCorrupt, gpu.ErrOutOfMemory,
	gpu.ErrNoSuchBuf, gpu.ErrNoSuchQueue,
	cuda.ErrBadHandle, cuda.ErrUnknownKernel,
	nccl.ErrNetwork, nccl.ErrCommDead, nccl.ErrMismatch, nccl.ErrBufSizes,
	nccl.ErrInvalidRank, nccl.ErrDeviceFailed,
	ErrProxyDown,
}

func encodeErr(err error) (int, string) {
	if err == nil {
		return 0, ""
	}
	for i, sentinel := range wireErrors {
		if errors.Is(err, sentinel) {
			return i + 1, err.Error()
		}
	}
	return -1, err.Error()
}

func decodeErr(code int, msg string) error {
	switch {
	case code == 0:
		return nil
	case code > 0 && code <= len(wireErrors):
		sentinel := wireErrors[code-1]
		if msg == sentinel.Error() {
			return sentinel
		}
		return fmt.Errorf("%w: %s", sentinel, msg)
	default:
		return errors.New(msg)
	}
}

// Params models IPC costs of the proxy transport.
type Params struct {
	// SendLatency is charged to the sender per message.
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

	drv         *cuda.Driver
	reqQ        *vclock.Queue[[]byte]
	respQ       *vclock.Queue[[]byte]
	threadQs    map[int]*vclock.Queue[Request]
	threadProcs map[int]*vclock.Proc
	dispatcher  *vclock.Proc
	generation  int
	down        bool
}

// NewServer creates a proxy server for dev and starts its dispatcher.
func NewServer(env *vclock.Env, dev *gpu.Device, engine *nccl.Engine, kernels cuda.Registry, cudaParams cuda.Params, ipc Params) (*Server, error) {
	s := &Server{
		env:        env,
		dev:        dev,
		engine:     engine,
		kernels:    kernels,
		cudaParams: cudaParams,
		ipc:        ipc,
		reqQ:       vclock.NewQueue[[]byte](env, "proxy.req"),
		respQ:      vclock.NewQueue[[]byte](env, "proxy.resp"),
	}
	if err := s.startDriver(); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *Server) startDriver() error {
	drv, err := cuda.NewDriver(s.dev, s.engine, s.kernels, s.cudaParams)
	if err != nil {
		return err
	}
	s.drv = drv
	s.threadQs = make(map[int]*vclock.Queue[Request])
	s.threadProcs = make(map[int]*vclock.Proc)
	s.down = false
	gen := s.generation
	s.dispatcher = s.env.Go(fmt.Sprintf("%s.proxy.dispatch.g%d", s.dev.Name(), gen), func(p *vclock.Proc) {
		for {
			raw := s.reqQ.Pop(p)
			var req Request
			if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&req); err != nil {
				// A frame the wire cannot read is a simulator bug: skipping
				// it would leave its caller parked until the watchdog
				// reports a device hang.
				panic(fmt.Sprintf("proxy: request decode: %v", err))
			}
			tq, ok := s.threadQs[req.Thread]
			if !ok {
				tq = vclock.NewQueue[Request](s.env, fmt.Sprintf("proxy.t%d", req.Thread))
				s.threadQs[req.Thread] = tq
				s.startHandler(req.Thread, tq)
			}
			tq.Push(req)
		}
	})
	return nil
}

func (s *Server) startHandler(thread int, tq *vclock.Queue[Request]) {
	handler := s.env.Go(fmt.Sprintf("%s.proxy.t%d.g%d", s.dev.Name(), thread, s.generation), func(hp *vclock.Proc) {
		for {
			r := tq.Pop(hp)
			hp.Sleep(s.ipc.HandleLatency)
			resp := s.execute(hp, r)
			s.send(hp, resp)
		}
	})
	s.threadProcs[thread] = handler
}

// ResetThreads aborts all in-flight request handling: every per-thread
// handler process is killed (releasing handlers wedged inside hung device
// calls) and queued requests are dropped. Fresh handlers spawn on demand.
// This is the §4.2 "watchdog thread aborts all in-flight operations" for
// recoveries that keep the proxy server (and device memory) alive.
func (s *Server) ResetThreads() {
	// Kill in thread order: map iteration order would make the kill (and
	// the traced proc-end) sequence nondeterministic.
	threads := make([]int, 0, len(s.threadProcs))
	for t := range s.threadProcs {
		threads = append(threads, t)
	}
	sort.Ints(threads)
	for _, t := range threads {
		s.threadProcs[t].Kill()
		delete(s.threadProcs, t)
		delete(s.threadQs, t)
	}
}

func (s *Server) send(p *vclock.Proc, resp Response) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(resp); err != nil {
		panic(fmt.Sprintf("proxy: response encode: %v", err))
	}
	p.Sleep(s.ipc.SendLatency)
	s.respQ.Push(buf.Bytes())
}

// Driver exposes the server-side driver to infrastructure code (the
// transparent recovery controller operates here, next to the device).
func (s *Server) Driver() *cuda.Driver { return s.drv }

// Device returns the device this proxy fronts.
func (s *Server) Device() *gpu.Device { return s.dev }

// Stop kills the server: handler processes die, in-flight requests are
// never answered, queued requests are dropped. Driver state (handle
// tables, streams, events, comms) is lost; device buffers survive.
func (s *Server) Stop() {
	s.ResetThreads()
	if s.dispatcher != nil {
		s.dispatcher.Kill()
		s.dispatcher = nil
	}
	s.reqQ.Drain()
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
	if err := s.startDriver(); err != nil {
		return err
	}
	return nil
}

// execute runs one request against the driver.
func (s *Server) execute(p *vclock.Proc, req Request) Response {
	res, err := s.drv.Do(p, req.Call)
	resp := Response{ID: req.ID, Result: res}
	resp.ErrCode, resp.ErrMsg = encodeErr(err)
	return resp
}
