package rpc

import (
	"fmt"
	"sync"
	"time"

	"gengar/internal/rdma"
	"gengar/internal/simnet"
)

// DefaultCPUPerRequest is the server CPU cost charged per RPC when the
// server is constructed with a non-positive value: dispatch, decode and
// reply on a commodity core.
const DefaultCPUPerRequest = 1500 * time.Nanosecond

// Handler services one RPC kind. It receives the simulated instant the
// request finished occupying the server CPU and the request payload,
// appends its response payload to resp, and returns the simulated instant
// the response is ready (at least the given instant; later if the handler
// charged device time). Returning an error sends a RemoteError to the
// client instead of resp. req is a value so that handing it over costs no
// allocation; resp is the caller's receive buffer (see Client.Call), so
// the handler keeps nothing it encodes.
type Handler func(at simnet.Time, req Reader, resp *Writer) (done simnet.Time, err error)

// Server is the control-plane endpoint of one node: a table of handlers
// and the CPU their requests serialize on. Nothing runs in it — a
// Client's Call executes the handler on the calling goroutine — so it
// may serve any number of clients and concurrent calls; handlers must be
// safe for that.
type Server struct {
	cpu       *simnet.Resource
	cpuPerReq time.Duration

	mu       sync.Mutex
	handlers map[Kind]Handler
	closed   bool
}

// NewServer returns a server whose request processing serializes on the
// given CPU resource with the given per-request cost (DefaultCPUPerRequest
// if non-positive).
func NewServer(cpu *simnet.Resource, cpuPerReq time.Duration) *Server {
	if cpuPerReq <= 0 {
		cpuPerReq = DefaultCPUPerRequest
	}
	return &Server{
		cpu:       cpu,
		cpuPerReq: cpuPerReq,
		handlers:  make(map[Kind]Handler),
	}
}

// Handle registers the handler for a kind, replacing any previous one.
func (s *Server) Handle(kind Kind, h Handler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.handlers[kind] = h
}

// handler returns the handler for kind (nil if none), or ErrClosed.
func (s *Server) handler(kind Kind) (Handler, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	return s.handlers[kind], nil
}

// Close stops the server: calls that have not started fail with
// ErrClosed. It is idempotent.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
}

// Client issues RPCs to one server over a connected queue pair. It is
// safe for concurrent use. Construct with Dial; close with Close.
type Client struct {
	qp  *rdma.QP // client end: carries requests
	sqp *rdma.QP // server end: carries responses
	srv *Server
}

// Call issues a request of the given kind at simulated time at and
// returns a reader over the response payload and the simulated completion
// instant at the client. The exchange is charged where the hardware
// would spend it — the request's flight on the client's queue pair, the
// server's CPU share from its arrival, the handler's own device time,
// the response's flight on the server's queue pair — and the handler
// itself runs here, on the caller's goroutine, reading req in place.
//
// The response lands in resp, the caller's receive buffer, the way a
// verbs client posts memory it registered once for replies to land in:
// it is emptied first and grows to its high-water mark over the calls
// that reuse it, and the returned reader reads it in place until resp is
// reused. Concurrent calls on one Client need a receive buffer each.
func (c *Client) Call(at simnet.Time, kind Kind, req []byte, resp *Writer) (Reader, simnet.Time, error) {
	h, err := c.srv.handler(kind)
	if err != nil {
		return Reader{}, at, err
	}
	arrival, err := c.qp.Send(at, headerLen+len(req))
	if err != nil {
		return Reader{}, at, fmt.Errorf("%w: %v", ErrClosed, err)
	}
	_, done := c.srv.cpu.Acquire(arrival, c.srv.cpuPerReq)

	resp.buf = resp.buf[:0]
	var remote *RemoteError // an error reply carries its text as payload
	if h == nil {
		remote = &RemoteError{Kind: kind, Msg: fmt.Sprintf("no handler for kind %d", kind)}
	} else {
		hDone, herr := h(done, Reader{buf: req}, resp)
		done = simnet.MaxTime(done, hDone)
		if herr != nil {
			remote = &RemoteError{Kind: kind, Msg: herr.Error()}
		}
	}
	size := len(resp.buf)
	if remote != nil {
		size = len(remote.Msg)
	}
	end, err := c.sqp.Send(done, headerLen+size)
	if err != nil {
		return Reader{}, at, fmt.Errorf("%w: %v", ErrClosed, err)
	}
	if remote != nil {
		return Reader{}, end, remote
	}
	return Reader{buf: resp.buf}, end, nil
}

// Close tears the client down; later calls fail with ErrClosed.
func (c *Client) Close() { c.qp.Close() }

// Dial connects a queue pair on the client node to one on the server's
// node and returns a Client that calls srv over it.
func Dial(clientNode *rdma.Node, serverNode *rdma.Node, srv *Server) (*Client, error) {
	cq := clientNode.NewQP()
	sq := serverNode.NewQP()
	if err := cq.Connect(sq); err != nil {
		return nil, fmt.Errorf("rpc: dial: %w", err)
	}
	return &Client{qp: cq, sqp: sq, srv: srv}, nil
}
