package rdma

import (
	"fmt"
	"sync"

	"gengar/internal/simnet"
)

// headerBytes approximates the on-wire size of a request that carries no
// payload (one-sided READ request, ACK, atomic request).
const headerBytes = 32

// QP is a reliable-connected queue pair. One-sided operations (Read,
// Write, CompareAndSwap, FetchAdd) execute against the peer's registered
// memory without involving the peer's CPU. A two-sided Send is charged
// its flight and nothing else: handing the bytes to whoever services the
// message, and charging that service's CPU, is the caller's business
// (internal/rpc is the one caller).
//
// A QP is safe for concurrent use, but concurrent operations may complete
// in any order (applications that need ordering use one QP per actor, as
// on real hardware).
type QP struct {
	node *Node
	// initRes serializes this queue pair's *initiations*: the software
	// cost of building a WQE and ringing the doorbell is paid per
	// initiator, not on a node-global engine — two actors on one machine
	// post to their own QPs in parallel, as on real hardware.
	initRes *simnet.Resource

	mu     sync.Mutex
	peer   *QP
	closed bool
}

// NewQP creates an unconnected queue pair on the node.
func (n *Node) NewQP() *QP {
	return &QP{
		node:    n,
		initRes: simnet.NewResource(n.id + "/qp-sq"),
	}
}

// Connect pairs qp with peer bidirectionally. Both ends must be
// unconnected and on the same fabric.
func (qp *QP) Connect(peer *QP) error {
	if peer == nil || peer == qp {
		return fmt.Errorf("rdma: connect %s to itself or nil", qp.node.id)
	}
	if qp.node.fabric != peer.node.fabric {
		return fmt.Errorf("rdma: connect across fabrics (%s, %s)", qp.node.id, peer.node.id)
	}
	// Both ends lock in address order, so concurrent reverse Connects
	// cannot deadlock.
	first, second := qp, peer
	if fmt.Sprintf("%p", first) > fmt.Sprintf("%p", second) {
		first, second = second, first
	}
	first.mu.Lock()
	defer first.mu.Unlock()
	second.mu.Lock()
	defer second.mu.Unlock()
	if qp.closed || peer.closed {
		return ErrQPClosed
	}
	if qp.peer != nil || peer.peer != nil {
		return fmt.Errorf("rdma: queue pair already connected")
	}
	qp.peer = peer
	peer.peer = qp
	return nil
}

// Close tears the QP down: operations on it, and Sends to it, fail with
// ErrQPClosed. Closing is idempotent.
func (qp *QP) Close() {
	qp.mu.Lock()
	qp.closed = true
	qp.mu.Unlock()
}

// Node returns the local node the QP is attached to.
func (qp *QP) Node() *Node { return qp.node }

// remote returns the connected peer or an error.
func (qp *QP) remote() (*QP, error) {
	qp.mu.Lock()
	defer qp.mu.Unlock()
	if qp.closed {
		return nil, ErrQPClosed
	}
	if qp.peer == nil {
		return nil, fmt.Errorf("rdma: qp on %s: %w", qp.node.id, ErrNotConnected)
	}
	return qp.peer, nil
}

// transferInit charges one direction of the wire for a message this QP
// initiates: the QP's own send queue is a contended resource (posting
// software plus per-QP serialization), and the rest of the wire is pure
// latency.
//
// The modeling principle: the only *watermark* resources on the network
// path are per-initiator, where arrivals are ordered by construction
// (one actor's operations chain). Node-global engines are deliberately
// NOT watermark resources — messages from independent flows (a client's
// stage, a flusher's write-through, a NIC-generated ACK) carry unrelated
// virtual timestamps, and a shared busy-until watermark would serialize
// a message behind another that merely *carries a later timestamp*:
// phantom queueing with no hardware analogue (NIC engines process tens
// of millions of messages per second, in arrival order). Per-message NIC
// hardware cost (RespPerOp) and serialization are charged as latency;
// traffic volume is accounted per node (TxBytes/RxBytes).
func (qp *QP) transferInit(to *Node, departure simnet.Time, size int) simnet.Time {
	m := qp.node.fabric.model
	_, swEnd := qp.initRes.Acquire(departure, m.PerOp+m.SerializeTime(size))
	return deliver(qp.node, to, swEnd, size)
}

// transferResp is the path of responder-generated messages (ACKs, READ
// responses, atomic responses): the responder NIC emits them in hardware
// with no software involvement, so only the NIC per-message cost,
// serialization and propagation are charged — as latency (see
// transferInit for why).
func transferResp(from, to *Node, departure simnet.Time, size int) simnet.Time {
	m := from.fabric.model
	return deliver(from, to, departure.Add(m.SerializeTime(size)), size)
}

// deliver accounts the message volume and returns the arrival instant:
// NIC per-message cost, propagation, and receive DMA.
func deliver(from, to *Node, txEnd simnet.Time, size int) simnet.Time {
	m := from.fabric.model
	from.txBytes.Add(int64(size))
	to.rxBytes.Add(int64(size))
	return txEnd.Add(m.RespPerOp + m.Propagation + m.SerializeTime(size))
}

// Write performs a one-sided RDMA WRITE of src into the remote address.
// The returned instant is when the data has reached the target device's
// persistence domain and the ACK has returned to the initiator — i.e. the
// "write + remote flush" cycle a DSHM system must pay for a durable
// remote store. at is the initiator's current simulated time.
func (qp *QP) Write(at simnet.Time, src []byte, raddr RemoteAddr) (simnet.Time, error) {
	qp.node.fabric.verbWrites.Inc()
	peer, err := qp.remote()
	if err != nil {
		return at, err
	}
	target := peer.node
	if raddr.Region.Node != target.id {
		return at, fmt.Errorf("rdma: write to %s via qp connected to %s", raddr.Region.Node, target.id)
	}
	mr, err := target.lookupMR(raddr.Region.RKey, AccessRemoteWrite, raddr.Offset, len(src))
	if err != nil {
		return at, err
	}
	landed := qp.transferInit(target, at, headerBytes+len(src))
	devEnd, err := mr.dev.Write(landed, mr.base+raddr.Offset, src)
	if err != nil {
		return at, fmt.Errorf("rdma: write %s: %w", raddr, err)
	}
	ackEnd := transferResp(target, qp.node, devEnd, headerBytes)
	qp.node.fabric.clock.Observe(ackEnd)
	return ackEnd, nil
}

// Read performs a one-sided RDMA READ filling dst from the remote
// address and returns the completion instant at the initiator.
func (qp *QP) Read(at simnet.Time, dst []byte, raddr RemoteAddr) (simnet.Time, error) {
	qp.node.fabric.verbReads.Inc()
	peer, err := qp.remote()
	if err != nil {
		return at, err
	}
	target := peer.node
	if raddr.Region.Node != target.id {
		return at, fmt.Errorf("rdma: read from %s via qp connected to %s", raddr.Region.Node, target.id)
	}
	mr, err := target.lookupMR(raddr.Region.RKey, AccessRemoteRead, raddr.Offset, len(dst))
	if err != nil {
		return at, err
	}
	reqLanded := qp.transferInit(target, at, headerBytes)
	devEnd, err := mr.dev.Read(reqLanded, mr.base+raddr.Offset, dst)
	if err != nil {
		return at, fmt.Errorf("rdma: read %s: %w", raddr, err)
	}
	respEnd := transferResp(target, qp.node, devEnd, headerBytes+len(dst))
	qp.node.fabric.clock.Observe(respEnd)
	return respEnd, nil
}

// CompareAndSwap performs a one-sided 8-byte atomic compare-and-swap on
// the remote address and returns the value observed there before the
// operation. The swap happened iff prev == old.
func (qp *QP) CompareAndSwap(at simnet.Time, raddr RemoteAddr, old, new uint64) (prev uint64, end simnet.Time, err error) {
	qp.node.fabric.verbCAS.Inc()
	peer, err := qp.remote()
	if err != nil {
		return 0, at, err
	}
	target := peer.node
	mr, err := target.lookupMR(raddr.Region.RKey, AccessRemoteAtomic, raddr.Offset, 8)
	if err != nil {
		return 0, at, err
	}
	reqLanded := qp.transferInit(target, at, headerBytes)
	prev, devEnd, err := mr.dev.CompareAndSwap64(reqLanded, mr.base+raddr.Offset, old, new)
	if err != nil {
		return 0, at, fmt.Errorf("rdma: cas %s: %w", raddr, err)
	}
	respEnd := transferResp(target, qp.node, devEnd, headerBytes)
	qp.node.fabric.clock.Observe(respEnd)
	return prev, respEnd, nil
}

// FetchAdd performs a one-sided 8-byte atomic fetch-and-add on the remote
// address and returns the pre-add value.
func (qp *QP) FetchAdd(at simnet.Time, raddr RemoteAddr, delta uint64) (prev uint64, end simnet.Time, err error) {
	qp.node.fabric.verbFetchAdd.Inc()
	peer, err := qp.remote()
	if err != nil {
		return 0, at, err
	}
	target := peer.node
	mr, err := target.lookupMR(raddr.Region.RKey, AccessRemoteAtomic, raddr.Offset, 8)
	if err != nil {
		return 0, at, err
	}
	reqLanded := qp.transferInit(target, at, headerBytes)
	prev, devEnd, err := mr.dev.FetchAdd64(reqLanded, mr.base+raddr.Offset, delta)
	if err != nil {
		return 0, at, fmt.Errorf("rdma: fetch-add %s: %w", raddr, err)
	}
	respEnd := transferResp(target, qp.node, devEnd, headerBytes)
	qp.node.fabric.clock.Observe(respEnd)
	return prev, respEnd, nil
}

// Send charges the flight of a two-sided message of size payload bytes
// to the peer and returns its arrival instant at the peer's NIC. Nothing
// is delivered: the caller hands the bytes over itself.
func (qp *QP) Send(at simnet.Time, size int) (arrival simnet.Time, err error) {
	qp.node.fabric.verbSends.Inc()
	peer, err := qp.remote()
	if err != nil {
		return at, err
	}
	if _, err := peer.remote(); err != nil {
		return at, err // the receiving end is closed
	}
	arrival = qp.transferInit(peer.node, at, headerBytes+size)
	qp.node.fabric.clock.Observe(arrival)
	return arrival, nil
}
