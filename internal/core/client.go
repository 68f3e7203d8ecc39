// Package core implements the Gengar client library: the simple
// programming API the paper exposes over the distributed hybrid memory
// pool (gmalloc/gfree/gread/gwrite plus locking), together with the
// client half of every Gengar mechanism — hotness digests, the cached
// remap view that redirects hot reads to distributed DRAM buffers, and
// proxied writes with read-your-writes.
//
// A Client models one application thread: operations advance its private
// simulated clock, so closed-loop benchmark drivers get queueing-accurate
// latencies for free. Use one Client per concurrent actor.
package core

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"gengar/internal/cache"
	"gengar/internal/config"
	"gengar/internal/hmem"
	"gengar/internal/hotness"
	"gengar/internal/lock"
	"gengar/internal/metrics"
	"gengar/internal/proxy"
	"gengar/internal/rdma"
	"gengar/internal/region"
	"gengar/internal/rpc"
	"gengar/internal/server"
	"gengar/internal/simnet"
	"gengar/internal/telemetry"
	"gengar/internal/telemetry/span"
)

// Errors returned by client operations.
var (
	// ErrUnknownServer reports an address homed on a server the client
	// has no session with.
	ErrUnknownServer = errors.New("core: address homed on unknown server")
	// ErrClosed reports use of a closed client.
	ErrClosed = errors.New("core: client closed")
	// ErrContended reports that an optimistic read exhausted its retries
	// against concurrent writers; take a shared lock instead.
	ErrContended = errors.New("core: optimistic read contended")
)

// serverConn is the client's session with one home server.
type serverConn struct {
	srv      *server.Server
	ctl      *rpc.Client
	qp       *rdma.QP
	locks    *lock.Client
	writer   *proxy.Writer
	view     *cache.ClientView
	nvm      rdma.RegionHandle
	hot      *hotness.Staging // this home's accesses, staged for its digests
	ringBase int64

	// chain is this home's share of the write chain being posted —
	// scratch reused across ops under Client.mu (see writeChain).
	chain []proxy.StageReq
}

// Client is one user of the distributed hybrid memory pool.
type Client struct {
	id      uint32
	name    string
	cluster *server.Cluster
	node    *rdma.Node
	opts    config.Features
	poolNVM bool // pool media needs a persistence fence on direct writes

	//gengar:lint-ignore lock-across-blocking a Client models one application thread: c.mu serializes its operations by design, and the calls it spans advance the client's private simulated clock rather than contending in wall time
	mu      sync.Mutex
	now     simnet.Time
	conns   map[uint16]*serverConn
	nodeQPs map[string]*rdma.QP
	rr      int
	closed  bool
	// Write-chain scratch: the homes the current chain touches, in first-
	// touch order, and the WQEs of the direct chain being posted.
	homes []*serverConn
	wqes  []rdma.WriteReq
	// copyBuf is what a cache-hit Read READs the copy's header and
	// payload into, and tx and rx are every control-plane call's request
	// and receive buffers (see request). All three are reused under mu
	// (Connect's session opens run before the client is shared) and grow
	// to their high-water marks, like ReadMulti's pooled tmps.
	copyBuf []byte
	tx, rx  rpc.Writer

	// tracer is the cluster's shared op tracer. Ops mark spans with
	// explicit simulated instants (StartAt/MarkAt/FinishAt), so both
	// mounts attribute the same stages; sampling off (the default) makes
	// every span call a nil no-op.
	tracer *span.Tracer

	readLat  metrics.Histogram
	writeLat metrics.Histogram
	hits     metrics.Counter
	misses   metrics.Counter
	staleGen metrics.Counter
	reads    metrics.Counter
	writes   metrics.Counter

	// Batched-write accounting: chain lengths, and how many per-record
	// persist fences / write-through RPCs batching coalesced away.
	writeBatchLen   metrics.Histogram
	coalescedFences metrics.Counter
	coalescedRPCs   metrics.Counter
}

// Connect joins the pool as a new user named name, opening a session
// (control channel, data queue pair, lock client, staging ring) with
// every server. Feature switches come from the cluster configuration.
func Connect(c *server.Cluster, name string) (*Client, error) {
	cfg := c.Config()
	node, err := c.Fabric().AddNode("client-" + name)
	if err != nil {
		return nil, err
	}
	cl := &Client{
		id:      c.NextClientID(),
		name:    name,
		cluster: c,
		node:    node,
		opts:    cfg.Features,
		poolNVM: cfg.PoolMedia.Kind == hmem.KindNVM,
		tracer:  c.Tracer(),
		conns:   make(map[uint16]*serverConn),
		nodeQPs: make(map[string]*rdma.QP),
	}
	cl.registerTelemetry(c.Telemetry())
	for _, s := range c.Registry().Servers() {
		conn, err := cl.openSession(s)
		if err != nil {
			cl.Close()
			return nil, fmt.Errorf("core: connect %s to server %d: %w", name, s.ID(), err)
		}
		cl.conns[s.ID()] = conn
	}
	return cl, nil
}

// registerTelemetry exposes the client's op counters and latency
// histograms in the cluster registry under the gengar_client_* names,
// labeled with the client's name. The registered instruments are the
// same ones Stats reads, so both views always agree.
func (c *Client) registerTelemetry(reg *telemetry.Registry) {
	cl := telemetry.L("client", c.name)
	reg.RegisterCounter("gengar_client_reads_total", "greads issued", &c.reads, cl)
	reg.RegisterCounter("gengar_client_writes_total", "gwrites issued", &c.writes, cl)
	reg.RegisterCounter("gengar_client_cache_hits_total", "reads served from a DRAM copy", &c.hits, cl)
	reg.RegisterCounter("gengar_client_cache_misses_total", "reads served from home NVM", &c.misses, cl)
	reg.RegisterCounter("gengar_client_stale_retries_total", "DRAM-copy reads retried on a stale generation", &c.staleGen, cl)
	reg.RegisterHistogram("gengar_client_read_latency_seconds", "simulated gread latency", &c.readLat, cl)
	reg.RegisterHistogram("gengar_client_write_latency_seconds", "simulated gwrite latency", &c.writeLat, cl)
	reg.RegisterHistogram("gengar_client_write_batch_len", "records per batched write chain", &c.writeBatchLen, cl)
	reg.RegisterCounter("gengar_client_coalesced_fences_total", "persist fences saved by write batching", &c.coalescedFences, cl)
	reg.RegisterCounter("gengar_client_coalesced_writethrough_total", "write-through RPCs saved by write batching", &c.coalescedRPCs, cl)
}

func (c *Client) openSession(s *server.Server) (*serverConn, error) {
	ctl, err := rpc.Dial(c.node, s.Node(), s.RPC())
	if err != nil {
		return nil, err
	}
	resp, end, err := ctl.Call(c.now, server.KindOpenSession, nil, &c.rx)
	if err != nil {
		ctl.Close()
		return nil, err
	}
	ringRKey := resp.U32()
	ringBase := resp.I64()
	ringSlots := int(resp.U32())
	ringSlotSize := int(resp.U32())
	nvmRKey := resp.U32()
	lockRKey := resp.U32()
	lockBase := resp.I64()
	lockSlots := int(resp.U32())
	if err := resp.Err(); err != nil {
		ctl.Close()
		return nil, err
	}
	c.now = simnet.MaxTime(c.now, end)

	qp, err := c.qpToNode(s.Node().ID())
	if err != nil {
		ctl.Close()
		return nil, err
	}
	locks, err := lock.NewClient(qp, lock.Geometry{
		Handle: rdma.RegionHandle{Node: s.Node().ID(), RKey: lockRKey},
		Base:   lockBase,
		Slots:  lockSlots,
	}, c.id, 0, 200*time.Nanosecond)
	if err != nil {
		ctl.Close()
		return nil, err
	}
	var writer *proxy.Writer
	if c.opts.Proxy {
		writer, err = proxy.NewWriter(s.Engine(), qp, proxy.Ring{
			ID:       int(c.id),
			Handle:   rdma.RegionHandle{Node: s.Node().ID(), RKey: ringRKey},
			Base:     ringBase,
			DevBase:  ringBase, // ring MR covers the whole ring device
			Slots:    ringSlots,
			SlotSize: ringSlotSize,
		})
		if err != nil {
			ctl.Close()
			return nil, err
		}
	}
	conn := &serverConn{
		srv:      s,
		ctl:      ctl,
		qp:       qp,
		locks:    locks,
		writer:   writer,
		view:     cache.NewClientView(),
		nvm:      rdma.RegionHandle{Node: s.Node().ID(), RKey: nvmRKey},
		hot:      hotness.NewStaging(s.Core().Config().Hotness.DigestEvery),
		ringBase: ringBase,
	}

	// Per-session instruments, labeled (client, home server).
	reg := c.cluster.Telemetry()
	labels := []telemetry.Label{
		telemetry.L("client", c.name),
		telemetry.L("server", fmt.Sprintf("%d", s.ID())),
	}
	conn.locks.RegisterTelemetry(reg, labels...)
	conn.view.RegisterTelemetry(reg, labels...)
	if conn.writer != nil {
		w := conn.writer
		reg.GaugeFunc("gengar_client_ring_occupancy_high_water",
			"most staging-ring slots ever simultaneously in use", w.OccupancyHighWater, labels...)
	}
	return conn, nil
}

// qpToNode returns (creating on demand) a connected queue pair to the
// given server node — used both for home-server data ops and for reading
// DRAM copies hosted on other servers. Caller must hold no locks; it is
// called under c.mu or during connect only.
func (c *Client) qpToNode(nodeID string) (*rdma.QP, error) {
	if qp, ok := c.nodeQPs[nodeID]; ok {
		return qp, nil
	}
	s, ok := c.cluster.Registry().ByNode(nodeID)
	if !ok {
		return nil, fmt.Errorf("core: no server at node %q", nodeID)
	}
	cq, sq := c.node.NewQP(), s.Node().NewQP()
	if err := cq.Connect(sq); err != nil {
		return nil, err
	}
	c.nodeQPs[nodeID] = cq
	return cq, nil
}

// ID returns the client's fabric-unique user ID.
func (c *Client) ID() uint32 { return c.id }

// Name returns the client's name.
func (c *Client) Name() string { return c.name }

// Now returns the client's simulated clock (the completion instant of
// its most recent operation).
func (c *Client) Now() simnet.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// AdvanceTo moves the client's clock forward to t if t is later — the
// synchronization primitive phase barriers use (e.g. MapReduce reducers
// must not start before the last mapper finished).
func (c *Client) AdvanceTo(t simnet.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t > c.now {
		c.now = t
	}
}

// AdvanceToFrontier moves the client's clock to the fabric-wide
// simulated frontier (the latest completion observed anywhere). Harness
// code calls it between a setup phase and a measured phase, so stale
// resource watermarks left by setup traffic do not surface as a phantom
// first-operation stall.
func (c *Client) AdvanceToFrontier() {
	c.AdvanceTo(c.cluster.Fabric().Clock().Now())
}

// request empties and returns the request buffer of the next
// control-plane call; its reply lands in c.rx. Called with c.mu held.
func (c *Client) request() *rpc.Writer {
	c.tx.Reset(c.tx.Bytes()[:0])
	return &c.tx
}

func (c *Client) conn(addr region.GAddr) (*serverConn, error) {
	conn, ok := c.conns[addr.Server()]
	if !ok {
		return nil, fmt.Errorf("%w: %v", ErrUnknownServer, addr)
	}
	return conn, nil
}

// Close drains proxied writes and tears down all sessions.
func (c *Client) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	c.closed = true
	for _, conn := range c.conns {
		if conn.writer != nil {
			conn.writer.Close() // drains staged writes first
		}
		w := c.request()
		w.I64(conn.ringBase)
		// Best-effort: a failed close just strands one ring until the
		// server restarts.
		_, _, _ = conn.ctl.Call(c.now, server.KindCloseSession, w.Bytes(), &c.rx)
		conn.ctl.Close()
	}
}
