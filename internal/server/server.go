// Package server mounts the transport-agnostic Gengar engine
// (internal/engine) on the simulated RDMA fabric: it is the in-process
// stand-in for the daemon a real deployment runs per memory server.
// The engine owns the mechanisms — NVM pool + buddy allocator, DRAM
// buffer arena with promoted copies, staging rings + proxy flusher,
// lock table, hotness sketch and remap table. This mount adds what is
// transport- and deployment-specific:
//
//   - a fabric node with registered memory regions (NVM, cache arena,
//     staging rings, lock table) clients address with one-sided verbs,
//   - the control-plane RPC endpoints (gmalloc/gfree/digest/...),
//   - cluster-wide placement of promoted copies via the shared registry
//     and server-to-server queue pairs — the "distributed DRAM buffers"
//     of the paper.
//
// Virtual time: every operation carries the caller's simnet instant, so
// the engine is driven entirely by the simulation's clockless timeline.
package server

import (
	"fmt"
	"slices"
	"sync"

	"gengar/internal/config"
	"gengar/internal/engine"
	"gengar/internal/hmem"
	"gengar/internal/hotness"
	"gengar/internal/proxy"
	"gengar/internal/rdma"
	"gengar/internal/region"
	"gengar/internal/rpc"
	"gengar/internal/simnet"
	"gengar/internal/telemetry"

	"gengar/internal/cache"
)

// Control-plane RPC kinds served by every Gengar server.
const (
	KindMalloc rpc.Kind = iota + 1
	KindFree
	KindDigest
	KindRemapFetch
	KindOpenSession
	KindCloseSession
	KindWriteThroughBatch
)

// ErrNotHome is returned for operations addressed to the wrong home
// server.
var ErrNotHome = engine.ErrNotHome

// Stats is a server activity snapshot (the engine's, re-exported so
// callers of the mount need not import the engine package).
type Stats = engine.Stats

// NodeName returns the fabric node name of server id.
func NodeName(id uint16) string { return fmt.Sprintf("server-%d", id) }

// Server is one Gengar memory server: an engine mounted on the
// simulated fabric.
type Server struct {
	id   uint16
	cfg  config.Cluster
	node *rdma.Node
	eng  *engine.Engine

	// Aliases into the engine's state, for the mount's own paths (MR
	// registration, registry placement, tests).
	nvm      *hmem.Device
	cacheDev *hmem.Device
	ringDev  *hmem.Device
	lockDev  *hmem.Device
	bufp     *cache.BufferPool
	remap    *cache.RemapTable

	nvmMR   *rdma.MR
	cacheMR *rdma.MR
	ringMR  *rdma.MR
	lockMR  *rdma.MR

	rpcSrv   *rpc.Server
	registry *Registry

	mu    sync.Mutex // guards peers
	peers map[uint16]*rdma.QP
}

// New builds a server with the given ID on the fabric, creating its
// engine and registering its memory regions. The server is not usable
// for placement until Join has added it to a Registry and ConnectMesh
// has meshed it with its peers.
func New(f *rdma.Fabric, id uint16, cfg config.Cluster) (*Server, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	node, err := f.AddNode(NodeName(id))
	if err != nil {
		return nil, err
	}
	eng, err := engine.New(engine.Config{ID: id, Name: NodeName(id), Cluster: cfg})
	if err != nil {
		return nil, err
	}

	s := &Server{
		id:       id,
		cfg:      cfg,
		node:     node,
		eng:      eng,
		nvm:      eng.NVM(),
		cacheDev: eng.CacheDev(),
		ringDev:  eng.RingDev(),
		lockDev:  eng.LockDev(),
		bufp:     eng.BufferPool(),
		remap:    eng.Remap(),
		peers:    make(map[uint16]*rdma.QP),
	}

	if s.nvmMR, err = node.RegisterMR(s.nvm, 0, s.nvm.Size(), rdma.AccessAll); err != nil {
		return nil, err
	}
	if s.cacheMR, err = node.RegisterMR(s.cacheDev, 0, s.cacheDev.Size(), rdma.AccessAll); err != nil {
		return nil, err
	}
	if s.ringMR, err = node.RegisterMR(s.ringDev, 0, s.ringDev.Size(), rdma.AccessRemoteWrite|rdma.AccessRemoteRead); err != nil {
		return nil, err
	}
	if s.lockMR, err = node.RegisterMR(s.lockDev, 0, s.lockDev.Size(), rdma.AccessAll); err != nil {
		return nil, err
	}

	s.rpcSrv = rpc.NewServer(eng.CPU(), cfg.RPCCPUPerReq)
	s.rpcSrv.Handle(KindMalloc, s.handleMalloc)
	s.rpcSrv.Handle(KindFree, s.handleFree)
	s.rpcSrv.Handle(KindDigest, s.handleDigest)
	s.rpcSrv.Handle(KindRemapFetch, s.handleRemapFetch)
	s.rpcSrv.Handle(KindOpenSession, s.handleOpenSession)
	s.rpcSrv.Handle(KindCloseSession, s.handleCloseSession)
	s.rpcSrv.Handle(KindWriteThroughBatch, s.handleWriteThroughBatch)
	return s, nil
}

// ID returns the server's pool ID.
func (s *Server) ID() uint16 { return s.id }

// Node returns the server's fabric node.
func (s *Server) Node() *rdma.Node { return s.node }

// Core returns the server's engine — the transport-agnostic mechanism
// state this mount serves.
func (s *Server) Core() *engine.Engine { return s.eng }

// Engine returns the server's proxy flusher.
func (s *Server) Engine() *proxy.Engine { return s.eng.Flusher() }

// RPC returns the server's control-plane endpoint.
func (s *Server) RPC() *rpc.Server { return s.rpcSrv }

// Stats returns a snapshot of the server's counters.
func (s *Server) Stats() Stats { return s.eng.Stats() }

// RegisterTelemetry exposes the server's live counters and derived
// state in reg under the gengar_server_* names, labeled with the
// server's pool ID. The same counter instances back both Stats and the
// registry, so the two views never disagree.
func (s *Server) RegisterTelemetry(reg *telemetry.Registry) {
	s.eng.RegisterTelemetry(reg, telemetry.L("server", fmt.Sprintf("%d", s.id)))
}

// Close stops the server's flusher and RPC endpoint.
func (s *Server) Close() {
	s.eng.Close()
	s.rpcSrv.Close()
}

// copyFootprint is the engine's promotion budget charge for an object
// (kept as a method for the mount's tests).
func (s *Server) copyFootprint(base region.GAddr) int64 { return s.eng.CopyFootprint(base) }

// applyToCache is the proxy flusher's write-through hook (kept as a
// method for the mount's tests).
func (s *Server) applyToCache(at simnet.Time, addr region.GAddr, data []byte) simnet.Time {
	return s.eng.ApplyToCache(at, addr, data)
}

// --- control-plane handlers ---
//
// Each handler encodes its reply into resp, the caller's receive buffer,
// so a reply costs the server no allocation.

func (s *Server) handleMalloc(at simnet.Time, req rpc.Reader, resp *rpc.Writer) (simnet.Time, error) {
	size := req.I64()
	if err := req.Err(); err != nil {
		return at, err
	}
	addr, err := s.eng.Malloc(size)
	if err != nil {
		return at, err
	}
	resp.U64(uint64(addr))
	return at, nil
}

func (s *Server) handleFree(at simnet.Time, req rpc.Reader, resp *rpc.Writer) (simnet.Time, error) {
	addr := region.GAddr(req.U64())
	if err := req.Err(); err != nil {
		return at, err
	}
	if addr.Server() != s.id {
		return at, fmt.Errorf("%w: %v", ErrNotHome, addr)
	}
	return at, s.eng.Free(addr)
}

// digestEntryBytes is one digest entry on the wire: addr u64 + reads u32
// + writes u32.
const digestEntryBytes = 16

// digestScratch holds the entries handleDigest decodes for the engine to
// fold. Clients digest to one server concurrently, so each call takes a
// scratch slice of its own from the pool.
var digestScratch = sync.Pool{New: func() any { return new([]hotness.Entry) }}

func (s *Server) handleDigest(at simnet.Time, req rpc.Reader, resp *rpc.Writer) (simnet.Time, error) {
	n, err := req.Count(digestEntryBytes)
	if err != nil {
		return at, err
	}
	scratch := digestScratch.Get().(*[]hotness.Entry)
	defer digestScratch.Put(scratch)
	entries := slices.Grow((*scratch)[:0], n)[:n]
	*scratch = entries
	for i := range entries {
		entries[i] = hotness.Entry{
			Addr:   region.GAddr(req.U64()),
			Reads:  uint64(req.U32()),
			Writes: uint64(req.U32()),
		}
	}
	resp.U64(s.eng.Digest(at, entries))
	return at, nil
}

func (s *Server) handleRemapFetch(at simnet.Time, req rpc.Reader, resp *rpc.Writer) (simnet.Time, error) {
	s.remap.EncodeSnapshot(resp)
	return at, nil
}

func (s *Server) handleOpenSession(at simnet.Time, req rpc.Reader, resp *rpc.Writer) (simnet.Time, error) {
	base, err := s.eng.OpenRing()
	if err != nil {
		return at, err
	}
	slots, slotSize := s.eng.RingGeometry()
	tbl := s.eng.LockTable()
	resp.U32(s.ringMR.RKey()).I64(base).
		U32(uint32(slots)).U32(uint32(slotSize)).
		U32(s.nvmMR.RKey()).
		U32(s.lockMR.RKey()).I64(tbl.Base()).U32(uint32(tbl.Slots()))
	return at, nil
}

// handleCloseSession returns a session's staging ring for reuse. The
// client must have drained its writer first; the server trusts the
// client here because ring contents are only interpreted via the
// flusher queue, which the departing writer no longer feeds.
func (s *Server) handleCloseSession(at simnet.Time, req rpc.Reader, resp *rpc.Writer) (simnet.Time, error) {
	base := req.I64()
	if err := req.Err(); err != nil {
		return at, err
	}
	return at, s.eng.CloseRing(base)
}

// handleWriteThroughBatch keeps promoted copies coherent after a client
// wrote the home NVM directly (the proxy-disabled path): the server
// re-reads the just-written NVM ranges and refreshes the DRAM copies
// synchronously, so the RPC reply is the client's coherence point. One
// RPC covers a whole write chain — a k-record direct-path burst pays
// one control-plane round trip instead of k. Ranges are refreshed in
// request order.
func (s *Server) handleWriteThroughBatch(at simnet.Time, req rpc.Reader, resp *rpc.Writer) (simnet.Time, error) {
	n := int(req.U32())
	end := at
	for i := 0; i < n; i++ {
		addr := region.GAddr(req.U64())
		size := int64(req.U32())
		if err := req.Err(); err != nil {
			return at, err
		}
		if addr.Server() != s.id {
			return at, fmt.Errorf("%w: %v", ErrNotHome, addr)
		}
		var err error
		if end, err = s.eng.RefreshCopy(end, addr, size); err != nil {
			return at, err
		}
	}
	return end, req.Err()
}
