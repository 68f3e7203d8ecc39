package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"gengar/internal/cache"
	"gengar/internal/engine"
	"gengar/internal/hmem"
	"gengar/internal/rdma"
	"gengar/internal/simnet"
)

// ErrNoBufferSpace is returned when no server's DRAM buffer arena can
// host a promotion.
var ErrNoBufferSpace = errors.New("server: no DRAM buffer space in cluster")

// Registry is the cluster-wide view the servers share for distributed
// DRAM buffer placement: it knows every server's buffer pool and routes
// copy writes and releases to the owning server.
type Registry struct {
	mu      sync.RWMutex
	servers []*Server
	byNode  map[string]*Server

	// gen is the cluster-wide promotion generation counter stamped into
	// copy headers; cluster-wide uniqueness is what lets a client detect
	// that a buffer slot it is about to read was reused for a different
	// object.
	gen atomic.Uint64
}

// nextGen returns the next promotion generation stamp (never zero).
func (r *Registry) nextGen() uint64 { return r.gen.Add(1) }

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byNode: make(map[string]*Server)}
}

// Join adds a server to the registry and hands the server its back-
// reference. It must be called once per server before any traffic.
func (r *Registry) Join(s *Server) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byNode[s.node.ID()]; dup {
		return fmt.Errorf("server: %s already joined", s.node.ID())
	}
	r.servers = append(r.servers, s)
	r.byNode[s.node.ID()] = s
	s.registry = r
	// Joining is what makes cluster-wide placement possible, so this is
	// where the engine learns its placement strategy.
	s.eng.SetPlacer(&registryPlacer{r: r, home: s})
	return nil
}

// Servers returns the joined servers in join order.
func (r *Registry) Servers() []*Server {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*Server, len(r.servers))
	copy(out, r.servers)
	return out
}

// ByNode returns the server whose fabric node has the given ID.
func (r *Registry) ByNode(nodeID string) (*Server, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s, ok := r.byNode[nodeID]
	return s, ok
}

// ByID returns the server with the given pool ID.
func (r *Registry) ByID(id uint16) (*Server, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, s := range r.servers {
		if s.id == id {
			return s, true
		}
	}
	return nil, false
}

// ConnectMesh creates the server-to-server queue pairs used to install
// and refresh remote DRAM copies. Call once after all servers joined.
func (r *Registry) ConnectMesh() error {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for i, a := range r.servers {
		for _, b := range r.servers[i+1:] {
			qa, qb := a.node.NewQP(), b.node.NewQP()
			if err := qa.Connect(qb); err != nil {
				return fmt.Errorf("server: mesh %s<->%s: %w", a.node.ID(), b.node.ID(), err)
			}
			a.mu.Lock()
			a.peers[b.id] = qa
			a.mu.Unlock()
			b.mu.Lock()
			b.peers[a.id] = qb
			b.mu.Unlock()
		}
	}
	return nil
}

// place reserves buffer space for a copy (header + size bytes) on the
// server with the most free arena space, preferring the home server on
// ties so single-server deployments stay local. If that arena cannot
// fit the copy in one run, the others are tried in join order.
func (r *Registry) place(home *Server, size int64) (*Server, int64, error) {
	// Join only appends, so the slice header read under the lock stays
	// a consistent view of the servers joined so far.
	r.mu.RLock()
	servers := r.servers
	r.mu.RUnlock()

	var best *Server
	var bestFree int64
	for _, s := range servers {
		free := s.bufp.Capacity() - s.bufp.UsedBytes()
		if best == nil || free > bestFree || (free == bestFree && s == home) {
			best, bestFree = s, free
		}
	}
	need := cache.CopyFootprint(size)
	if best != nil {
		if off, err := best.bufp.Place(need); err == nil {
			return best, off, nil
		}
	}
	for _, s := range servers {
		if s == best {
			continue
		}
		if off, err := s.bufp.Place(need); err == nil {
			return s, off, nil
		}
	}
	return nil, 0, fmt.Errorf("%w: %d bytes", ErrNoBufferSpace, need)
}

// release frees the buffer space behind a demoted copy.
func (r *Registry) release(loc cache.Location) {
	r.mu.RLock()
	s := r.byNode[loc.Node]
	r.mu.RUnlock()
	if s == nil {
		return
	}
	// Zero the generation first: stamp zero is never minted, so a
	// location still naming this copy — a client's stale view — fails its
	// check from here on, whether or not the space is reused. (An
	// out-of-range location is bogus; Release rejects it too.)
	var zero [8]byte
	_ = s.cacheDev.WriteWordsRaw(loc.Off+cache.CopyGenOff, zero[:])
	// A release failure means the location was already released — a
	// bookkeeping bug upstream, but never fatal to the pool.
	_ = s.bufp.Release(loc.Off)
}

// writeCopy writes data into a copy's data area at the given delta,
// charging local DRAM cost when the copy is on `from` and a server-to-
// server RDMA WRITE otherwise. It returns the completion instant.
func (r *Registry) writeCopy(from *Server, at simnet.Time, loc cache.Location, delta int64, data []byte) (simnet.Time, error) {
	r.mu.RLock()
	target := r.byNode[loc.Node]
	r.mu.RUnlock()
	if target == nil {
		return at, fmt.Errorf("server: unknown copy host %q", loc.Node)
	}
	off := loc.Off + cache.CopyHeaderBytes + delta
	if target == from {
		return from.cacheDev.Write(at, off, data)
	}
	from.mu.Lock()
	qp := from.peers[target.id]
	from.mu.Unlock()
	if qp == nil {
		return at, fmt.Errorf("server: no mesh QP %s->%s", from.node.ID(), target.node.ID())
	}
	return qp.Write(at, data, rdma.RemoteAddr{
		Region: rdma.RegionHandle{Node: loc.Node, RKey: loc.RKey},
		Offset: off,
	})
}

// readCopy fills buf from a copy's data area at the given delta,
// validating the location's generation against the header at the
// holder — a local DRAM read when the copy is on `from`, server-to-
// server RDMA READs otherwise. A mismatched generation (the slot was
// demoted and reused) comes back as engine.ErrStaleCopy so the home
// falls back to its authoritative NVM bytes.
func (r *Registry) readCopy(from *Server, at simnet.Time, loc cache.Location, delta int64, buf []byte) (simnet.Time, error) {
	r.mu.RLock()
	target := r.byNode[loc.Node]
	r.mu.RUnlock()
	if target == nil {
		return at, fmt.Errorf("server: unknown copy host %q", loc.Node)
	}
	var hdr [8]byte
	dataOff := loc.Off + cache.CopyHeaderBytes + delta
	if target == from {
		// The generation header shares its word with the engine's seqlock
		// protocol, so it is checked through the atomic word API.
		gw, err := from.cacheDev.LoadWordRaw(loc.Off + cache.CopyGenOff)
		if err != nil {
			return at, err
		}
		if gw != hmem.BEWord(loc.Gen) {
			return at, engine.ErrStaleCopy
		}
		return from.cacheDev.Read(at, dataOff, buf)
	}
	from.mu.Lock()
	qp := from.peers[target.id]
	from.mu.Unlock()
	if qp == nil {
		return at, fmt.Errorf("server: no mesh QP %s->%s", from.node.ID(), target.node.ID())
	}
	rh := rdma.RegionHandle{Node: loc.Node, RKey: loc.RKey}
	end, err := qp.Read(at, hdr[:], rdma.RemoteAddr{Region: rh, Offset: loc.Off + cache.CopyGenOff})
	if err != nil {
		return at, err
	}
	if binary.BigEndian.Uint64(hdr[:]) != loc.Gen {
		return at, engine.ErrStaleCopy
	}
	return qp.Read(end, buf, rdma.RemoteAddr{Region: rh, Offset: dataOff})
}

// installCopy writes a complete copy — generation header plus object
// data — into freshly placed buffer space.
func (r *Registry) installCopy(from *Server, at simnet.Time, loc cache.Location, payload []byte) (simnet.Time, error) {
	r.mu.RLock()
	target := r.byNode[loc.Node]
	r.mu.RUnlock()
	if target == nil {
		return at, fmt.Errorf("server: unknown copy host %q", loc.Node)
	}
	if target == from {
		return from.cacheDev.Write(at, loc.Off, payload)
	}
	from.mu.Lock()
	qp := from.peers[target.id]
	from.mu.Unlock()
	if qp == nil {
		return at, fmt.Errorf("server: no mesh QP %s->%s", from.node.ID(), target.node.ID())
	}
	return qp.Write(at, payload, rdma.RemoteAddr{
		Region: rdma.RegionHandle{Node: loc.Node, RKey: loc.RKey},
		Offset: loc.Off,
	})
}
