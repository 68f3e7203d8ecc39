package core

import (
	"encoding/binary"
	"fmt"
	"slices"

	"gengar/internal/cache"
	"gengar/internal/hotness"
	"gengar/internal/rdma"
	"gengar/internal/region"
	"gengar/internal/server"
	"gengar/internal/simnet"
	"gengar/internal/telemetry/span"
)

// Malloc allocates size bytes in the pool, choosing home servers
// round-robin, and returns the object's global address.
func (c *Client) Malloc(size int64) (region.GAddr, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return region.NilGAddr, ErrClosed
	}
	servers := c.cluster.Registry().Servers()
	if len(servers) == 0 {
		return region.NilGAddr, ErrUnknownServer
	}
	id := servers[c.rr%len(servers)].ID()
	c.rr++
	return c.mallocOn(id, size)
}

// MallocOn allocates on a specific home server.
func (c *Client) MallocOn(serverID uint16, size int64) (region.GAddr, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return region.NilGAddr, ErrClosed
	}
	return c.mallocOn(serverID, size)
}

func (c *Client) mallocOn(serverID uint16, size int64) (region.GAddr, error) {
	conn, ok := c.conns[serverID]
	if !ok {
		return region.NilGAddr, fmt.Errorf("%w: server %d", ErrUnknownServer, serverID)
	}
	w := c.request()
	w.I64(size)
	resp, end, err := conn.ctl.Call(c.now, server.KindMalloc, w.Bytes(), &c.rx)
	if err != nil {
		return region.NilGAddr, err
	}
	addr := region.GAddr(resp.U64())
	if err := resp.Err(); err != nil {
		return region.NilGAddr, err
	}
	c.now = simnet.MaxTime(c.now, end)
	return addr, nil
}

// Free returns an object to the pool. Any promoted copy is demoted.
func (c *Client) Free(addr region.GAddr) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrClosed
	}
	conn, err := c.conn(addr)
	if err != nil {
		return err
	}
	// Writes to the object must land before the backing store is reused.
	if conn.writer != nil {
		if t := conn.writer.Drain(); t > c.now {
			c.now = t
		}
	}
	w := c.request()
	w.U64(uint64(addr))
	_, end, err := conn.ctl.Call(c.now, server.KindFree, w.Bytes(), &c.rx)
	if err != nil {
		return err
	}
	c.now = simnet.MaxTime(c.now, end)
	return nil
}

// Read fills buf with the len(buf) bytes at addr (gread). Hot objects
// are served from their distributed DRAM copy with a single one-sided
// READ; everything else reads the home NVM pool directly. The client's
// own in-flight proxied writes are always visible (read-your-writes).
func (c *Client) Read(addr region.GAddr, buf []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrClosed
	}
	conn, err := c.conn(addr)
	if err != nil {
		return err
	}
	start := c.now
	sp := c.tracer.StartAt("read", int64(start))
	sp.SetTarget(uint64(addr), len(buf))
	end, err := c.readAt(conn, start, addr, buf, sp)
	if err != nil {
		sp.FinishAt(int64(start))
		return err
	}
	sp.FinishAt(int64(end))
	c.now = end
	c.reads.Inc()
	c.readLat.Record(end.Sub(start))
	c.observe(conn, addr, false)
	return nil
}

// readAt performs the redirected read at the given simulated instant.
// sp (may be nil) gets the serving stage marked at the transfer's
// completion instant: cacheHit for a DRAM-copy read, nvmCopy for the
// home-NVM path. Called with c.mu held.
//
//gengar:hotpath
func (c *Client) readAt(conn *serverConn, at simnet.Time, addr region.GAddr, buf []byte, sp *span.Span) (simnet.Time, error) {
	var end simnet.Time
	served := false

	if conn.writer != nil {
		conn.writer.Pin() // see proxy.Writer.Pin: read, overlay, unpin
		defer conn.writer.Unpin()
	}
	if c.opts.Cache {
		if loc, base, ok := conn.view.Lookup(addr, int64(len(buf))); ok {
			end, served = c.readCopy(at, loc, base, addr, buf)
			if served {
				c.hits.Inc()
				sp.MarkAt(span.StageCacheHit, int64(end))
			} else {
				c.staleGen.Inc()
				at = end // retry against NVM after the failed attempt
			}
		}
	}
	if !served {
		var err error
		end, err = conn.qp.Read(at, buf, rdma.RemoteAddr{Region: conn.nvm, Offset: addr.Offset()})
		if err != nil {
			return at, fmt.Errorf("core: read %v: %w", addr, err)
		}
		c.misses.Inc()
		sp.MarkAt(span.StageNVMCopy, int64(end))
	}
	if conn.writer != nil {
		conn.writer.ApplyPending(addr, buf)
	}
	return end, nil
}

// readCopy attempts to serve a read from a DRAM copy. It reads from the
// copy's generation header through the end of the requested range in one
// one-sided READ and validates the generation stamp; a mismatch means
// the client's remap view is stale and the slot was reused. The READ
// lands in c.copyBuf, the client's own scratch, and only the requested
// range is copied out of it. Called with c.mu held.
//
//gengar:hotpath
func (c *Client) readCopy(at simnet.Time, loc cache.Location, base, addr region.GAddr, buf []byte) (simnet.Time, bool) {
	qp, err := c.qpToNode(loc.Node)
	if err != nil {
		return at, false
	}
	delta := addr.Offset() - base.Offset()
	n := int(cache.CopyHeaderBytes + delta + int64(len(buf)))
	c.copyBuf = slices.Grow(c.copyBuf[:0], n)
	tmp := c.copyBuf[:n]
	end, err := qp.Read(at, tmp, rdma.RemoteAddr{
		Region: rdma.RegionHandle{Node: loc.Node, RKey: loc.RKey},
		Offset: loc.Off,
	})
	if err != nil {
		return at, false
	}
	if gen := binary.BigEndian.Uint64(tmp); gen != loc.Gen {
		return end, false
	}
	copy(buf, tmp[cache.CopyHeaderBytes+delta:])
	return end, true
}

// Write stores data at addr (gwrite): a write chain of length one (see
// writeChain), traced and timed as its own op.
func (c *Client) Write(addr region.GAddr, data []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrClosed
	}
	sp := c.tracer.StartAt("write", int64(c.now))
	sp.SetTarget(uint64(addr), len(data))
	addrs, bufs := [1]region.GAddr{addr}, [1][]byte{data}
	return c.writeChain(sp, addrs[:], bufs[:])
}

// observe stages one data-path access to conn's home and, every
// DigestEvery of them, ships the hotness digest there. The exchange is
// off the client's critical path in *simulated* time — it does not
// advance the client clock, modeling the paper's amortized digest
// reporting — but its network and server-CPU costs are still charged at
// the current instant, so heavy digest traffic shows up as fabric
// contention. Nothing is staged while the cache is off. Called with c.mu
// held.
func (c *Client) observe(conn *serverConn, addr region.GAddr, write bool) {
	if !c.opts.Cache {
		return
	}
	conn.hot.Observe(addr, write, func(entries []hotness.Entry) {
		c.digestExchange(conn, c.now, entries)
	})
}

// digestExchange sends one digest and refreshes the remap view if the
// server's epoch moved. It must not touch c.now: in simulated time it is
// off the client's critical path. Called with c.mu held: the digest is
// encoded into c.tx and its reply lands in c.rx.
//
//gengar:hotpath
func (c *Client) digestExchange(conn *serverConn, at simnet.Time, entries []hotness.Entry) {
	w := c.request()
	w.U32(uint32(len(entries)))
	for _, e := range entries {
		w.U64(uint64(e.Addr)).U32(uint32(e.Reads)).U32(uint32(e.Writes))
	}
	resp, end, err := conn.ctl.Call(at, server.KindDigest, w.Bytes(), &c.rx)
	if err != nil {
		return // digest loss is harmless; the next epoch retries
	}
	epoch := resp.U64()
	if resp.Err() != nil || epoch == conn.view.Epoch() {
		return
	}
	c.refreshView(conn, end)
}

// refreshView fetches the full remap table into c.rx and decodes it
// straight into the view; it runs off the critical path and does not
// touch c.now. Called with c.mu held.
//
//gengar:hotpath
func (c *Client) refreshView(conn *serverConn, at simnet.Time) {
	resp, _, err := conn.ctl.Call(at, server.KindRemapFetch, nil, &c.rx)
	if err != nil {
		return
	}
	// A table that does not decode leaves the view as it was; the next
	// epoch change fetches it again.
	_ = conn.view.DecodeSnapshot(&resp)
}

// syncView flushes whatever conn has staged as one digest and refreshes
// the remap view. With nothing staged it still sends the (empty) digest:
// its reply is how the client learns the home's epoch. Nothing is sent
// while the cache is off. Called with c.mu held, like every digest.
func (c *Client) syncView(conn *serverConn, at simnet.Time) {
	if !c.opts.Cache {
		return
	}
	send := func(entries []hotness.Entry) { c.digestExchange(conn, at, entries) }
	if !conn.hot.Flush(send) {
		send(nil)
	}
}

// Flush blocks until every proxied write this client has staged is
// applied to NVM (and to any promoted copy), advancing the client's
// clock to the last apply. It is the publication point for data that
// other clients will read without locks — e.g. a loader handing a table
// to workers.
func (c *Client) Flush() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrClosed
	}
	for _, conn := range c.conns {
		if conn.writer == nil {
			continue
		}
		if t := conn.writer.Drain(); t > c.now {
			c.now = t
		}
	}
	return nil
}

// SyncAllViews synchronously reports digests to every home server and
// refreshes every remap view — the quiescent "steady state" point the
// benchmark harness establishes after warm-up.
func (c *Client) SyncAllViews() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrClosed
	}
	for _, conn := range c.conns {
		c.syncView(conn, c.now)
	}
	return nil
}

// SyncView forces an immediate, synchronous digest + remap refresh
// against the home server of addr — useful for tests and for
// applications that just changed their access pattern.
func (c *Client) SyncView(addr region.GAddr) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrClosed
	}
	conn, err := c.conn(addr)
	if err != nil {
		return err
	}
	c.syncView(conn, c.now)
	return nil
}
