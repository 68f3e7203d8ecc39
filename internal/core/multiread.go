package core

import (
	"encoding/binary"
	"fmt"

	"gengar/internal/cache"
	"gengar/internal/proxy"
	"gengar/internal/rdma"
	"gengar/internal/region"
	"gengar/internal/simnet"
	"gengar/internal/telemetry/span"
)

// ReadMulti performs a vectored gread: bufs[i] is filled from addrs[i].
// Requests targeting the same node are posted as one doorbell-batched
// chain and chains to different nodes overlap, so a k-record scan costs
// roughly one round trip instead of k — the optimization behind the
// scan-heavy workload numbers (YCSB-E, experiment E15).
//
// Cache redirection applies per entry, with the same generation-stamp
// validation as Read: entries whose copy turned out stale are re-fetched
// from their home NVM in one batched follow-up chain per node. All
// per-entry temporaries come from a pooled scratch, so the steady state
// allocates nothing per entry.
//
//gengar:hotpath
func (c *Client) ReadMulti(addrs []region.GAddr, bufs [][]byte) error {
	if len(addrs) != len(bufs) {
		return fmt.Errorf("core: ReadMulti with %d addrs and %d buffers", len(addrs), len(bufs))
	}
	if len(addrs) == 0 {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrClosed
	}
	s := getScratch()
	defer putScratch(s)

	for i, addr := range addrs {
		conn, err := c.conn(addr)
		if err != nil {
			return err
		}
		s.conns = append(s.conns, conn)
		if c.opts.Cache {
			if loc, base, ok := conn.view.Lookup(addr, int64(len(bufs[i]))); ok {
				delta := addr.Offset() - base.Offset()
				tmp := s.tmp(int(cache.CopyHeaderBytes + delta + int64(len(bufs[i]))))
				s.cached[loc.Node] = append(s.cached[loc.Node], cachedEntry{
					idx:   i,
					loc:   loc,
					delta: delta,
					tmp:   tmp,
				})
				s.readGroups[loc.Node] = append(s.readGroups[loc.Node], rdma.ReadReq{
					Dst: tmp,
					Raddr: rdma.RemoteAddr{
						Region: rdma.RegionHandle{Node: loc.Node, RKey: loc.RKey},
						Offset: loc.Off,
					},
				})
				continue
			}
		}
		node := conn.nvm.Node
		s.readGroups[node] = append(s.readGroups[node], rdma.ReadReq{
			Dst:   bufs[i],
			Raddr: rdma.RemoteAddr{Region: conn.nvm, Offset: addr.Offset()},
		})
	}

	eachWriter(s.conns, (*proxy.Writer).Pin) // read, overlay, unpin: see Pin
	defer eachWriter(s.conns, (*proxy.Writer).Unpin)

	start := c.now
	end := start
	sp := c.tracer.StartAt("read_multi", int64(start))
	for node, reqs := range s.readGroups {
		if len(reqs) == 0 {
			continue
		}
		qp, err := c.qpToNode(node)
		if err != nil {
			sp.FinishAt(int64(start))
			return err
		}
		e, err := qp.ReadBatch(start, reqs)
		if err != nil {
			sp.FinishAt(int64(start))
			return fmt.Errorf("core: read batch to %s: %w", node, err)
		}
		if e > end {
			end = e
		}
	}
	firstEnd := end

	// Validate cached entries; stale generations fall back to home NVM.
	hits := 0
	for _, ents := range s.cached {
		for _, ent := range ents {
			if binary.BigEndian.Uint64(ent.tmp) == ent.loc.Gen {
				copy(bufs[ent.idx], ent.tmp[cache.CopyHeaderBytes+ent.delta:])
				hits++
				continue
			}
			c.staleGen.Inc()
			s.nvmRetry = append(s.nvmRetry, ent.idx)
		}
	}
	c.hits.Add(int64(hits))
	c.misses.Add(int64(len(addrs) - hits))
	// One stage mark covers the overlapped first round: cacheHit if any
	// entry was served from a DRAM copy, nvmCopy for an all-NVM chain.
	if hits > 0 {
		sp.MarkAt(span.StageCacheHit, int64(firstEnd))
	} else {
		sp.MarkAt(span.StageNVMCopy, int64(firstEnd))
	}
	if len(s.nvmRetry) > 0 {
		// The follow-ups go out as one batched chain per home node, not
		// as sequential per-entry reads: a burst of stale copies (a remap
		// epoch just moved) costs one extra round trip, not one per entry.
		for _, i := range s.nvmRetry {
			conn := s.conns[i]
			s.retryGroups[conn.nvm.Node] = append(s.retryGroups[conn.nvm.Node], rdma.ReadReq{
				Dst:   bufs[i],
				Raddr: rdma.RemoteAddr{Region: conn.nvm, Offset: addrs[i].Offset()},
			})
		}
		retryStart := end
		for node, reqs := range s.retryGroups {
			if len(reqs) == 0 {
				continue
			}
			qp, err := c.qpToNode(node)
			if err != nil {
				sp.FinishAt(int64(end))
				return err
			}
			e, err := qp.ReadBatch(retryStart, reqs)
			if err != nil {
				sp.FinishAt(int64(end))
				return fmt.Errorf("core: stale-retry batch to %s: %w", node, err)
			}
			if e > end {
				end = e
			}
		}
		sp.MarkAt(span.StageNVMCopy, int64(end))
	}
	sp.FinishAt(int64(end))
	c.now = end
	for i, addr := range addrs {
		if s.conns[i].writer != nil {
			s.conns[i].writer.ApplyPending(addr, bufs[i])
		}
		c.reads.Inc()
		c.observe(s.conns[i], addr, false)
	}
	c.readLat.Record(simnet.Duration(end - start))
	return nil
}

// eachWriter calls f on the staging writer behind every entry of a
// vectored read.
func eachWriter(conns []*serverConn, f func(*proxy.Writer)) {
	for _, conn := range conns {
		if conn.writer != nil {
			f(conn.writer)
		}
	}
}
