package core

import (
	"fmt"
	"time"

	"gengar/internal/proxy"
	"gengar/internal/rdma"
	"gengar/internal/region"
	"gengar/internal/rpc"
	"gengar/internal/server"
	"gengar/internal/simnet"
	"gengar/internal/telemetry/span"
)

// WriteMulti performs a vectored gwrite: bufs[i] is stored at addrs[i].
// Requests targeting the same home server are posted as one
// doorbell-batched chain and chains to different servers overlap, so a
// k-record burst costs roughly one round trip instead of k — the write
// side of the batching ReadMulti gives scans (experiment E16).
//
// With the proxy enabled the burst is staged into consecutive ring
// slots with a single doorbell per chain, keeping per-slot credits,
// backpressure and read-your-writes intact. With the proxy disabled the
// chain goes straight to NVM and the per-op overheads coalesce: one
// persist fence per chain (a read-after-write fences every WRITE ahead
// of it on the queue pair) and one batched write-through RPC per server
// instead of one of each per record.
//
// Entries later in the slice overwrite earlier ones where they overlap,
// matching sequential Write order.
//
//gengar:hotpath
func (c *Client) WriteMulti(addrs []region.GAddr, bufs [][]byte) error {
	if len(addrs) != len(bufs) {
		return fmt.Errorf("core: WriteMulti with %d addrs and %d buffers", len(addrs), len(bufs))
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
		if conn.writer != nil {
			// Writes larger than a ring slot are chunked through the
			// ring, exactly as Write does, so the server-side flusher
			// remains the single coherence authority.
			data := bufs[i]
			for off := 0; off < len(data); off += c.maxStg {
				hi := off + c.maxStg
				if hi > len(data) {
					hi = len(data)
				}
				chunkAddr := addr.Add(int64(off))
				s.stage[conn] = append(s.stage[conn], proxy.StageReq{
					Addr:   chunkAddr,
					NvmOff: chunkAddr.Offset(),
					Data:   data[off:hi],
				})
			}
			continue
		}
		node := conn.nvm.Node
		s.nodeConn[node] = conn
		s.writeGroups[node] = append(s.writeGroups[node], rdma.WriteReq{
			Src:   bufs[i],
			Raddr: rdma.RemoteAddr{Region: conn.nvm, Offset: addr.Offset()},
		})
		if c.opts.Cache {
			s.wt[node] = append(s.wt[node], wtEntry{addr: addr, size: len(bufs[i])})
		}
	}

	start := c.now
	end := start
	sp := c.tracer.StartAt("write_multi", int64(start))

	// Proxied chains: one doorbell-batched stage per home server.
	staged := false
	for conn, reqs := range s.stage {
		if len(reqs) == 0 {
			continue
		}
		e, err := conn.writer.StageMulti(start, reqs)
		if err != nil {
			sp.FinishAt(int64(start))
			return fmt.Errorf("core: stage batch to server %d: %w", conn.srv.ID(), err)
		}
		staged = true
		c.writeBatchLen.Record(time.Duration(len(reqs)))
		if e > end {
			end = e
		}
	}
	if staged {
		sp.MarkAt(span.StageRingStage, int64(end))
	}

	// Direct chains: one WRITE chain + one fence + one write-through RPC
	// per home server.
	direct := false
	for node, reqs := range s.writeGroups {
		if len(reqs) == 0 {
			continue
		}
		direct = true
		conn := s.nodeConn[node]
		e, err := conn.qp.WriteBatch(start, reqs)
		if err != nil {
			sp.FinishAt(int64(end))
			return fmt.Errorf("core: write batch to %s: %w", node, err)
		}
		if c.poolNVM {
			// One persist fence for the whole chain: WQEs on a queue pair
			// execute in order, so a single read-after-write forces every
			// WRITE ahead of it out of the NIC into the ADR domain — k-1
			// durability round trips coalesced away.
			e, err = conn.qp.Read(e, nil, reqs[len(reqs)-1].Raddr)
			if err != nil {
				sp.FinishAt(int64(end))
				return fmt.Errorf("core: persist fence %s: %w", node, err)
			}
			c.coalescedFences.Add(int64(len(reqs) - 1))
		}
		if ents := s.wt[node]; len(ents) > 0 {
			// Keep promoted copies coherent with one control-plane call
			// for the whole chain instead of one per record.
			var w rpc.Writer
			w.U32(uint32(len(ents)))
			for _, ent := range ents {
				w.U64(uint64(ent.addr)).U32(uint32(ent.size))
			}
			_, rpcEnd, err := conn.ctl.Call(e, server.KindWriteThroughBatch, w.Bytes())
			if err != nil {
				sp.FinishAt(int64(end))
				return fmt.Errorf("core: write-through batch to %s: %w", node, err)
			}
			e = simnet.MaxTime(e, rpcEnd)
			c.coalescedRPCs.Add(int64(len(ents) - 1))
		}
		c.writeBatchLen.Record(time.Duration(len(reqs)))
		if e > end {
			end = e
		}
	}
	if direct {
		sp.MarkAt(span.StageFlushPersist, int64(end))
	}
	sp.FinishAt(int64(end))

	c.now = end
	for i, addr := range addrs {
		c.writes.Inc()
		s.conns[i].rec.RecordWrite(addr)
		c.afterAccess(s.conns[i])
	}
	c.writeLat.Record(simnet.Duration(end - start))
	return nil
}
