package core

import (
	"fmt"
	"time"

	"gengar/internal/proxy"
	"gengar/internal/rdma"
	"gengar/internal/region"
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
// Entries later in the slice overwrite earlier ones where they overlap,
// matching sequential Write order.
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
	err := c.writeChain(c.tracer.StartAt("write_multi", int64(c.now)), addrs, bufs)
	if err == nil {
		for _, conn := range c.homes {
			c.writeBatchLen.Record(time.Duration(len(conn.chain)))
		}
	}
	return err
}

// writeChain is the one gwrite body, for any record count and size:
// group the records by home server, post every home's chain at the same
// instant (they overlap; the op completes with the last), then do the
// per-record accounting. It owns sp. Called with c.mu held, which is
// also what guards the grouping scratch (c.homes, conn.chain, c.wqes).
//
//gengar:hotpath
func (c *Client) writeChain(sp *span.Span, addrs []region.GAddr, bufs [][]byte) error {
	start := c.now
	end, err := c.postChains(start, addrs, bufs)
	if err != nil {
		sp.FinishAt(int64(start))
		return err
	}
	if c.opts.Proxy {
		sp.MarkAt(span.StageRingStage, int64(end))
	} else {
		sp.MarkAt(span.StageFlushPersist, int64(end))
	}
	sp.FinishAt(int64(end))
	c.now = end
	c.writeLat.Record(end.Sub(start))
	for _, conn := range c.homes {
		for _, r := range conn.chain {
			c.writes.Inc()
			c.observe(conn, r.Addr, true)
		}
	}
	return nil
}

// postChains groups the records by home server — request order kept
// within a home — and posts each home's chain at instant at. With the
// proxy enabled a chain is staged into the home's DRAM ring and flushed
// to NVM in the background; proxy.Writer cuts records to slot size, so
// a write of any size rides the ring and the flusher stays the single
// coherence authority. Without a ring the chain goes direct.
//
//gengar:hotpath
func (c *Client) postChains(at simnet.Time, addrs []region.GAddr, bufs [][]byte) (simnet.Time, error) {
	for _, conn := range c.homes {
		conn.chain = conn.chain[:0]
	}
	c.homes = c.homes[:0]
	for i, addr := range addrs {
		conn, err := c.conn(addr)
		if err != nil {
			return at, err
		}
		if len(conn.chain) == 0 {
			c.homes = append(c.homes, conn)
		}
		conn.chain = append(conn.chain, proxy.StageReq{Addr: addr, NvmOff: addr.Offset(), Data: bufs[i]})
	}
	end := at
	for _, conn := range c.homes {
		var e simnet.Time
		var err error
		if conn.writer != nil {
			e, err = conn.writer.StageMulti(at, conn.chain)
		} else {
			e, err = c.postDirect(conn, at)
		}
		if err != nil {
			return at, fmt.Errorf("core: write chain to server %d: %w", conn.srv.ID(), err)
		}
		end = simnet.MaxTime(end, e)
	}
	return end, nil
}

// postDirect lands conn.chain without the proxy, and the per-op
// overheads coalesce: one WRITE chain straight to home NVM, one persist
// fence and — when caching is on, so a promoted copy cannot go stale —
// one write-through RPC, instead of one of each per record.
//
//gengar:hotpath
func (c *Client) postDirect(conn *serverConn, at simnet.Time) (simnet.Time, error) {
	c.wqes = c.wqes[:0]
	for _, r := range conn.chain {
		c.wqes = append(c.wqes, rdma.WriteReq{
			Src:   r.Data,
			Raddr: rdma.RemoteAddr{Region: conn.nvm, Offset: r.NvmOff},
		})
	}
	end, err := conn.qp.WriteBatch(at, c.wqes)
	if err != nil {
		return at, err
	}
	if c.poolNVM {
		// Durable remote NVM write: the standard RDMA persistence fence
		// is a read-after-write that forces the data out of the NIC into
		// the ADR domain — the extra round trip Gengar's proxy removes.
		// WQEs on a queue pair execute in order, so one fence covers
		// every WRITE of the chain ahead of it.
		end, err = conn.qp.Read(end, nil, c.wqes[len(c.wqes)-1].Raddr)
		if err != nil {
			return at, fmt.Errorf("persist fence: %w", err)
		}
		c.coalescedFences.Add(int64(len(c.wqes) - 1))
	}
	if c.opts.Cache {
		// The home server re-reads the just-written NVM ranges and
		// refreshes any promoted copy; its reply is the coherence point.
		w := c.request()
		w.U32(uint32(len(conn.chain)))
		for _, r := range conn.chain {
			w.U64(uint64(r.Addr)).U32(uint32(len(r.Data)))
		}
		_, rpcEnd, err := conn.ctl.Call(end, server.KindWriteThroughBatch, w.Bytes(), &c.rx)
		if err != nil {
			return at, fmt.Errorf("write-through: %w", err)
		}
		end = simnet.MaxTime(end, rpcEnd)
		c.coalescedRPCs.Add(int64(len(conn.chain) - 1))
	}
	return end, nil
}
