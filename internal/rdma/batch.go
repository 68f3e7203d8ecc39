package rdma

import (
	"fmt"
	"time"

	"gengar/internal/simnet"
)

// perWQE is the marginal software cost of each additional work request
// in a batched posting: building the WQE without ringing the doorbell
// again. Doorbell batching exists precisely because this is an order of
// magnitude below PerOp.
const perWQE = 100 * time.Nanosecond

// shortChain is the longest batch whose validated regions fit on the
// stack: a chain of one — every scalar gwrite — must not allocate.
const shortChain = 8

// ReadReq is one read in a batch: fill Dst from the remote address.
type ReadReq struct {
	Dst   []byte
	Raddr RemoteAddr
}

// WriteReq is one write in a batch: store Src at the remote address.
type WriteReq struct {
	Src   []byte
	Raddr RemoteAddr
}

// ReadBatch posts a batch of one-sided READs with a single doorbell and
// returns when the last response has arrived (the batch is signaled on
// its final work request, the standard pattern). Compared with issuing
// the reads one at a time, the batch pays one PerOp plus a small per-WQE
// cost and overlaps all round trips, so k small reads cost roughly one
// RTT instead of k.
//
// All requests must target the connected peer. On error, some requests
// may have completed; the batch is not atomic (it is not on hardware
// either).
func (qp *QP) ReadBatch(at simnet.Time, reqs []ReadReq) (simnet.Time, error) {
	if len(reqs) == 0 {
		return at, nil
	}
	qp.node.fabric.verbReads.Add(int64(len(reqs))) // one READ per WQE, as k scalar reads would count
	peer, err := qp.remote()
	if err != nil {
		return at, err
	}
	target := peer.node
	m := qp.node.fabric.model

	// Validate everything before touching timing or data: a malformed
	// batch is a caller bug and should not half-execute gratuitously.
	var short [shortChain]*MR
	mrs := short[:0]
	if len(reqs) > shortChain {
		mrs = make([]*MR, 0, len(reqs))
	}
	for _, r := range reqs {
		if r.Raddr.Region.Node != target.id {
			return at, fmt.Errorf("rdma: batch read from %s via qp connected to %s",
				r.Raddr.Region.Node, target.id)
		}
		mr, err := target.lookupMR(r.Raddr.Region.RKey, AccessRemoteRead, r.Raddr.Offset, len(r.Dst))
		if err != nil {
			return at, err
		}
		mrs = append(mrs, mr)
	}

	// One doorbell for the whole chain.
	_, swEnd := qp.initRes.Acquire(at, m.PerOp+time.Duration(len(reqs)-1)*perWQE)

	var last simnet.Time
	for i, r := range reqs {
		// Each request is its own small wire message; they pipeline
		// behind the single posting.
		reqLanded := deliver(qp.node, target, swEnd, headerBytes)
		devEnd, err := mrs[i].dev.Read(reqLanded, mrs[i].base+r.Raddr.Offset, r.Dst)
		if err != nil {
			return at, fmt.Errorf("rdma: batch read %s: %w", r.Raddr, err)
		}
		respEnd := transferResp(target, qp.node, devEnd, headerBytes+len(r.Dst))
		if respEnd > last {
			last = respEnd
		}
	}
	qp.node.fabric.clock.Observe(last)
	return last, nil
}

// WriteBatch posts a batch of one-sided WRITEs with a single doorbell
// and returns when the last ACK has arrived (the batch is signaled on
// its final work request). Compared with issuing the writes one at a
// time, the batch pays one PerOp plus a small per-WQE cost, streams the
// payloads back to back out of the initiator NIC, and overlaps all
// round trips — the WQE-merging optimization the RDMAbox line of work
// shows dominates small-write throughput.
//
// All requests must target the connected peer. On error, some requests
// may have completed; the batch is not atomic (it is not on hardware
// either).
func (qp *QP) WriteBatch(at simnet.Time, reqs []WriteReq) (simnet.Time, error) {
	if len(reqs) == 0 {
		return at, nil
	}
	qp.node.fabric.verbWrites.Add(int64(len(reqs))) // one WRITE per WQE, as k scalar writes would count
	peer, err := qp.remote()
	if err != nil {
		return at, err
	}
	target := peer.node
	m := qp.node.fabric.model

	// Validate everything before touching timing or data: a malformed
	// batch is a caller bug and should not half-execute gratuitously.
	var short [shortChain]*MR
	mrs := short[:0]
	if len(reqs) > shortChain {
		mrs = make([]*MR, 0, len(reqs))
	}
	for _, r := range reqs {
		if r.Raddr.Region.Node != target.id {
			return at, fmt.Errorf("rdma: batch write to %s via qp connected to %s",
				r.Raddr.Region.Node, target.id)
		}
		mr, err := target.lookupMR(r.Raddr.Region.RKey, AccessRemoteWrite, r.Raddr.Offset, len(r.Src))
		if err != nil {
			return at, err
		}
		mrs = append(mrs, mr)
	}

	// One doorbell for the whole chain; the payloads then serialize out
	// of the initiator NIC back to back, so request i cannot land before
	// the preceding payloads have left the wire.
	var serTotal time.Duration
	for _, r := range reqs {
		serTotal += m.SerializeTime(headerBytes + len(r.Src))
	}
	start, _ := qp.initRes.Acquire(at, m.PerOp+time.Duration(len(reqs)-1)*perWQE+serTotal)
	tx := start.Add(m.PerOp + time.Duration(len(reqs)-1)*perWQE)

	var last simnet.Time
	for i, r := range reqs {
		size := headerBytes + len(r.Src)
		tx = tx.Add(m.SerializeTime(size))
		landed := deliver(qp.node, target, tx, size)
		devEnd, err := mrs[i].dev.Write(landed, mrs[i].base+r.Raddr.Offset, r.Src)
		if err != nil {
			return at, fmt.Errorf("rdma: batch write %s: %w", r.Raddr, err)
		}
		ackEnd := transferResp(target, qp.node, devEnd, headerBytes)
		if ackEnd > last {
			last = ackEnd
		}
	}
	qp.node.fabric.clock.Observe(last)
	return last, nil
}
