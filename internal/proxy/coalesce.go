package proxy

import (
	"gengar/internal/simnet"
)

// maxFlushBatch bounds how many drained records one flush sweep may
// coalesce.
const maxFlushBatch = 64

// flushBatch is one flush worker's drained-batch scratch. Every slice
// grows to its high-water mark on first use and is reused across
// batches, so the steady-state flush path allocates nothing. The batch
// is owned by a single worker goroutine; no locking.
type flushBatch struct {
	recs  []record      // drained records, in queue (batch) order
	data  []byte        // payloads copied out of the rings, concatenated
	off   []int         // recs[i]'s payload start in data; -1 if ring read failed
	tRead []simnet.Time // recs[i]'s copy-out completion instant
	ackAt []simnet.Time // recs[i]'s ack instant (copy-out until persisted)
	ok    []bool        // recs[i] persisted and written through
	idx   []int         // record indices sorted by (nvmOff, batch order)
	memb  []int         // current run's member indices, batch order
	run   []byte        // assembled bytes of the current run
}

// reset clears the batch for reuse, keeping capacity.
func (b *flushBatch) reset() {
	b.recs = b.recs[:0]
	b.data = b.data[:0]
	b.off = b.off[:0]
	b.tRead = b.tRead[:0]
	b.ackAt = b.ackAt[:0]
	b.ok = b.ok[:0]
	b.idx = b.idx[:0]
	b.memb = b.memb[:0]
}

// add appends one drained record.
func (b *flushBatch) add(rec record) { b.recs = append(b.recs, rec) }

// payload extends the payload scratch by n bytes and returns the new
// tail for the caller to fill.
//
//gengar:hotpath
func (b *flushBatch) payload(n int) []byte {
	need := len(b.data) + n
	if cap(b.data) < need {
		//gengar:lint-ignore hotpath-alloc scratch growth to the batch high-water mark, amortized across batches
		grown := make([]byte, len(b.data), need*2)
		copy(grown, b.data)
		b.data = grown
	}
	b.data = b.data[:need]
	return b.data[need-n : need]
}

// sortByNVMOff fills b.idx with record indices ordered by target NVM
// offset, stable in batch order for equal offsets. Insertion sort: the
// batch is at most maxFlushBatch records and often nearly sorted
// (sequential writers), and the sort must not allocate.
//
//gengar:hotpath
func (b *flushBatch) sortByNVMOff() {
	for i := range b.recs {
		b.idx = append(b.idx, i)
	}
	for i := 1; i < len(b.idx); i++ {
		for j := i; j > 0 && b.recs[b.idx[j]].nvmOff < b.recs[b.idx[j-1]].nvmOff; j-- {
			b.idx[j], b.idx[j-1] = b.idx[j-1], b.idx[j]
		}
	}
}

// runSpan identifies the maximal run of sorted records starting at
// sorted position lo whose target ranges overlap or touch, and returns
// one past its last sorted position plus the run's byte extent.
// Records whose ring read failed (off < 0) never join a run; they are
// skipped by the caller.
//
//gengar:hotpath
func (b *flushBatch) runSpan(lo int) (hi int, runOff, runEnd int64) {
	first := b.recs[b.idx[lo]]
	runOff = first.nvmOff
	runEnd = first.nvmOff + int64(first.size)
	hi = lo + 1
	for hi < len(b.idx) {
		rec := b.recs[b.idx[hi]]
		if b.off[b.idx[hi]] < 0 || rec.nvmOff > runEnd {
			break
		}
		if end := rec.nvmOff + int64(rec.size); end > runEnd {
			runEnd = end
		}
		hi++
	}
	return hi, runOff, runEnd
}

// assembleRun builds the run's bytes in b.run and its member list in
// b.memb. Members apply in batch order, so a later record's bytes win
// over an earlier record's wherever they overlap — byte-identical to
// flushing every record sequentially. The union [runOff, runEnd) is
// contiguous by construction (runSpan only extends through touching
// ranges), so every byte of b.run is covered by at least one member.
//
//gengar:hotpath
func (b *flushBatch) assembleRun(lo, hi int, runOff, runEnd int64) {
	b.memb = b.memb[:0]
	for k := lo; k < hi; k++ {
		b.memb = append(b.memb, b.idx[k])
	}
	// Restore batch order: idx is offset-sorted, overlap semantics are
	// staging-ordered.
	for i := 1; i < len(b.memb); i++ {
		for j := i; j > 0 && b.memb[j] < b.memb[j-1]; j-- {
			b.memb[j], b.memb[j-1] = b.memb[j-1], b.memb[j]
		}
	}
	n := int(runEnd - runOff)
	if cap(b.run) < n {
		//gengar:lint-ignore hotpath-alloc scratch growth to the run high-water mark, amortized across batches
		b.run = make([]byte, n)
	}
	b.run = b.run[:n]
	for _, ri := range b.memb {
		rec := b.recs[ri]
		src := b.data[b.off[ri] : b.off[ri]+rec.size]
		copy(b.run[rec.nvmOff-runOff:], src)
	}
}
