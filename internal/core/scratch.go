package core

import (
	"sync"

	"gengar/internal/cache"
	"gengar/internal/rdma"
)

// cachedEntry tracks one ReadMulti entry served from a DRAM copy: where
// the copy lives and the header+payload staging buffer its generation
// stamp is validated from.
type cachedEntry struct {
	idx   int
	loc   cache.Location
	delta int64
	tmp   []byte
}

// multiScratch holds every per-call temporary of ReadMulti (the write
// chain's grouping scratch lives on the Client and its sessions).
// Instances are pooled so the steady state allocates nothing per entry:
// maps keep their keys (the node set is small and stable) with value
// slices truncated in place, and the per-entry staging buffers are
// reused across calls.
type multiScratch struct {
	conns    []*serverConn
	nvmRetry []int

	readGroups  map[string][]rdma.ReadReq
	retryGroups map[string][]rdma.ReadReq
	cached      map[string][]cachedEntry

	tmps [][]byte
	ntmp int
}

var scratchPool = sync.Pool{New: func() any {
	return &multiScratch{
		readGroups:  make(map[string][]rdma.ReadReq),
		retryGroups: make(map[string][]rdma.ReadReq),
		cached:      make(map[string][]cachedEntry),
	}
}}

func getScratch() *multiScratch {
	s := scratchPool.Get().(*multiScratch)
	s.reset()
	return s
}

func putScratch(s *multiScratch) { scratchPool.Put(s) }

// reset truncates everything in place, keeping map keys and slice
// capacity so the next call reuses them without allocating.
func (s *multiScratch) reset() {
	s.conns = s.conns[:0]
	s.nvmRetry = s.nvmRetry[:0]
	s.ntmp = 0
	for k, v := range s.readGroups {
		s.readGroups[k] = v[:0]
	}
	for k, v := range s.retryGroups {
		s.retryGroups[k] = v[:0]
	}
	for k, v := range s.cached {
		s.cached[k] = v[:0]
	}
}

// tmp returns a reusable buffer of length n, valid until the scratch is
// returned to the pool.
func (s *multiScratch) tmp(n int) []byte {
	if s.ntmp < len(s.tmps) {
		b := s.tmps[s.ntmp]
		if cap(b) < n {
			b = make([]byte, n)
			s.tmps[s.ntmp] = b
		}
		s.ntmp++
		return b[:n]
	}
	b := make([]byte, n)
	s.tmps = append(s.tmps, b)
	s.ntmp++
	return b
}
