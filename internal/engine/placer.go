package engine

import (
	"errors"
	"log"
	"runtime"
	"sync/atomic"

	"gengar/internal/cache"
	"gengar/internal/simnet"
)

// ErrStaleCopy reports a copy-I/O operation against a location whose
// generation no longer matches the bytes in the arena: the slot was
// demoted and possibly reused since the location was minted. Callers
// treat it as a clean miss — the authoritative NVM copy is still home.
var ErrStaleCopy = errors.New("engine: stale copy generation")

// Generation stamps are cluster-unique on the TCP path: the minting
// engine's pool ID occupies the high bits, a local counter the rest.
// Two daemons can therefore never mint the same stamp, so a buffer
// slot on a peer reused for a different home's copy always fails the
// generation check. Stamp zero is reserved (released slots are zeroed).
const (
	genSaltShift = 48
	genCtrMask   = (uint64(1) << genSaltShift) - 1
)

// Placement is the promotion decision layer: where a hot object's DRAM
// copy should live, and how much aggregate copy capacity the planner
// may budget against.
type Placement interface {
	// PlaceCopy reserves arena space for a copy of size data bytes (the
	// generation header is added by the placer) and returns its stamped
	// location. Locations must carry a fresh nonzero generation stamp.
	PlaceCopy(size int64) (cache.Location, error)
	// CopyBudget reports the aggregate DRAM bytes the promotion planner
	// should budget copies against — the local arena plus any reachable
	// peer capacity. Zero means "use the engine's configured budget".
	CopyBudget() int64
}

// CopyIO is the copy data-plane layer: moving bytes into, out of, and
// away from a placed copy, wherever its location says it lives.
type CopyIO interface {
	// InstallCopy writes a complete copy — generation header plus object
	// data — into freshly placed buffer space.
	InstallCopy(at simnet.Time, loc cache.Location, payload []byte) (simnet.Time, error)
	// WriteCopy writes data into the copy's data area at the given delta
	// past the generation header.
	WriteCopy(at simnet.Time, loc cache.Location, delta int64, data []byte) (simnet.Time, error)
	// ReadCopy fills buf from the copy's data area at the given delta,
	// validating the location's generation at the holder. A stale or
	// unreachable copy returns an error (ErrStaleCopy when detectably
	// stale); the caller falls back to home NVM and demotes the entry.
	ReadCopy(at simnet.Time, loc cache.Location, delta int64, buf []byte) (simnet.Time, error)
	// Release frees the buffer space behind a demoted copy.
	Release(loc cache.Location)
}

// Placer is the deployment's promotion-placement strategy: the decision
// layer plus the copy data plane. The simulated mount places
// cluster-wide (any server's arena, written over mesh queue pairs); the
// TCP mount places locally, spilling into peer daemons' arenas when a
// peer set is configured.
type Placer interface {
	Placement
	CopyIO
}

// localCopyIO is the copy data plane over the engine's own DRAM arena:
// seqlocked installs and updates, generation-checked reads, and
// generation-zeroing release. It is shared by LocalPlacer (copies the
// engine placed for itself) and the hosted-copy table (copies peers
// placed here).
type localCopyIO struct {
	e *Engine
}

// acquireSeq flips the copy's seq word odd, spinning out any concurrent
// writer (write-throughs from different sessions can target the same
// copy). It returns the acquired (odd) value.
func (io localCopyIO) acquireSeq(loc cache.Location) (uint64, error) {
	off := loc.Off + cache.CopySeqOff
	for {
		s, err := io.e.cacheDev.LoadWordRaw(off)
		if err != nil {
			return 0, err
		}
		if s&1 == 0 {
			ok, err := io.e.cacheDev.CompareAndSwapWordRaw(off, s, s+1)
			if err != nil {
				return 0, err
			}
			if ok {
				return s + 1, nil
			}
		}
		runtime.Gosched()
	}
}

// releaseSeq completes a writer critical section: the word moves from
// odd to the next even value, so any overlapped lock-free read fails
// its re-check and retries.
func (io localCopyIO) releaseSeq(loc cache.Location, odd uint64) error {
	return io.e.cacheDev.StoreWordRaw(loc.Off+cache.CopySeqOff, odd+1)
}

// InstallCopy writes header + data into the local arena under the
// copy's seqlock. The slot may be a reused buffer a stale-located
// reader is still optimistically reading: the odd seq (or, after
// release, the changed generation word) forces that reader to retry
// and miss. The seq word itself is owned by the protocol — the
// payload's seq field is skipped, not copied.
func (io localCopyIO) InstallCopy(at simnet.Time, loc cache.Location, payload []byte) (simnet.Time, error) {
	odd, err := io.acquireSeq(loc)
	if err != nil {
		return at, err
	}
	// Gen word first, then data; both are atomic word stores under the
	// device write lock, so the mutex-guarded read path stays torn-free.
	if err := io.e.cacheDev.WriteWordsRaw(loc.Off+cache.CopyGenOff, payload[:8]); err != nil {
		return at, err
	}
	if err := io.e.cacheDev.WriteWordsRaw(loc.Off+cache.CopyHeaderBytes, payload[cache.CopyHeaderBytes:]); err != nil {
		return at, err
	}
	return at, io.releaseSeq(loc, odd)
}

// WriteCopy updates the copy's data area in the local arena under the
// copy's seqlock, so lock-free readers detect the overlap and retry.
func (io localCopyIO) WriteCopy(at simnet.Time, loc cache.Location, delta int64, data []byte) (simnet.Time, error) {
	odd, err := io.acquireSeq(loc)
	if err != nil {
		return at, err
	}
	if err := io.e.cacheDev.WriteWordsRaw(loc.Off+cache.CopyHeaderBytes+delta, data); err != nil {
		return at, err
	}
	return at, io.releaseSeq(loc, odd)
}

// ReadCopy serves buf from the copy's data area with the engine's
// lock-free seqlock read, validating the location's generation against
// the arena header. A generation mismatch — the slot was released or
// reused since loc was minted — comes back as ErrStaleCopy.
func (io localCopyIO) ReadCopy(at simnet.Time, loc cache.Location, delta int64, buf []byte) (simnet.Time, error) {
	if delta < 0 || delta+int64(len(buf)) > loc.Size {
		return at, errors.New("engine: copy read out of bounds")
	}
	end, ok := io.e.seqlockReadCopy(at, loc, delta, buf)
	if !ok {
		return at, ErrStaleCopy
	}
	return end, nil
}

// Release frees the copy's arena space, zeroing the generation header
// first (under the seqlock, so lock-free readers retry rather than
// observe the transition) — stamp zero is never minted, so any location
// still pointing at the slot fails its generation check from here on,
// whether or not the slot is reused.
func (io localCopyIO) Release(loc cache.Location) {
	var zero [8]byte
	if odd, err := io.acquireSeq(loc); err == nil {
		_ = io.e.cacheDev.WriteWordsRaw(loc.Off+cache.CopyGenOff, zero[:])
		_ = io.releaseSeq(loc, odd)
	}
	if err := io.e.bufp.Release(loc.Off); err != nil {
		// A release failure means the location was already released — a
		// bookkeeping bug upstream, never fatal to the pool, but silent
		// discard hid real double-release bugs: count every one and log
		// the first so the telemetry points at the stack that matters.
		io.e.releaseErrs.Inc()
		io.e.releaseErrOnce.Do(func() {
			log.Printf("engine %s: copy release failed (counted in gengar_cache_release_errors_total from now on): %v", io.e.name, err)
		})
	}
}

// LocalPlacer places promoted copies in the engine's own DRAM arena —
// the single-server strategy of the TCP mount. Generation stamps are
// salted with the engine's pool ID so they stay cluster-unique even
// when a peer placer later ships copies (and their stamps) off-box.
type LocalPlacer struct {
	localCopyIO
	gen atomic.Uint64
}

// NewLocalPlacer returns a placer over the engine's own buffer arena.
func NewLocalPlacer(e *Engine) *LocalPlacer {
	return &LocalPlacer{localCopyIO: localCopyIO{e: e}}
}

// Stamp mints a fresh cluster-unique generation: the engine's pool ID
// in the high bits, a monotone local counter below. Never zero.
func (p *LocalPlacer) Stamp() uint64 {
	return uint64(p.e.id)<<genSaltShift | (p.gen.Add(1) & genCtrMask)
}

// PlaceCopy reserves local arena space and stamps a fresh generation.
func (p *LocalPlacer) PlaceCopy(size int64) (cache.Location, error) {
	off, err := p.e.bufp.Place(cache.CopyFootprint(size))
	if err != nil {
		return cache.Location{}, err
	}
	return cache.Location{
		Node: p.e.name,
		Off:  off,
		Size: size,
		Gen:  p.Stamp(),
	}, nil
}

// CopyBudget reports zero: a purely local placer budgets exactly the
// engine's configured arena, which is the engine's default.
func (p *LocalPlacer) CopyBudget() int64 { return 0 }
