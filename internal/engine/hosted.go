package engine

import (
	"encoding/binary"
	"fmt"
	"sync"

	"gengar/internal/cache"
	"gengar/internal/simnet"
)

// Hosted copies: the holder side of the distributed DRAM cache. A home
// daemon under arena pressure spills a hot object's copy into a peer's
// arena; the peer records it here — offset, the home-minted generation,
// and the data size — and serves generation-checked installs, writes,
// reads, and releases against it over the peer wire ops. The table is
// the holder's authority on which slots belong to remote homes, so a
// stale or replayed peer op (wrong generation, unknown slot) fails
// cleanly instead of touching a recycled buffer.

// hostedCopy is one remote home's copy living in this engine's arena.
type hostedCopy struct {
	gen  uint64 // home-minted cluster-unique generation
	size int64  // data bytes (header excluded)
}

// hostedTable tracks the hosted copies by arena offset.
type hostedTable struct {
	mu    sync.Mutex // guards m and bytes
	m     map[int64]hostedCopy
	bytes int64 // arena footprint (cache.CopyFootprint of each copy)
}

// HostCopy reserves arena space for a peer's copy of size data bytes
// under the given home-minted generation and returns the slot offset.
// The generation must be nonzero — zero is the released-slot sentinel.
func (e *Engine) HostCopy(gen uint64, size int64) (int64, error) {
	if gen == 0 {
		return 0, fmt.Errorf("engine %s: host copy with zero generation", e.name)
	}
	if size <= 0 {
		return 0, fmt.Errorf("engine %s: host copy of %d bytes", e.name, size)
	}
	off, err := e.bufp.Place(cache.CopyFootprint(size))
	if err != nil {
		return 0, err
	}
	e.hosted.mu.Lock()
	if e.hosted.m == nil {
		e.hosted.m = make(map[int64]hostedCopy)
	}
	e.hosted.m[off] = hostedCopy{gen: gen, size: size}
	e.hosted.bytes += cache.CopyFootprint(size)
	e.hosted.mu.Unlock()
	return off, nil
}

// hostedLoc validates a peer op against the table — the slot must be
// hosted and carry the op's generation — and returns the local location
// to run the copy I/O against. Bounds are the caller's to check against
// the returned size.
func (e *Engine) hostedLoc(off int64, gen uint64) (cache.Location, error) {
	e.hosted.mu.Lock()
	hc, ok := e.hosted.m[off]
	e.hosted.mu.Unlock()
	if !ok || hc.gen != gen {
		return cache.Location{}, fmt.Errorf("%w: hosted slot %d", ErrStaleCopy, off)
	}
	return cache.Location{Node: e.name, Off: off, Size: hc.size, Gen: gen}, nil
}

// HostedInstall lands the full data image of a hosted copy: the holder
// writes the generation header itself (from the validated table entry)
// plus the home's data bytes, under the slot's seqlock.
func (e *Engine) HostedInstall(at simnet.Time, off int64, gen uint64, data []byte) error {
	loc, err := e.hostedLoc(off, gen)
	if err != nil {
		return err
	}
	if int64(len(data)) != loc.Size {
		return fmt.Errorf("engine %s: hosted install of %d bytes into %d-byte slot", e.name, len(data), loc.Size)
	}
	payload := make([]byte, cache.CopyHeaderBytes+len(data))
	binary.BigEndian.PutUint64(payload, gen)
	copy(payload[cache.CopyHeaderBytes:], data)
	_, err = e.localIO.InstallCopy(at, loc, payload)
	return err
}

// HostedWrite applies a home's write-through to a hosted copy's data
// area under the slot's seqlock.
func (e *Engine) HostedWrite(at simnet.Time, off int64, gen uint64, delta int64, data []byte) error {
	loc, err := e.hostedLoc(off, gen)
	if err != nil {
		return err
	}
	if delta < 0 || delta+int64(len(data)) > loc.Size {
		return fmt.Errorf("engine %s: hosted write [%d,%d) out of %d-byte copy", e.name, delta, delta+int64(len(data)), loc.Size)
	}
	_, err = e.localIO.WriteCopy(at, loc, delta, data)
	return err
}

// HostedRead serves a home's proxied cache hit from a hosted copy,
// generation-checked at this holder — the authoritative check the
// paper's protocol puts where the bytes live.
func (e *Engine) HostedRead(at simnet.Time, off int64, gen uint64, delta int64, buf []byte) error {
	loc, err := e.hostedLoc(off, gen)
	if err != nil {
		return err
	}
	_, err = e.localIO.ReadCopy(at, loc, delta, buf)
	if err == nil {
		e.hostedReads.Inc()
	}
	return err
}

// HostedRelease returns a hosted copy's arena space. Releasing zeroes
// the slot's generation header, so any location still naming the old
// generation misses cleanly even after the slot is reused.
func (e *Engine) HostedRelease(off int64, gen uint64) error {
	e.hosted.mu.Lock()
	hc, ok := e.hosted.m[off]
	if ok && hc.gen == gen {
		delete(e.hosted.m, off)
		e.hosted.bytes -= cache.CopyFootprint(hc.size)
	}
	e.hosted.mu.Unlock()
	if !ok || hc.gen != gen {
		return fmt.Errorf("%w: hosted release of slot %d", ErrStaleCopy, off)
	}
	e.localIO.Release(cache.Location{Node: e.name, Off: off, Size: hc.size, Gen: gen})
	return nil
}

// HostedStats reports the hosted-copy count and arena footprint — the
// peer-occupancy half of the distributed-cache telemetry split.
func (e *Engine) HostedStats() (copies int, bytes int64) {
	e.hosted.mu.Lock()
	defer e.hosted.mu.Unlock()
	return len(e.hosted.m), e.hosted.bytes
}
