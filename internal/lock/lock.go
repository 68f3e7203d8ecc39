// Package lock provides Gengar's multi-user consistency mechanism:
// reader/writer locks implemented with one-sided RDMA atomics against a
// lock table hosted in the home server's DRAM, plus per-object version
// words bumped by writers so readers can detect concurrent updates.
//
// The lock word protocol is the classic one-sided scheme (as in DrTM and
// Sherman): the high 32 bits hold the exclusive owner's ID (zero when
// unowned) and the low 32 bits the shared-reader count.
//
//   - exclusive acquire: CAS(word, 0, owner<<32), retrying on failure;
//   - shared acquire: FETCH_ADD(word, +1), and if the returned word shows
//     a writer, FETCH_ADD(word, -1) to back out and retry;
//   - releases are the inverse CAS / FETCH_ADD.
//
// Objects hash onto a fixed-size table, so two objects may share a slot;
// that coarsens locking but never weakens it. Acquisition is bounded by
// a retry budget, so a stuck lock surfaces as ErrTimeout rather than a
// hang; nothing in the one-sided protocol reclaims the lock of a client
// that died holding it. The mount that has to survive that — the TCP
// daemon — locks through the server-mediated LeaseTable
// (leasetable.go), whose grants expire.
package lock

import (
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"

	"gengar/internal/hmem"
	"gengar/internal/metrics"
	"gengar/internal/rdma"
	"gengar/internal/region"
	"gengar/internal/simnet"
	"gengar/internal/telemetry"
)

// SlotBytes is the per-slot footprint in the lock table: an 8-byte lock
// word followed by an 8-byte version word.
const SlotBytes = 16

// DefaultRetries bounds lock acquisition attempts. It is sized so that
// exhaustion means a genuinely stuck lock (a crashed holder), not a long
// critical section under contention.
const DefaultRetries = 1 << 17

// Errors returned by lock operations.
var (
	// ErrTimeout is returned when the retry budget is exhausted.
	ErrTimeout = errors.New("lock: acquisition retry budget exhausted")
	// ErrNotOwner is returned when releasing an exclusive lock the caller
	// does not hold.
	ErrNotOwner = errors.New("lock: release by non-owner")
)

// Table is the server-side lock table: a window of the server's DRAM
// holding slot words. The server registers it for remote atomics and
// hands clients the region handle.
type Table struct {
	dev   *hmem.Device
	base  int64
	slots int
}

// NewTable lays out a zeroed lock table of the given slot count at base
// within dev. slots must be a power of two.
func NewTable(dev *hmem.Device, base int64, slots int) (*Table, error) {
	if dev == nil {
		return nil, errors.New("lock: nil device")
	}
	if slots <= 0 || slots&(slots-1) != 0 {
		return nil, fmt.Errorf("lock: slot count %d not a power of two", slots)
	}
	if base < 0 || base+int64(slots)*SlotBytes > dev.Size() {
		return nil, fmt.Errorf("lock: table [%d,%d) exceeds device size %d",
			base, base+int64(slots)*SlotBytes, dev.Size())
	}
	zero := make([]byte, int64(slots)*SlotBytes)
	if err := dev.WriteRaw(base, zero); err != nil {
		return nil, err
	}
	return &Table{dev: dev, base: base, slots: slots}, nil
}

// Base returns the table's offset within its device.
func (t *Table) Base() int64 { return t.base }

// Slots returns the table's slot count.
func (t *Table) Slots() int { return t.slots }

// Size returns the table's footprint in bytes.
func (t *Table) Size() int64 { return int64(t.slots) * SlotBytes }

// SlotIndex hashes a global address onto a lock-table slot of a
// power-of-two table — shared by the simulated one-sided protocol and
// the TCP deployment mode so both agree on lock granularity.
func SlotIndex(addr region.GAddr, slots int) int64 { return slotIndex(addr, slots) }

// slotIndex hashes a global address onto a table slot. Objects are
// identified by their base address; a 64-bit mix (splitmix64 finalizer)
// spreads sequential allocations across slots.
func slotIndex(addr region.GAddr, slots int) int64 {
	x := uint64(addr)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int64(x & uint64(slots-1))
}

// versionOffset returns the device offset of the version word covering
// addr.
func (t *Table) versionOffset(addr region.GAddr) int64 {
	return t.base + slotIndex(addr, t.slots)*SlotBytes + 8
}

// ReadVersionRaw fetches the version word covering addr without charging
// device time — the server-local view of what clients ReadVersion.
func (t *Table) ReadVersionRaw(addr region.GAddr) uint64 {
	var b [8]byte
	if err := t.dev.ReadRaw(t.versionOffset(addr), b[:]); err != nil {
		return 0
	}
	return binary.BigEndian.Uint64(b[:])
}

// BumpVersionRaw increments the version word covering addr without
// charging device time. Callers must serialize bumps to the same table
// (the lease table invokes it under its own mutex); concurrent one-sided
// FETCH_ADDs from simulated clients are not expected on tables used this
// way.
func (t *Table) BumpVersionRaw(addr region.GAddr) uint64 {
	off := t.versionOffset(addr)
	var b [8]byte
	if err := t.dev.ReadRaw(off, b[:]); err != nil {
		return 0
	}
	v := binary.BigEndian.Uint64(b[:]) + 1
	binary.BigEndian.PutUint64(b[:], v)
	if err := t.dev.WriteRaw(off, b[:]); err != nil {
		return 0
	}
	return v
}

// Geometry describes a remote lock table to clients: where it lives and
// how to index it.
type Geometry struct {
	Handle rdma.RegionHandle // MR covering the table
	Base   int64             // table start within the MR
	Slots  int
}

// lockWordAddr and versionWordAddr compute remote addresses for a slot.
func (g Geometry) lockWordAddr(addr region.GAddr) rdma.RemoteAddr {
	i := slotIndex(addr, g.Slots)
	return rdma.RemoteAddr{Region: g.Handle, Offset: g.Base + i*SlotBytes}
}

func (g Geometry) versionWordAddr(addr region.GAddr) rdma.RemoteAddr {
	i := slotIndex(addr, g.Slots)
	return rdma.RemoteAddr{Region: g.Handle, Offset: g.Base + i*SlotBytes + 8}
}

// Client performs lock operations against one home server's table using
// one-sided atomics. It is safe for concurrent use; each operation is
// independent.
type Client struct {
	qp      *rdma.QP
	geo     Geometry
	owner   uint32
	retries int
	backoff simnet.Duration

	// Contention telemetry: acquisitions counts successful exclusive and
	// shared acquires; acqRetries counts failed attempts (CAS losses and
	// shared back-outs) — retries per acquisition is the lock-contention
	// signal the evaluation tracks.
	acquisitions metrics.Counter
	acqRetries   metrics.Counter
}

// RegisterTelemetry exposes the client's contention counters in reg
// under the gengar_lock_* names with the given labels (typically the
// owning client and home server).
func (c *Client) RegisterTelemetry(reg *telemetry.Registry, labels ...telemetry.Label) {
	reg.RegisterCounter("gengar_lock_acquisitions_total", "locks acquired (exclusive and shared)", &c.acquisitions, labels...)
	reg.RegisterCounter("gengar_lock_retries_total", "failed acquisition attempts retried", &c.acqRetries, labels...)
}

// NewClient returns a lock client. owner must be a nonzero fabric-unique
// client ID; retries <= 0 selects DefaultRetries; backoff is the
// simulated delay added between attempts (doubling each retry up to
// 64x).
func NewClient(qp *rdma.QP, geo Geometry, owner uint32, retries int, backoff simnet.Duration) (*Client, error) {
	if owner == 0 {
		return nil, errors.New("lock: owner ID must be nonzero")
	}
	if geo.Slots <= 0 || geo.Slots&(geo.Slots-1) != 0 {
		return nil, fmt.Errorf("lock: bad geometry slots %d", geo.Slots)
	}
	if retries <= 0 {
		retries = DefaultRetries
	}
	return &Client{qp: qp, geo: geo, owner: owner, retries: retries, backoff: backoff}, nil
}

func (c *Client) backoffAt(at simnet.Time, attempt int) simnet.Time {
	if c.backoff <= 0 {
		return at
	}
	shift := attempt
	if shift > 6 {
		shift = 6
	}
	return at.Add(c.backoff << uint(shift))
}

// LockExclusive acquires the write lock covering addr. It returns the
// simulated completion instant.
func (c *Client) LockExclusive(at simnet.Time, addr region.GAddr) (simnet.Time, error) {
	word := c.geo.lockWordAddr(addr)
	want := uint64(c.owner) << 32
	now := at
	for i := 0; i < c.retries; i++ {
		prev, end, err := c.qp.CompareAndSwap(now, word, 0, want)
		if err != nil {
			return end, fmt.Errorf("lock: exclusive %v: %w", addr, err)
		}
		if prev == 0 {
			c.acquisitions.Inc()
			return end, nil
		}
		c.acqRetries.Inc()
		now = c.backoffAt(end, i)
		runtime.Gosched() // let the holder's goroutine make progress
	}
	return now, fmt.Errorf("%w: exclusive %v", ErrTimeout, addr)
}

// UnlockExclusive releases the write lock covering addr; the caller must
// be the owner.
func (c *Client) UnlockExclusive(at simnet.Time, addr region.GAddr) (simnet.Time, error) {
	word := c.geo.lockWordAddr(addr)
	held := uint64(c.owner) << 32
	prev, end, err := c.qp.CompareAndSwap(at, word, held, 0)
	if err != nil {
		return end, fmt.Errorf("lock: unlock exclusive %v: %w", addr, err)
	}
	if prev != held {
		return end, fmt.Errorf("%w: word=%#x owner=%d", ErrNotOwner, prev, c.owner)
	}
	return end, nil
}

// LockShared acquires a read lock covering addr.
func (c *Client) LockShared(at simnet.Time, addr region.GAddr) (simnet.Time, error) {
	word := c.geo.lockWordAddr(addr)
	now := at
	for i := 0; i < c.retries; i++ {
		prev, end, err := c.qp.FetchAdd(now, word, 1)
		if err != nil {
			return end, fmt.Errorf("lock: shared %v: %w", addr, err)
		}
		if prev>>32 == 0 {
			c.acquisitions.Inc()
			return end, nil // no writer; our increment stands
		}
		c.acqRetries.Inc()
		// A writer holds the lock: back out and retry.
		_, end, err = c.qp.FetchAdd(end, word, ^uint64(0))
		if err != nil {
			return end, fmt.Errorf("lock: shared backout %v: %w", addr, err)
		}
		now = c.backoffAt(end, i)
		runtime.Gosched() // let the writer's goroutine make progress
	}
	return now, fmt.Errorf("%w: shared %v", ErrTimeout, addr)
}

// UnlockShared releases a read lock covering addr.
func (c *Client) UnlockShared(at simnet.Time, addr region.GAddr) (simnet.Time, error) {
	word := c.geo.lockWordAddr(addr)
	_, end, err := c.qp.FetchAdd(at, word, ^uint64(0))
	if err != nil {
		return end, fmt.Errorf("lock: unlock shared %v: %w", addr, err)
	}
	return end, nil
}

// ReadVersion fetches the version word covering addr.
func (c *Client) ReadVersion(at simnet.Time, addr region.GAddr) (uint64, simnet.Time, error) {
	prev, end, err := c.qp.FetchAdd(at, c.geo.versionWordAddr(addr), 0)
	if err != nil {
		return 0, end, fmt.Errorf("lock: read version %v: %w", addr, err)
	}
	return prev, end, nil
}

// BumpVersion increments the version word covering addr and returns the
// new version. Writers call it before releasing the exclusive lock so
// readers observe that the object changed.
func (c *Client) BumpVersion(at simnet.Time, addr region.GAddr) (uint64, simnet.Time, error) {
	prev, end, err := c.qp.FetchAdd(at, c.geo.versionWordAddr(addr), 1)
	if err != nil {
		return 0, end, fmt.Errorf("lock: bump version %v: %w", addr, err)
	}
	return prev + 1, end, nil
}
