package hmem

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"

	"gengar/internal/simnet"
)

// Device is one memory device: a real backing buffer plus a timing model.
// All accesses are bounds-checked; out-of-range accesses return
// *RangeError rather than panicking, because in a distributed memory pool
// a bad offset is a peer bug, not a local programming error.
//
// The contended portion of each access (controller occupancy) serializes
// on an internal simnet.Resource; the pipelined latency portion is added
// afterwards, so concurrent accesses overlap their latencies but compete
// for bandwidth — matching how real DIMMs behave under load.
type Device struct {
	name    string
	profile MediaProfile
	ctrl    *simnet.Resource

	// Write accounting (WriteStats): totals of bytes written, controller
	// occupancy charged, and timed write ops.
	wrBytes atomic.Int64
	wrBusy  atomic.Int64
	wrOps   atomic.Int64

	mu  sync.RWMutex // guards buf contents
	buf []byte
}

// WriteStats is a snapshot of a device's timed-write accounting.
type WriteStats struct {
	Bytes int64           // payload bytes written
	Busy  simnet.Duration // controller occupancy charged
	Ops   int64           // timed write operations
}

// RangeError reports an access outside a device's address range.
type RangeError struct {
	Device string
	Off    int64
	Len    int
	Size   int64
}

// Error implements the error interface.
func (e *RangeError) Error() string {
	return fmt.Sprintf("hmem: access [%d,%d) out of range on %s (size %d)",
		e.Off, e.Off+int64(e.Len), e.Device, e.Size)
}

// NewDevice returns a zero-filled device of the given size with the given
// timing model. It returns an error if the profile is invalid or the size
// is not positive.
func NewDevice(name string, size int64, profile MediaProfile) (*Device, error) {
	if err := profile.Validate(); err != nil {
		return nil, err
	}
	if size <= 0 {
		return nil, fmt.Errorf("hmem: non-positive device size %d", size)
	}
	return &Device{
		name:    name,
		profile: profile,
		ctrl:    simnet.NewResource(name + "/ctrl"),
		buf:     make([]byte, size),
	}, nil
}

// Name returns the device's diagnostic name.
func (d *Device) Name() string { return d.name }

// Kind returns the device's media kind.
func (d *Device) Kind() Kind { return d.profile.Kind }

// Size returns the device capacity in bytes.
func (d *Device) Size() int64 { return int64(len(d.buf)) }

// Profile returns the device's timing model.
func (d *Device) Profile() MediaProfile { return d.profile }

// ControllerStats returns usage statistics of the device controller —
// useful for measuring bandwidth saturation in experiments.
func (d *Device) ControllerStats() simnet.ResourceStats { return d.ctrl.Stats() }

// WriteStats returns a snapshot of the device's timed-write accounting.
func (d *Device) WriteStats() WriteStats {
	return WriteStats{
		Bytes: d.wrBytes.Load(),
		Busy:  simnet.Duration(d.wrBusy.Load()),
		Ops:   d.wrOps.Load(),
	}
}

func (d *Device) check(off int64, n int) error {
	if off < 0 || n < 0 || off+int64(n) > int64(len(d.buf)) {
		return &RangeError{Device: d.name, Off: off, Len: n, Size: int64(len(d.buf))}
	}
	return nil
}

// Read copies len(dst) bytes starting at off into dst, charging the
// device's read cost from simulated time at. It returns the completion
// instant.
func (d *Device) Read(at simnet.Time, off int64, dst []byte) (simnet.Time, error) {
	if err := d.check(off, len(dst)); err != nil {
		return at, err
	}
	_, end := d.ctrl.Acquire(at, d.profile.ReadOccupancy(len(dst)))
	d.mu.RLock()
	copy(dst, d.buf[off:off+int64(len(dst))])
	d.mu.RUnlock()
	return end.Add(d.profile.ReadLatency), nil
}

// Write copies src into the device starting at off, charging the device's
// write cost from simulated time at. It returns the completion instant —
// for NVM the instant the data is in the persistence (ADR) domain.
func (d *Device) Write(at simnet.Time, off int64, src []byte) (simnet.Time, error) {
	if err := d.check(off, len(src)); err != nil {
		return at, err
	}
	occ := d.profile.WriteOccupancy(len(src))
	_, end := d.ctrl.Acquire(at, occ)
	d.mu.Lock()
	copy(d.buf[off:off+int64(len(src))], src)
	d.mu.Unlock()
	d.wrBytes.Add(int64(len(src)))
	d.wrBusy.Add(int64(occ))
	d.wrOps.Add(1)
	return end.Add(d.profile.WriteLatency), nil
}

// CompareAndSwap64 atomically compares the 8-byte big-endian word at off
// with old and, if equal, replaces it with new. It returns the previous
// value and the completion instant. The offset must be 8-byte aligned.
func (d *Device) CompareAndSwap64(at simnet.Time, off int64, old, new uint64) (prev uint64, end simnet.Time, err error) {
	if off%8 != 0 {
		return 0, at, fmt.Errorf("hmem: unaligned CAS offset %d on %s", off, d.name)
	}
	if err := d.check(off, 8); err != nil {
		return 0, at, err
	}
	_, e := d.ctrl.Acquire(at, d.profile.WriteOccupancy(8))
	d.mu.Lock()
	prev = binary.BigEndian.Uint64(d.buf[off:])
	if prev == old {
		binary.BigEndian.PutUint64(d.buf[off:], new)
	}
	d.mu.Unlock()
	return prev, e.Add(d.profile.WriteLatency), nil
}

// FetchAdd64 atomically adds delta to the 8-byte big-endian word at off
// and returns the previous value and the completion instant. The offset
// must be 8-byte aligned.
func (d *Device) FetchAdd64(at simnet.Time, off int64, delta uint64) (prev uint64, end simnet.Time, err error) {
	if off%8 != 0 {
		return 0, at, fmt.Errorf("hmem: unaligned fetch-add offset %d on %s", off, d.name)
	}
	if err := d.check(off, 8); err != nil {
		return 0, at, err
	}
	_, e := d.ctrl.Acquire(at, d.profile.WriteOccupancy(8))
	d.mu.Lock()
	prev = binary.BigEndian.Uint64(d.buf[off:])
	binary.BigEndian.PutUint64(d.buf[off:], prev+delta)
	d.mu.Unlock()
	return prev, e.Add(d.profile.WriteLatency), nil
}

// ReadRaw copies bytes without charging simulated time. It is intended
// for test assertions and server-internal bookkeeping that the paper's
// hardware would do with local loads outside the measured path.
func (d *Device) ReadRaw(off int64, dst []byte) error {
	if err := d.check(off, len(dst)); err != nil {
		return err
	}
	d.mu.RLock()
	copy(dst, d.buf[off:off+int64(len(dst))])
	d.mu.RUnlock()
	return nil
}

// WriteRaw copies bytes without charging simulated time; see ReadRaw.
func (d *Device) WriteRaw(off int64, src []byte) error {
	if err := d.check(off, len(src)); err != nil {
		return err
	}
	d.mu.Lock()
	copy(d.buf[off:off+int64(len(src))], src)
	d.mu.Unlock()
	return nil
}
