// Package hmem models byte-addressable hybrid memory devices: DRAM and
// NVM (Optane DC PMM class) with distinct latency, bandwidth and write
// granularity. Devices carry real backing buffers, so every simulated
// access also moves real bytes and protocol correctness is testable
// end-to-end; timing is charged in simulated nanoseconds via simnet.
package hmem

import (
	"fmt"
	"time"
)

// Kind distinguishes memory media classes.
type Kind int

// Media kinds. The zero value is invalid so that an unset profile is
// caught by Validate.
const (
	KindDRAM Kind = iota + 1
	KindNVM
)

// String returns the conventional short name of the media kind.
func (k Kind) String() string {
	switch k {
	case KindDRAM:
		return "DRAM"
	case KindNVM:
		return "NVM"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// MediaProfile is the timing model of one memory device.
//
// Latency is the pipelined access time (two concurrent accesses each
// observe it once); occupancy — the per-operation overhead plus the block
// transfer time at the device's bandwidth — is what serializes on the
// device and therefore what limits throughput. NVM devices additionally
// amplify small writes to their internal block granularity (256 B on
// Optane DC PMM), which is why small remote writes to NVM are
// disproportionately expensive — the asymmetry Gengar's proxy exploits.
type MediaProfile struct {
	Kind Kind

	ReadLatency  time.Duration // pipelined media read latency
	WriteLatency time.Duration // pipelined media write latency (to ADR domain for NVM)

	ReadBytesPerSec  float64 // sustained read bandwidth
	WriteBytesPerSec float64 // sustained write bandwidth

	OpOverhead time.Duration // per-operation occupancy (controller slot)

	// AccessBlock is the internal access granularity in bytes. Transfers
	// are rounded up to a multiple of it when computing occupancy. Zero
	// means byte granularity.
	AccessBlock int
}

// Validate reports whether the profile is complete and physically
// meaningful.
func (p MediaProfile) Validate() error {
	switch p.Kind {
	case KindDRAM, KindNVM:
	default:
		return fmt.Errorf("hmem: invalid media kind %v", p.Kind)
	}
	if p.ReadLatency < 0 || p.WriteLatency < 0 || p.OpOverhead < 0 {
		return fmt.Errorf("hmem: negative latency in profile %+v", p)
	}
	if p.ReadBytesPerSec <= 0 || p.WriteBytesPerSec <= 0 {
		return fmt.Errorf("hmem: non-positive bandwidth in profile %+v", p)
	}
	if p.AccessBlock < 0 {
		return fmt.Errorf("hmem: negative access block %d", p.AccessBlock)
	}
	return nil
}

// blockedSize rounds n up to the device's access granularity.
func (p MediaProfile) blockedSize(n int) int {
	if p.AccessBlock <= 1 || n <= 0 {
		return n
	}
	blocks := (n + p.AccessBlock - 1) / p.AccessBlock
	return blocks * p.AccessBlock
}

// ReadOccupancy returns how long a read of n bytes occupies the device
// controller: the serialized portion that limits read throughput.
func (p MediaProfile) ReadOccupancy(n int) time.Duration {
	return p.OpOverhead + transferTime(p.blockedSize(n), p.ReadBytesPerSec)
}

// WriteOccupancy returns how long a write of n bytes occupies the device
// controller, including write amplification to the access block.
func (p MediaProfile) WriteOccupancy(n int) time.Duration {
	return p.OpOverhead + transferTime(p.blockedSize(n), p.WriteBytesPerSec)
}

// ReadTime returns the unloaded end-to-end latency of a read of n bytes.
func (p MediaProfile) ReadTime(n int) time.Duration {
	return p.ReadLatency + p.ReadOccupancy(n)
}

func transferTime(n int, bytesPerSec float64) time.Duration {
	if n <= 0 || bytesPerSec <= 0 {
		return 0
	}
	return time.Duration(float64(n) / bytesPerSec * float64(time.Second))
}

// DRAMProfile returns a DDR4-class DRAM timing model: ~80 ns pipelined
// access, ~38 GB/s per channel-set.
func DRAMProfile() MediaProfile {
	return MediaProfile{
		Kind:             KindDRAM,
		ReadLatency:      80 * time.Nanosecond,
		WriteLatency:     80 * time.Nanosecond,
		ReadBytesPerSec:  38e9,
		WriteBytesPerSec: 38e9,
		OpOverhead:       5 * time.Nanosecond,
		AccessBlock:      64, // cache line
	}
}

// OptaneProfile returns an Intel Optane DC PMM timing model following
// the published single-DIMM measurements ("Basic Performance
// Measurements of the Intel Optane DC Persistent Memory Module",
// Izraelevitz et al.): ~300 ns random read latency, ~100 ns write into
// the ADR write-pending queue, ~2.4 GB/s random-access read bandwidth
// (sequential reaches ~6.5, but a memory pool's access stream is
// random), ~2 GB/s write bandwidth, 256 B internal (XPLine) granularity.
func OptaneProfile() MediaProfile {
	return MediaProfile{
		Kind:             KindNVM,
		ReadLatency:      300 * time.Nanosecond,
		WriteLatency:     100 * time.Nanosecond,
		ReadBytesPerSec:  2.4e9,
		WriteBytesPerSec: 2.0e9,
		OpOverhead:       10 * time.Nanosecond,
		AccessBlock:      256, // XPLine
	}
}
