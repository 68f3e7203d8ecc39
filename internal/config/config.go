// Package config defines the tunable parameters of a Gengar deployment:
// cluster shape, device timing profiles, network model, hotness epoching,
// proxy geometry and feature switches for the ablation baselines.
package config

import (
	"errors"
	"fmt"
	"time"

	"gengar/internal/hmem"
	"gengar/internal/simnet"
)

// Features switches Gengar's two key mechanisms on and off, yielding the
// ablation variants evaluated in EXPERIMENTS.md (E12). With both off the
// system degenerates to the NVM-direct DSHM baseline.
type Features struct {
	// Cache enables hotness tracking and the distributed DRAM buffers.
	Cache bool
	// Proxy enables DRAM-staged writes with asynchronous NVM flush.
	Proxy bool
}

// Hotness tunes frequently-accessed-data identification.
type Hotness struct {
	// DigestEvery is the number of data-path accesses to one home server
	// after which a client reports its digest there.
	DigestEvery int
	// SketchK is the Space-Saving counter budget per server.
	SketchK int
	// PlanEvery is the minimum simulated time between promotion plans at
	// one server.
	PlanEvery time.Duration
	// MinWeight, Hysteresis and MaxChurn parameterize the promotion
	// policy (see hotness.Policy).
	MinWeight  uint64
	Hysteresis float64
	MaxChurn   int
}

// Proxy tunes the write-staging path.
type Proxy struct {
	// RingSlots and RingSlotSize define each client's staging ring. A
	// slot holds a 12 B header plus payload; larger writes take several.
	RingSlots    int
	RingSlotSize int
}

// Cluster is the full deployment description.
type Cluster struct {
	// Servers is the number of memory servers contributing NVM and DRAM.
	Servers int

	// NVMBytes is each server's NVM pool capacity (power of two).
	NVMBytes int64
	// DRAMBufferBytes is each server's DRAM buffer arena for promoted
	// copies (power of two).
	DRAMBufferBytes int64
	// RingBytes is each server's DRAM reserved for staging rings.
	RingBytes int64
	// LockSlots is the per-server lock table size (power of two).
	LockSlots int

	// PoolMedia is the timing profile of pool devices. Swapping
	// OptaneProfile for DRAMProfile yields the DRAM-only baseline pool.
	PoolMedia hmem.MediaProfile
	// BufferMedia is the timing profile of DRAM buffer/ring devices.
	BufferMedia hmem.MediaProfile
	// Network is the fabric link model.
	Network simnet.LinkModel

	// RPCCPUPerReq is the server CPU charge per control-plane RPC.
	RPCCPUPerReq time.Duration

	Hotness  Hotness
	Proxy    Proxy
	Features Features
}

// Default returns the configuration used throughout the evaluation
// unless a sweep overrides a field: a 4-server pool of 64 MiB Optane-
// profile NVM each, 8 MiB DRAM buffers, 100 Gb/s-class fabric, and both
// Gengar mechanisms enabled.
func Default() Cluster {
	return Cluster{
		Servers:         4,
		NVMBytes:        64 << 20,
		DRAMBufferBytes: 8 << 20,
		RingBytes:       8 << 20,
		LockSlots:       1 << 14,
		PoolMedia:       hmem.OptaneProfile(),
		BufferMedia:     hmem.DRAMProfile(),
		Network: simnet.LinkModel{
			PerOp:       600 * time.Nanosecond,
			RespPerOp:   20 * time.Nanosecond, // NIC per-message hardware cost
			Propagation: 300 * time.Nanosecond,
			BytesPerSec: 12.5e9, // 100 Gb/s
		},
		RPCCPUPerReq: 1500 * time.Nanosecond,
		Hotness: Hotness{
			DigestEvery: 256,
			SketchK:     4096,
			PlanEvery:   time.Millisecond,
			MinWeight:   4,
			Hysteresis:  1.5,
			MaxChurn:    16,
		},
		Proxy: Proxy{
			RingSlots:    128,
			RingSlotSize: 4096 + 12,
		},
		Features: Features{Cache: true, Proxy: true},
	}
}

// NVMDirect returns the state-of-the-art-comparator configuration: the
// same substrate with Gengar's mechanisms disabled, i.e. a DSHM exposing
// remote NVM directly over one-sided verbs (Octopus-class).
func NVMDirect() Cluster {
	c := Default()
	c.Features = Features{}
	return c
}

// DRAMPool returns the DRAM-only pool baseline: every pool byte is DRAM
// (the latency upper bound a hybrid system chases, at a capacity and
// cost real deployments cannot afford).
func DRAMPool() Cluster {
	c := Default()
	c.PoolMedia = hmem.DRAMProfile()
	c.Features = Features{}
	return c
}

func pow2(v int64) bool { return v > 0 && v&(v-1) == 0 }

// Validate reports the first problem with the configuration.
func (c Cluster) Validate() error {
	if c.Servers <= 0 || c.Servers > 1<<16-1 {
		return fmt.Errorf("config: servers %d out of range", c.Servers)
	}
	if !pow2(c.NVMBytes) {
		return fmt.Errorf("config: NVMBytes %d not a power of two", c.NVMBytes)
	}
	if !pow2(c.DRAMBufferBytes) {
		return fmt.Errorf("config: DRAMBufferBytes %d not a power of two", c.DRAMBufferBytes)
	}
	if c.RingBytes <= 0 {
		return errors.New("config: RingBytes must be positive")
	}
	if c.LockSlots <= 0 || c.LockSlots&(c.LockSlots-1) != 0 {
		return fmt.Errorf("config: LockSlots %d not a power of two", c.LockSlots)
	}
	if err := c.PoolMedia.Validate(); err != nil {
		return fmt.Errorf("config: pool media: %w", err)
	}
	if err := c.BufferMedia.Validate(); err != nil {
		return fmt.Errorf("config: buffer media: %w", err)
	}
	if c.BufferMedia.Kind != hmem.KindDRAM {
		return errors.New("config: buffer media must be DRAM")
	}
	if err := c.Network.Validate(); err != nil {
		return fmt.Errorf("config: network: %w", err)
	}
	if c.Hotness.DigestEvery <= 0 || c.Hotness.SketchK <= 0 {
		return errors.New("config: hotness DigestEvery and SketchK must be positive")
	}
	if c.Proxy.RingSlots <= 0 || c.Proxy.RingSlotSize <= 12 {
		return errors.New("config: proxy ring geometry invalid")
	}
	if int64(c.Proxy.RingSlots)*int64(c.Proxy.RingSlotSize) > c.RingBytes {
		return fmt.Errorf("config: one ring (%d B) exceeds RingBytes %d",
			int64(c.Proxy.RingSlots)*int64(c.Proxy.RingSlotSize), c.RingBytes)
	}
	return nil
}
