package config

import (
	"testing"

	"gengar/internal/hmem"
)

func TestDefaultValid(t *testing.T) {
	for name, c := range map[string]Cluster{
		"default":    Default(),
		"nvm-direct": NVMDirect(),
		"dram-pool":  DRAMPool(),
	} {
		if err := c.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestPresetSemantics(t *testing.T) {
	if f := NVMDirect().Features; f.Cache || f.Proxy {
		t.Fatal("NVMDirect must disable both mechanisms")
	}
	d := DRAMPool()
	if d.PoolMedia.Kind != hmem.KindDRAM {
		t.Fatal("DRAMPool must use DRAM pool media")
	}
	g := Default()
	if !g.Features.Cache || !g.Features.Proxy {
		t.Fatal("Default must enable both mechanisms")
	}
	if g.PoolMedia.Kind != hmem.KindNVM {
		t.Fatal("Default pool must be NVM")
	}
}

func TestValidateCatchesBadFields(t *testing.T) {
	mutations := map[string]func(*Cluster){
		"zero servers":     func(c *Cluster) { c.Servers = 0 },
		"too many servers": func(c *Cluster) { c.Servers = 1 << 16 },
		"non-pow2 nvm":     func(c *Cluster) { c.NVMBytes = 1000 },
		"non-pow2 dram":    func(c *Cluster) { c.DRAMBufferBytes = 1000 },
		"zero ring bytes":  func(c *Cluster) { c.RingBytes = 0 },
		"non-pow2 locks":   func(c *Cluster) { c.LockSlots = 3 },
		"bad pool media":   func(c *Cluster) { c.PoolMedia = hmem.MediaProfile{} },
		"bad buffer media": func(c *Cluster) { c.BufferMedia = hmem.MediaProfile{} },
		"nvm buffer media": func(c *Cluster) { c.BufferMedia = hmem.OptaneProfile() },
		"bad network":      func(c *Cluster) { c.Network.PerOp = -1 },
		"zero digest":      func(c *Cluster) { c.Hotness.DigestEvery = 0 },
		"zero sketch":      func(c *Cluster) { c.Hotness.SketchK = 0 },
		"bad ring slots":   func(c *Cluster) { c.Proxy.RingSlots = 0 },
		"tiny ring slot":   func(c *Cluster) { c.Proxy.RingSlotSize = 12 },
		"ring overflow":    func(c *Cluster) { c.RingBytes = 100 },
	}
	for name, mutate := range mutations {
		c := Default()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: validation passed", name)
		}
	}
}
