package tcpnet

import (
	"testing"

	"gengar/internal/config"
	"gengar/internal/engine"
	"gengar/internal/engine/placertest"
)

// TestPeerPlacerConformance runs the shared Placer conformance suite
// against the peer-spilling placer, with a real gengard daemon on
// loopback as the holder. The home engine's arena is a single block
// smaller than one conformance copy's footprint, so every placement is
// forced through the peer arm — the suite's lifecycle, staleness, and
// torn-read checks all exercise the wire ops and the holder-side
// generation check rather than the local seqlock fast path.
func TestPeerPlacerConformance(t *testing.T) {
	placertest.Run(t, func(t *testing.T) engine.Placer {
		peerAddrs := startServers(t, 1, func(c *ServerConfig) { c.ID = 9 })

		cfg := config.Default()
		cfg.Servers = 1
		// Smaller than one CopySize copy with its header: local placement
		// always fails, so the placer must spill.
		cfg.DRAMBufferBytes = placertest.CopySize
		eng, err := engine.New(engine.Config{ID: 1, Name: "gengard-1", Cluster: cfg, Clock: engine.NewWallClock()})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(eng.Close)

		var frames framePool
		ps := newPeerSet(peerAddrs, 1, &frames)
		t.Cleanup(ps.close)
		// Dial eagerly so the link's node name is known before the first
		// placement (production daemons do this via the background watch).
		if _, err := ps.links[0].get(); err != nil {
			t.Fatalf("peer dial: %v", err)
		}
		return newPeerPlacer(eng, engine.NewLocalPlacer(eng), ps)
	})
}
