package tcpnet

import (
	"fmt"

	"gengar/internal/cache"
	"gengar/internal/engine"
	"gengar/internal/simnet"
)

// peerPlacer is the TCP mount's distributed placement strategy: copies
// land in the home daemon's own arena while it has room and spill into
// peer daemons' arenas under pressure, turning the cluster's DRAM into
// one aggregated cache the way the paper's distributed buffers do.
//
// The decision layer and the copy data plane split cleanly: placement
// picks local-first then round-robins live peers, and every copy-I/O
// call routes by Location.Node — the local seqlocked arena for home
// copies, the peer wire ops for spilled ones. Generation stamps are
// always minted by the home's LocalPlacer (node-id-salted), so one
// stamp space covers both arms and the holder-side generation check
// stays sound wherever the copy lives.
type peerPlacer struct {
	eng   *engine.Engine
	local *engine.LocalPlacer
	peers *peerSet
}

func newPeerPlacer(eng *engine.Engine, local *engine.LocalPlacer, peers *peerSet) *peerPlacer {
	return &peerPlacer{eng: eng, local: local, peers: peers}
}

// PlaceCopy reserves space for a copy: the local arena first (local
// hits stay lock-free and wire-free), then each live peer in rotation.
func (p *peerPlacer) PlaceCopy(size int64) (cache.Location, error) {
	loc, localErr := p.local.PlaceCopy(size)
	if localErr == nil {
		return loc, nil
	}
	gen := p.local.Stamp()
	for _, l := range p.peers.placementOrder() {
		off, err := l.place(gen, size)
		if err != nil {
			continue // down, full, or mid-dial: try the next peer
		}
		l.spilled.Add(cache.CopyFootprint(size))
		return cache.Location{Node: l.nodeName(), Off: off, Size: size, Gen: gen}, nil
	}
	return cache.Location{}, fmt.Errorf("tcpnet: no arena space locally or on any live peer: %w", localErr)
}

// CopyBudget reports the aggregate arena the planner may budget copies
// against: the local arena plus every live peer's advertised capacity.
// Peers joining grow the hot set the cluster can cache; a peer dying
// shrinks the budget, and the next plan demotes the overflow.
func (p *peerPlacer) CopyBudget() int64 {
	return p.eng.BufferPool().Capacity() + p.peers.budget()
}

// link resolves the holder link for an off-box location.
func (p *peerPlacer) link(loc cache.Location) (*peerLink, error) {
	if l := p.peers.linkFor(loc.Node); l != nil {
		return l, nil
	}
	return nil, fmt.Errorf("tcpnet: no peer link to copy host %q", loc.Node)
}

// local reports whether the location lives in the home arena.
func (p *peerPlacer) isLocal(loc cache.Location) bool {
	return loc.Node == p.eng.Name()
}

// InstallCopy writes header + data into the holder's arena. The peer
// form ships only the data bytes; the holder stamps the generation
// header itself from its validated hosted-copy table entry.
func (p *peerPlacer) InstallCopy(at simnet.Time, loc cache.Location, payload []byte) (simnet.Time, error) {
	if p.isLocal(loc) {
		return p.local.InstallCopy(at, loc, payload)
	}
	l, err := p.link(loc)
	if err != nil {
		return at, err
	}
	return at, l.install(loc.Off, loc.Gen, payload[cache.CopyHeaderBytes:])
}

// WriteCopy applies a write-through to the copy's data area, wherever
// it lives.
func (p *peerPlacer) WriteCopy(at simnet.Time, loc cache.Location, delta int64, data []byte) (simnet.Time, error) {
	if p.isLocal(loc) {
		return p.local.WriteCopy(at, loc, delta, data)
	}
	l, err := p.link(loc)
	if err != nil {
		return at, err
	}
	return at, l.write(loc.Off, loc.Gen, delta, data)
}

// ReadCopy serves a cache hit from the copy, generation-checked at the
// holder: the local seqlock path for home copies, a proxied round trip
// over the peer link for spilled ones.
func (p *peerPlacer) ReadCopy(at simnet.Time, loc cache.Location, delta int64, buf []byte) (simnet.Time, error) {
	if p.isLocal(loc) {
		return p.local.ReadCopy(at, loc, delta, buf)
	}
	l, err := p.link(loc)
	if err != nil {
		return at, err
	}
	return at, l.read(loc.Off, loc.Gen, delta, buf)
}

// Release returns the copy's arena space. A peer release is best
// effort: if the holder is unreachable the slot stays hosted until the
// peer restarts (its table dies with it), bounded by the peer's arena;
// spill accounting drops the copy either way, since this home will
// never address it again.
func (p *peerPlacer) Release(loc cache.Location) {
	if p.isLocal(loc) {
		p.local.Release(loc)
		return
	}
	l, err := p.link(loc)
	if err != nil {
		return
	}
	l.spilled.Add(-cache.CopyFootprint(loc.Size))
	_ = l.releaseCopy(loc.Off, loc.Gen)
}
