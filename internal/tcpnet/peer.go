package tcpnet

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gengar/internal/engine"
	"gengar/internal/metrics"
)

// Daemon-to-daemon links: the transport half of the distributed DRAM
// cache. Each gengard daemon configured with -peers keeps one outbound
// client connection per peer daemon — the same pooled-frame, pipelined,
// writev-coalescing serverConn machinery the client pool uses — and
// drives the OpPeer* vocabulary over it: place, install, write, read,
// release. Links dial lazily with backoff, are watched in the
// background so capacity reappears after a peer restart, and fail fast
// while a peer is down so a read burst degrades to local NVM instead of
// stacking up behind a dead socket.

// Peer link tuning. Dials are deliberately short-fused: a peer that
// cannot complete a handshake quickly is treated as down, because every
// moment spent waiting is a moment reads that could fall back to NVM do
// not.
const (
	peerDialTimeout   = time.Second
	peerRedialBackoff = 500 * time.Millisecond
	peerWatchEvery    = time.Second
)

// errPeerDown reports a peer link with no usable connection right now
// (dead, mid-dial by another caller, or inside its redial backoff).
var errPeerDown = errors.New("tcpnet: peer link down")

// peerLink is one daemon's outbound link to one peer daemon.
type peerLink struct {
	addr   string
	homeID uint16 // this daemon's ID, to reject accidental self-peering
	dial   PoolConfig
	frames *framePool

	// rtt observes peer-link round trips (placement and copy I/O), the
	// latency of the distributed half of the cache.
	rtt *metrics.Histogram

	// mu admits one dialer; get uses TryLock so concurrent callers fail
	// fast to their NVM fallback instead of queueing behind the dial.
	mu       sync.Mutex
	nextDial time.Time // redial backoff gate; guarded by mu
	conn     atomic.Pointer[serverConn]

	// Learned from the peer's hello; zero until the first connect.
	peerID     atomic.Uint32
	cacheBytes atomic.Int64

	// spilled tracks the bytes of this home's copies currently placed on
	// the peer (block-rounded footprint), for occupancy telemetry.
	spilled atomic.Int64

	closed atomic.Bool
	done   chan struct{}
}

func newPeerLink(addr string, homeID uint16, frames *framePool) *peerLink {
	return &peerLink{
		addr:   addr,
		homeID: homeID,
		dial:   PoolConfig{Addrs: []string{addr}, Timeout: peerDialTimeout},
		frames: frames,
		done:   make(chan struct{}),
	}
}

// live reports whether the link has a usable connection right now.
func (l *peerLink) live() bool {
	sc := l.conn.Load()
	return sc != nil && !sc.dead()
}

// nodeName returns the peer engine's node name (the Location.Node
// value for copies it hosts), or "" before the first connect.
func (l *peerLink) nodeName() string {
	id := l.peerID.Load()
	if id == 0 {
		return ""
	}
	return fmt.Sprintf("gengard-%d", id)
}

// get returns a live connection, dialing if the link is down and its
// backoff has elapsed. Exactly one caller dials; the rest fail fast
// with errPeerDown and take their NVM fallback.
func (l *peerLink) get() (*serverConn, error) {
	if sc := l.conn.Load(); sc != nil && !sc.dead() {
		return sc, nil
	}
	if l.closed.Load() {
		return nil, ErrClosed
	}
	if !l.mu.TryLock() {
		return nil, errPeerDown // another caller is dialing
	}
	// peerLink.mu intentionally covers the blocking dial: admission is via
	// TryLock, so waiters fail fast to NVM instead of queueing, and one
	// miss burst dials a dead peer exactly once.
	defer l.mu.Unlock()
	if sc := l.conn.Load(); sc != nil && !sc.dead() {
		return sc, nil
	}
	now := time.Now()
	if now.Before(l.nextDial) {
		return nil, errPeerDown
	}
	l.nextDial = now.Add(peerRedialBackoff)
	sc, err := dialServer(l.addr, &l.dial, l.frames)
	if err != nil {
		return nil, err
	}
	if sc.features&featurePeerCache == 0 || sc.serverID == l.homeID {
		sc.close()
		return nil, fmt.Errorf("tcpnet: peer %s unusable (id %d, features %#x)", l.addr, sc.serverID, sc.features)
	}
	l.peerID.Store(uint32(sc.serverID))
	l.cacheBytes.Store(sc.cacheBytes)
	l.conn.Store(sc)
	return sc, nil
}

// watch keeps the link dialed in the background: capacity joins the
// planner's budget as soon as the peer is reachable (not only once
// arena pressure forces a placement attempt) and reappears after a
// peer restart. It exits on close.
func (l *peerLink) watch() {
	t := time.NewTicker(peerWatchEvery)
	defer t.Stop()
	for {
		select {
		case <-l.done:
			return
		case <-t.C:
			if !l.live() {
				_, _ = l.get()
			}
		}
	}
}

// close tears the link down.
func (l *peerLink) close() {
	if l.closed.Swap(true) {
		return
	}
	close(l.done)
	if sc := l.conn.Load(); sc != nil {
		sc.close()
	}
}

// peerErr rehydrates the staleness sentinel after its trip over the
// wire as an error string: a holder that rejected the op because the
// slot's generation no longer matches must compare equal to
// engine.ErrStaleCopy on this side too, the same contract the local
// copy-I/O arm honors.
func peerErr(err error) error {
	var re *RemoteError
	if errors.As(err, &re) && strings.Contains(re.Msg, engine.ErrStaleCopy.Error()) {
		return fmt.Errorf("%w: %s", engine.ErrStaleCopy, re.Msg)
	}
	return err
}

// roundTrip runs one peer op over the link, observing its round trip.
func (l *peerLink) roundTrip(op Op, hint int, enc func(w *payloadWriter)) (response, *serverConn, error) {
	sc, err := l.get()
	if err != nil {
		return response{}, nil, err
	}
	var w payloadWriter
	f := l.frames.newFrame(&w, hint)
	enc(&w)
	start := time.Now()
	resp, err := sc.roundTrip(f, &w, op, nil)
	if err != nil {
		return response{}, nil, peerErr(err)
	}
	if l.rtt != nil {
		l.rtt.Record(time.Since(start))
	}
	return resp, sc, nil
}

// callPeer is roundTrip for ops with an empty success payload.
func (l *peerLink) callPeer(op Op, hint int, enc func(w *payloadWriter)) error {
	resp, sc, err := l.roundTrip(op, hint, enc)
	if err != nil {
		return err
	}
	sc.release(resp)
	return nil
}

// place asks the peer to reserve arena space for a copy of size data
// bytes under the home-minted generation, returning the slot offset.
func (l *peerLink) place(gen uint64, size int64) (int64, error) {
	resp, sc, err := l.roundTrip(OpPeerPlace, 16, func(w *payloadWriter) {
		w.U64(gen).I64(size)
	})
	if err != nil {
		return 0, err
	}
	r := newPayloadReader(resp.payload)
	off := r.I64()
	err = r.Err()
	sc.release(resp)
	return off, err
}

// install ships the copy's full data image to the holder.
func (l *peerLink) install(off int64, gen uint64, data []byte) error {
	return l.callPeer(OpPeerInstall, 16+4+len(data), func(w *payloadWriter) {
		w.I64(off).U64(gen).Blob(data)
	})
}

// write applies a write-through to the hosted copy's data area.
func (l *peerLink) write(off int64, gen uint64, delta int64, data []byte) error {
	return l.callPeer(OpPeerWrite, 24+4+len(data), func(w *payloadWriter) {
		w.I64(off).U64(gen).I64(delta).Blob(data)
	})
}

// read proxies a cache hit through the holder, which generation-checks
// the slot before serving it.
func (l *peerLink) read(off int64, gen uint64, delta int64, buf []byte) error {
	resp, sc, err := l.roundTrip(OpPeerRead, 28, func(w *payloadWriter) {
		w.I64(off).U64(gen).I64(delta).U32(uint32(len(buf)))
	})
	if err != nil {
		return err
	}
	r := newPayloadReader(resp.payload)
	data := r.Blob()
	err = r.Err()
	if err == nil && len(data) != len(buf) {
		err = fmt.Errorf("tcpnet: short peer read: %d of %d bytes", len(data), len(buf))
	}
	if err == nil {
		copy(buf, data)
	}
	sc.release(resp)
	return err
}

// releaseCopy returns the hosted copy's arena space at the holder.
func (l *peerLink) releaseCopy(off int64, gen uint64) error {
	return l.callPeer(OpPeerRelease, 16, func(w *payloadWriter) {
		w.I64(off).U64(gen)
	})
}

// peerSet is a daemon's configured peer links.
type peerSet struct {
	links []*peerLink
	rr    atomic.Uint64 // placement round-robin cursor
}

func newPeerSet(addrs []string, homeID uint16, frames *framePool) *peerSet {
	ps := &peerSet{}
	for _, a := range addrs {
		ps.links = append(ps.links, newPeerLink(a, homeID, frames))
	}
	return ps
}

// start launches the background watchers that keep links dialed.
func (ps *peerSet) start() {
	for _, l := range ps.links {
		go l.watch()
	}
}

// close tears down every link.
func (ps *peerSet) close() {
	for _, l := range ps.links {
		l.close()
	}
}

// budget sums the advertised arena capacity of every live peer — the
// remote half of the planner's capacity-aware copy budget. A dead peer
// drops out immediately, so the next plan demotes the overflow.
func (ps *peerSet) budget() int64 {
	var sum int64
	for _, l := range ps.links {
		if l.live() {
			sum += l.cacheBytes.Load()
		}
	}
	return sum
}

// spilledBytes sums the footprint of this home's copies on all peers.
func (ps *peerSet) spilledBytes() int64 {
	var sum int64
	for _, l := range ps.links {
		sum += l.spilled.Load()
	}
	return sum
}

// liveCount reports how many links are currently connected.
func (ps *peerSet) liveCount() int {
	n := 0
	for _, l := range ps.links {
		if l.live() {
			n++
		}
	}
	return n
}

// linkFor resolves a copy's holder node name to its link.
func (ps *peerSet) linkFor(node string) *peerLink {
	for _, l := range ps.links {
		if l.nodeName() == node {
			return l
		}
	}
	return nil
}

// placementOrder returns the links in round-robin rotation, so spills
// spread across peers instead of filling the first arena end to end.
func (ps *peerSet) placementOrder() []*peerLink {
	n := len(ps.links)
	if n == 0 {
		return nil
	}
	start := int(ps.rr.Add(1)) % n
	out := make([]*peerLink, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, ps.links[(start+i)%n])
	}
	return out
}
