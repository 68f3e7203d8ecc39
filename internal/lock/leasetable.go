package lock

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"gengar/internal/region"
)

// Lease-table errors.
var (
	// ErrLeaseTimeout reports that an acquire waited out its budget.
	ErrLeaseTimeout = errors.New("lock: lease acquire timed out")
	// ErrLeaseNotHeld reports a release of a lock the session does not
	// hold.
	ErrLeaseNotHeld = errors.New("lock: lease not held by session")
)

// LeaseTable is the server-mediated reader/writer lock table with
// leases. Every grant carries an expiry; an expired grant may be stolen
// by any contender, which is how a real deployment survives clients that
// crash while holding locks. It shares slot hashing (SlotIndex) with the
// one-sided protocol, so both mechanisms agree on lock granularity.
//
// LeaseTable is wall-clock timed: leases protect against real client
// processes vanishing, which only wall time can observe.
type LeaseTable struct {
	slots int

	mu    sync.Mutex
	cond  *sync.Cond
	words map[int64]*tableWord
	now   func() time.Time // injectable for tests

	// onWriterRelease runs (under mu) when an exclusive grant is
	// released — the engine's hook to bump the slot's version word so
	// readers observe that the object changed.
	onWriterRelease func(region.GAddr)
}

type tableWord struct {
	writer       uint64 // session holding exclusive; 0 if none
	writerExpiry time.Time
	readers      map[uint64]time.Time // session -> lease expiry
}

// NewLeaseTable builds a lease table with the given power-of-two slot
// count. now is injectable for tests; nil selects time.Now.
func NewLeaseTable(slots int, now func() time.Time) (*LeaseTable, error) {
	if slots <= 0 || slots&(slots-1) != 0 {
		return nil, fmt.Errorf("lock: lease slots %d not a power of two", slots)
	}
	if now == nil {
		now = time.Now
	}
	t := &LeaseTable{slots: slots, words: make(map[int64]*tableWord), now: now}
	t.cond = sync.NewCond(&t.mu)
	return t, nil
}

// OnWriterRelease installs a hook that runs whenever an exclusive grant
// is released. Install before traffic.
func (t *LeaseTable) OnWriterRelease(fn func(region.GAddr)) {
	t.mu.Lock()
	t.onWriterRelease = fn
	t.mu.Unlock()
}

// Slots returns the table's slot count.
func (t *LeaseTable) Slots() int { return t.slots }

func (t *LeaseTable) word(addr region.GAddr) *tableWord {
	i := SlotIndex(addr, t.slots)
	w := t.words[i]
	if w == nil {
		w = &tableWord{readers: make(map[uint64]time.Time)}
		t.words[i] = w
	}
	return w
}

// reap drops expired grants on w at instant now.
func (w *tableWord) reap(now time.Time) {
	if w.writer != 0 && now.After(w.writerExpiry) {
		w.writer = 0
	}
	for s, exp := range w.readers {
		if now.After(exp) {
			delete(w.readers, s)
		}
	}
}

// grant is the one grant step every acquire takes, blocking or not: it
// reaps expired grants on w and grants session the lock — or renews the
// holder's own lease — if the slot admits it at instant now. It never
// waits. Caller holds mu.
func (w *tableWord) grant(session uint64, shared bool, now time.Time, lease time.Duration) bool {
	w.reap(now)
	switch {
	case shared && w.writer == 0:
		w.readers[session] = now.Add(lease)
	case !shared && (w.writer == session || w.writer == 0 && len(w.readers) == 0):
		w.writer = session
		w.writerExpiry = now.Add(lease)
	default:
		return false
	}
	return true
}

// TryLock takes one grant step for session's lock covering addr (shared
// or exclusive) and reports whether it was granted; it never waits. A
// refused caller that still wants the lock waits with Lock.
func (t *LeaseTable) TryLock(session uint64, addr region.GAddr, shared bool, lease time.Duration) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.word(addr).grant(session, shared, t.now(), lease)
}

// Lock grants session the lock covering addr (shared or exclusive),
// retrying the grant step until holders release or their leases lapse,
// for up to timeout. A timeout already spent takes the step once.
func (t *LeaseTable) Lock(session uint64, addr region.GAddr, shared bool, lease, timeout time.Duration) error {
	deadline := t.now().Add(timeout)
	t.mu.Lock()
	defer t.mu.Unlock()
	w := t.word(addr)
	for {
		now := t.now()
		if w.grant(session, shared, now, lease) {
			return nil
		}
		if !now.Before(deadline) {
			kind := "exclusive"
			if shared {
				kind = "shared"
			}
			return fmt.Errorf("%w: %s %v", ErrLeaseTimeout, kind, addr)
		}
		t.wait(deadline)
	}
}

// leaseTick bounds one wait, so a lease that expires with no release to
// broadcast it is still noticed.
const leaseTick = 10 * time.Millisecond

// wait blocks until a release broadcast, the deadline or the next tick,
// whichever is first. Caller holds mu.
func (t *LeaseTable) wait(deadline time.Time) {
	timer := time.AfterFunc(min(leaseTick, deadline.Sub(t.now())), t.wake)
	t.cond.Wait()
	timer.Stop()
}

// wake is the timer's broadcast. It takes mu first: a timer that fires
// before its waiter is inside cond.Wait — a deadline a moment away —
// would otherwise broadcast to nobody and leave the waiter asleep past
// its deadline until some release happened to come.
func (t *LeaseTable) wake() {
	t.mu.Lock()
	t.cond.Broadcast()
	t.mu.Unlock()
}

// UnlockExclusive releases session's write lock covering addr.
func (t *LeaseTable) UnlockExclusive(session uint64, addr region.GAddr) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	w := t.word(addr)
	w.reap(t.now())
	if w.writer != session {
		return fmt.Errorf("%w: exclusive %v session %d", ErrLeaseNotHeld, addr, session)
	}
	w.writer = 0
	if t.onWriterRelease != nil {
		t.onWriterRelease(addr)
	}
	t.cond.Broadcast()
	return nil
}

// UnlockShared releases session's read lock covering addr.
func (t *LeaseTable) UnlockShared(session uint64, addr region.GAddr) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	w := t.word(addr)
	w.reap(t.now())
	if _, ok := w.readers[session]; !ok {
		return fmt.Errorf("%w: shared %v session %d", ErrLeaseNotHeld, addr, session)
	}
	delete(w.readers, session)
	t.cond.Broadcast()
	return nil
}
