package lock

import (
	"errors"
	"testing"
	"time"

	"gengar/internal/region"
)

func TestLeaseTableValidation(t *testing.T) {
	if _, err := NewLeaseTable(3, nil); err == nil {
		t.Fatal("non-pow2 lease slots accepted")
	}
	if _, err := NewLeaseTable(0, nil); err == nil {
		t.Fatal("zero lease slots accepted")
	}
}

func TestLeaseRenewalByHolder(t *testing.T) {
	tbl, err := NewLeaseTable(16, nil)
	if err != nil {
		t.Fatal(err)
	}
	a := region.MustGAddr(1, 64)
	if err := tbl.LockExclusive(7, a, 50*time.Millisecond, time.Second); err != nil {
		t.Fatal(err)
	}
	// Re-acquire by the same session renews, never deadlocks.
	if err := tbl.LockExclusive(7, a, 50*time.Millisecond, time.Second); err != nil {
		t.Fatal(err)
	}
	if err := tbl.UnlockExclusive(7, a); err != nil {
		t.Fatal(err)
	}
}

func TestLeaseTableExpiredReaderReaped(t *testing.T) {
	now := time.Now()
	clock := func() time.Time { return now }
	tbl, err := NewLeaseTable(16, clock)
	if err != nil {
		t.Fatal(err)
	}
	a := region.MustGAddr(1, 64)
	if err := tbl.LockShared(1, a, 30*time.Millisecond, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	// Advance the injected clock past the lease: a writer gets in.
	now = now.Add(time.Second)
	if err := tbl.LockExclusive(2, a, time.Second, time.Millisecond); err != nil {
		t.Fatalf("writer blocked by expired reader: %v", err)
	}
	// The expired reader's release is now an error.
	if err := tbl.UnlockShared(1, a); !errors.Is(err, ErrLeaseNotHeld) {
		t.Fatalf("expired reader unlock: %v", err)
	}
}

func TestLeaseWriterReleaseHook(t *testing.T) {
	tbl, err := NewLeaseTable(16, nil)
	if err != nil {
		t.Fatal(err)
	}
	var bumped []region.GAddr
	tbl.OnWriterRelease(func(addr region.GAddr) { bumped = append(bumped, addr) })
	a := region.MustGAddr(1, 64)

	// Shared grants never fire the hook.
	if err := tbl.LockShared(1, a, time.Second, time.Second); err != nil {
		t.Fatal(err)
	}
	if err := tbl.UnlockShared(1, a); err != nil {
		t.Fatal(err)
	}
	if len(bumped) != 0 {
		t.Fatalf("hook fired on shared release: %v", bumped)
	}
	// An exclusive release fires it exactly once with the lock address.
	if err := tbl.LockExclusive(2, a, time.Second, time.Second); err != nil {
		t.Fatal(err)
	}
	if err := tbl.UnlockExclusive(2, a); err != nil {
		t.Fatal(err)
	}
	if len(bumped) != 1 || bumped[0] != a {
		t.Fatalf("hook after exclusive release: %v", bumped)
	}
	// A failed release (not the holder) never fires it.
	if err := tbl.UnlockExclusive(3, a); !errors.Is(err, ErrLeaseNotHeld) {
		t.Fatalf("unheld release: %v", err)
	}
	if len(bumped) != 1 {
		t.Fatalf("hook fired on failed release: %v", bumped)
	}
}

// TestLeaseTableWaiterWakes covers the three ways a contended acquire
// ends, none of which may be lost by the waiter's condition variable and
// timer: a release, a holder's lease lapsing with nobody to announce it,
// and the acquire's own deadline.
func TestLeaseTableWaiterWakes(t *testing.T) {
	tbl, err := NewLeaseTable(16, nil)
	if err != nil {
		t.Fatal(err)
	}
	a := region.MustGAddr(1, 64)

	// A release wakes every waiter; each then gets its turn.
	if err := tbl.LockExclusive(1, a, time.Minute, time.Second); err != nil {
		t.Fatal(err)
	}
	const waiters = 8
	errc := make(chan error, waiters)
	for s := uint64(2); s < 2+waiters; s++ {
		go func(s uint64) {
			err := tbl.LockExclusive(s, a, time.Minute, 10*time.Second)
			if err == nil {
				err = tbl.UnlockExclusive(s, a)
			}
			errc <- err
		}(s)
	}
	time.Sleep(5 * time.Millisecond) // let them park
	if err := tbl.UnlockExclusive(1, a); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < waiters; i++ {
		if err := <-errc; err != nil {
			t.Fatalf("waiter: %v", err)
		}
	}

	// A lapsed lease is noticed with no release to broadcast it.
	if err := tbl.LockShared(20, a, 15*time.Millisecond, time.Second); err != nil {
		t.Fatal(err)
	}
	if err := tbl.LockExclusive(21, a, time.Minute, 10*time.Second); err != nil {
		t.Fatalf("writer behind a lapsed reader lease: %v", err)
	}

	// The deadline ends the wait on its own.
	if err := tbl.LockShared(22, a, time.Minute, time.Millisecond); !errors.Is(err, ErrLeaseTimeout) {
		t.Fatalf("reader behind a live writer: %v", err)
	}
}
