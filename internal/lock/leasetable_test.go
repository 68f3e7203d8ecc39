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
	if err := tbl.Lock(7, a, false, 50*time.Millisecond, time.Second); err != nil {
		t.Fatal(err)
	}
	// Re-acquire by the same session renews, never deadlocks.
	if err := tbl.Lock(7, a, false, 50*time.Millisecond, time.Second); err != nil {
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
	if err := tbl.Lock(1, a, true, 30*time.Millisecond, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	// Advance the injected clock past the lease: a writer gets in.
	now = now.Add(time.Second)
	if err := tbl.Lock(2, a, false, time.Second, time.Millisecond); err != nil {
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
	if err := tbl.Lock(1, a, true, time.Second, time.Second); err != nil {
		t.Fatal(err)
	}
	if err := tbl.UnlockShared(1, a); err != nil {
		t.Fatal(err)
	}
	if len(bumped) != 0 {
		t.Fatalf("hook fired on shared release: %v", bumped)
	}
	// An exclusive release fires it exactly once with the lock address.
	if err := tbl.Lock(2, a, false, time.Second, time.Second); err != nil {
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
	if err := tbl.Lock(1, a, false, time.Minute, time.Second); err != nil {
		t.Fatal(err)
	}
	const waiters = 8
	errc := make(chan error, waiters)
	for s := uint64(2); s < 2+waiters; s++ {
		go func(s uint64) {
			err := tbl.Lock(s, a, false, time.Minute, 10*time.Second)
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
	if err := tbl.Lock(20, a, true, 15*time.Millisecond, time.Second); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Lock(21, a, false, time.Minute, 10*time.Second); err != nil {
		t.Fatalf("writer behind a lapsed reader lease: %v", err)
	}

	// The deadline ends the wait on its own.
	if err := tbl.Lock(22, a, true, time.Minute, time.Millisecond); !errors.Is(err, ErrLeaseTimeout) {
		t.Fatalf("reader behind a live writer: %v", err)
	}
}

// TestLeaseWaiterWakesAtItsDeadline: a contended acquire whose budget is
// a few microseconds arms a timer that can fire before the waiter is
// inside cond.Wait. That wake-up must not be lost — the waiter must not
// sleep on past its deadline until some release comes. Each try is
// sequential, so no other waiter's timer can rescue it.
func TestLeaseWaiterWakesAtItsDeadline(t *testing.T) {
	tbl, err := NewLeaseTable(16, nil)
	if err != nil {
		t.Fatal(err)
	}
	a := region.MustGAddr(1, 64)
	if err := tbl.Lock(1, a, false, time.Hour, time.Second); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		done := make(chan error, 1)
		go func() { done <- tbl.Lock(2, a, false, time.Hour, time.Duration(i%20)*time.Microsecond) }()
		select {
		case err := <-done:
			if !errors.Is(err, ErrLeaseTimeout) {
				t.Fatalf("try %d: %v, want ErrLeaseTimeout", i, err)
			}
		case <-time.After(time.Second):
			t.Fatalf("try %d: the waiter slept past its deadline", i)
		}
	}
}

// TestTryLockIsTheGrantStep: TryLock is the step Lock retries, taken
// once. Wherever Lock with no time to wait succeeds, TryLock grants (a
// holder asking again renews its lease); wherever Lock would have to
// wait, TryLock refuses and leaves the slot's grants as they were.
func TestTryLockIsTheGrantStep(t *testing.T) {
	a := region.MustGAddr(1, 64)
	hold := func(session uint64, shared bool, lease time.Duration) func(*LeaseTable) error {
		return func(tbl *LeaseTable) error { return tbl.Lock(session, a, shared, lease, 0) }
	}
	cases := []struct {
		name   string
		setup  func(*LeaseTable) error
		shared bool
		want   bool
	}{
		{"free slot, exclusive", nil, false, true},
		{"free slot, shared", nil, true, true},
		{"another writer, exclusive", hold(2, false, time.Minute), false, false},
		{"another writer, shared", hold(2, false, time.Minute), true, false},
		{"own write lock, exclusive renews", hold(1, false, time.Minute), false, true},
		{"another reader, exclusive", hold(2, true, time.Minute), false, false},
		{"another reader, shared", hold(2, true, time.Minute), true, true},
		{"lapsed writer, exclusive", hold(2, false, time.Millisecond), false, true},
	}
	for _, tc := range cases {
		var got [2]bool
		for i := range got {
			now := time.Now()
			tbl, err := NewLeaseTable(16, func() time.Time { return now })
			if err != nil {
				t.Fatal(err)
			}
			if tc.setup != nil {
				if err := tc.setup(tbl); err != nil {
					t.Fatal(err)
				}
			}
			now = now.Add(time.Second) // a lapsed lease is past; a live one is not
			if i == 0 {
				got[i] = tbl.TryLock(1, a, tc.shared, time.Minute)
			} else {
				got[i] = tbl.Lock(1, a, tc.shared, time.Minute, 0) == nil
			}
			if got[i] || tc.setup == nil {
				continue
			}
			// Refused: the holder's grant is untouched and still releasable.
			if err := tbl.UnlockExclusive(2, a); err != nil {
				if err := tbl.UnlockShared(2, a); err != nil {
					t.Fatalf("%s: the refused acquire disturbed the holder's grant: %v", tc.name, err)
				}
			}
		}
		if got[0] != tc.want || got[1] != tc.want {
			t.Errorf("%s: TryLock %v, Lock with no wait %v; want %v", tc.name, got[0], got[1], tc.want)
		}
	}
}
