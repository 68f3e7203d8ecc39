package simnet

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestGateSingleActorNeverBlocks(t *testing.T) {
	g := NewGate(10)
	h := g.Join(0)
	for i := Time(0); i < 1000; i += 100 {
		h.Advance(i) // must return immediately
	}
	h.Leave()
}

func TestGateBoundsSkew(t *testing.T) {
	const window = 50
	g := NewGate(window)
	fast := g.Join(0)
	slow := g.Join(0)

	released := make(chan struct{})
	go func() {
		fast.Advance(1000) // way ahead: must block until slow catches up
		close(released)
	}()
	select {
	case <-released:
		t.Fatal("fast actor not blocked")
	case <-time.After(20 * time.Millisecond):
	}
	slow.Advance(960) // 1000 <= 960+50
	select {
	case <-released:
	case <-time.After(time.Second):
		t.Fatal("fast actor never released")
	}
	fast.Leave()
	slow.Leave()
}

func TestGateLeaveReleasesWaiters(t *testing.T) {
	g := NewGate(10)
	ahead := g.Join(0)
	behind := g.Join(0)
	released := make(chan struct{})
	go func() {
		ahead.Advance(10000)
		close(released)
	}()
	time.Sleep(5 * time.Millisecond)
	behind.Leave() // now ahead is the only (and min) participant
	select {
	case <-released:
	case <-time.After(time.Second):
		t.Fatal("Leave did not release waiter")
	}
	ahead.Leave()
}

func TestGateAdvanceAfterLeaveIsNoop(t *testing.T) {
	g := NewGate(10)
	h := g.Join(0)
	h.Leave()
	h.Advance(1 << 40) // must not block or panic
}

func TestGateManyActorsStayWithinWindow(t *testing.T) {
	// Invariant: among active participants, the spread of recorded
	// clocks never exceeds window + the largest single step (a blocked
	// actor records its target time before waiting).
	const (
		actors  = 8
		window  = 100
		steps   = 500
		maxStep = actors // actor i steps by 1+i
	)
	g := NewGate(window)
	stop := make(chan struct{})
	violation := make(chan Duration, 1)
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
			}
			g.mu.Lock()
			if len(g.clocks) == actors { // only while everyone is active
				lo, hi := Time(1<<62), Time(0)
				for _, c := range g.clocks {
					lo, hi = min(lo, c), max(hi, c)
				}
				if sk := hi.Sub(lo); sk > window+maxStep {
					select {
					case violation <- sk:
					default:
					}
				}
			}
			g.mu.Unlock()
		}
	}()

	// Everyone joins before anyone runs: an actor joining at 0 after the
	// others ran ahead would break the invariant by construction.
	hs := make([]*GateHandle, actors)
	for i := range hs {
		hs[i] = g.Join(0)
	}
	var wg sync.WaitGroup
	for i, h := range hs {
		wg.Add(1)
		go func(i int, h *GateHandle) {
			defer wg.Done()
			defer h.Leave()
			var now Time
			for s := 0; s < steps; s++ {
				now += Time(1 + i) // actors advance at different rates
				h.Advance(now)
			}
		}(i, h)
	}
	wg.Wait()
	close(stop)
	select {
	case sk := <-violation:
		t.Fatalf("skew %v exceeded window+maxStep", sk)
	default:
	}
}

// TestGateJoinLeaveWhileWaiting joins and leaves actors while others
// wait: the first joiner, a late joiner at the lowest clock and one in
// the middle leave in turn. No waiter may be stranded, and a removed
// handle must not keep the minimum pinned.
func TestGateJoinLeaveWhileWaiting(t *testing.T) {
	const window = 10
	g := NewGate(window)
	anchor := g.Join(0)
	var waiters []*GateHandle
	for i := 0; i < 3; i++ {
		waiters = append(waiters, g.Join(0))
	}
	released := make(chan int, len(waiters))
	for i, h := range waiters {
		go func(i int, h *GateHandle) {
			h.Advance(1000)
			released <- i
		}(i, h)
	}
	stillBlocked := func(when string) {
		t.Helper()
		select {
		case i := <-released:
			t.Fatalf("%s: waiter %d released with the minimum still far behind", when, i)
		case <-time.After(20 * time.Millisecond):
		}
	}
	stillBlocked("before any leave")

	// Two late joiners behind everyone; the one at 0 keeps the minimum
	// where it was once the anchor leaves.
	mid := g.Join(500)
	low := g.Join(0)
	anchor.Leave()
	stillBlocked("after the anchor left")

	// The lowest clock leaves: the minimum must move up to mid's 500,
	// still far behind the waiters.
	low.Leave()
	stillBlocked("after the low joiner left")

	// mid catches up: every waiter is released.
	mid.Advance(995)
	for range waiters {
		select {
		case <-released:
		case <-time.After(time.Second):
			t.Fatal("a waiter was stranded")
		}
	}

	// Every remaining handle leaves; the gate ends empty and a double
	// leave changes nothing.
	for _, h := range append(waiters, mid) {
		h.Leave()
		h.Leave()
	}
	if n := len(g.clocks); n != 0 {
		t.Fatalf("%d handles left in an empty gate", n)
	}
}

// BenchmarkGateAdvance advances one of n actors per op, round-robin, in a
// window wide enough that no actor ever waits: the cost of reporting a
// clock — the minimum scan and the wake-up broadcast.
func BenchmarkGateAdvance(b *testing.B) {
	for _, n := range []int{2, 8} {
		b.Run(fmt.Sprintf("actors=%d", n), func(b *testing.B) {
			g := NewGate(Duration(1) << 60)
			hs := make([]*GateHandle, n)
			for i := range hs {
				hs[i] = g.Join(0)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				hs[i%n].Advance(Time(i))
			}
		})
	}
}
