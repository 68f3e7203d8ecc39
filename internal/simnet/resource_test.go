package simnet

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestResourceIdleStart(t *testing.T) {
	r := NewResource("nic")
	start, end := r.Acquire(100, 50)
	if start != 100 || end != 150 {
		t.Fatalf("Acquire = [%v,%v), want [100,150)", start, end)
	}
	if r.Name() != "nic" {
		t.Fatalf("Name = %q", r.Name())
	}
}

func TestResourceQueueing(t *testing.T) {
	r := NewResource("dimm")
	// Two ops arriving at the same instant serialize.
	s1, e1 := r.Acquire(0, 100)
	s2, e2 := r.Acquire(0, 100)
	if s1 != 0 || e1 != 100 {
		t.Fatalf("first op [%v,%v)", s1, e1)
	}
	if s2 != 100 || e2 != 200 {
		t.Fatalf("second op queued wrong: [%v,%v), want [100,200)", s2, e2)
	}
	// A later arrival after the backlog drains starts at its arrival time.
	s3, e3 := r.Acquire(500, 10)
	if s3 != 500 || e3 != 510 {
		t.Fatalf("third op [%v,%v), want [500,510)", s3, e3)
	}
}

func TestResourceNegativeServiceClamped(t *testing.T) {
	r := NewResource("x")
	s, e := r.Acquire(10, -5)
	if s != 10 || e != 10 {
		t.Fatalf("negative service: [%v,%v), want [10,10)", s, e)
	}
}

func TestResourceStats(t *testing.T) {
	r := NewResource("cpu")
	r.Acquire(0, 100)
	r.Acquire(0, 100)
	st := r.Stats()
	if st.Ops != 2 {
		t.Fatalf("Ops = %d, want 2", st.Ops)
	}
	if st.BusyTotal != 200 {
		t.Fatalf("BusyTotal = %v, want 200ns", st.BusyTotal)
	}
	if st.FirstUse != 0 || st.LastUse != 200 {
		t.Fatalf("span [%v,%v], want [0,200]", st.FirstUse, st.LastUse)
	}
	if got := st.Utilization(); got != 1.0 {
		t.Fatalf("Utilization = %v, want 1.0", got)
	}
}

func TestResourceUtilizationPartial(t *testing.T) {
	r := NewResource("cpu")
	r.Acquire(0, 100)
	r.Acquire(300, 100) // idle gap [100,300)
	st := r.Stats()
	if got := st.Utilization(); got != 0.5 {
		t.Fatalf("Utilization = %v, want 0.5", got)
	}
}

func TestResourceUtilizationUnused(t *testing.T) {
	var s ResourceStats
	if s.Utilization() != 0 {
		t.Fatal("unused resource should report zero utilization")
	}
}

func TestResourceConcurrentNoOverlap(t *testing.T) {
	// Property: intervals handed out by Acquire never overlap, regardless
	// of goroutine interleaving.
	r := NewResource("shared")
	const n = 64
	type iv struct{ s, e Time }
	out := make(chan iv, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s, e := r.Acquire(Time(i), Duration(1+i%7))
			out <- iv{s, e}
		}(i)
	}
	wg.Wait()
	close(out)
	var ivs []iv
	for v := range out {
		ivs = append(ivs, v)
	}
	for i := range ivs {
		for j := i + 1; j < len(ivs); j++ {
			a, b := ivs[i], ivs[j]
			if a.s < b.e && b.s < a.e && a.s != a.e && b.s != b.e {
				t.Fatalf("overlap: [%v,%v) and [%v,%v)", a.s, a.e, b.s, b.e)
			}
		}
	}
}

func TestResourceBusyConservationProperty(t *testing.T) {
	// Property: total busy time equals the sum of service times, and the
	// watermark equals the max end time.
	f := func(seed int64, nOps uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		r := NewResource("p")
		var sum Duration
		var maxEnd Time
		for i := 0; i < int(nOps); i++ {
			arr := Time(rng.Int63n(1000))
			svc := Duration(rng.Int63n(100))
			_, end := r.Acquire(arr, svc)
			sum += svc
			if end > maxEnd {
				maxEnd = end
			}
		}
		st := r.Stats()
		return st.BusyTotal == sum && r.busyUntil == maxEnd && st.Ops == int64(nOps)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestLinkModelValidate(t *testing.T) {
	good := LinkModel{PerOp: time.Microsecond, Propagation: 300 * time.Nanosecond, BytesPerSec: 1e9}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid model rejected: %v", err)
	}
	bad := LinkModel{PerOp: -1}
	if err := bad.Validate(); err == nil {
		t.Fatal("negative PerOp accepted")
	}
}

func TestLinkModelSerializeTime(t *testing.T) {
	m := LinkModel{BytesPerSec: 1e9} // 1 GB/s => 1 ns per byte
	if got := m.SerializeTime(1000); got != time.Microsecond {
		t.Fatalf("SerializeTime(1000) = %v, want 1µs", got)
	}
	if got := m.SerializeTime(0); got != 0 {
		t.Fatalf("SerializeTime(0) = %v, want 0", got)
	}
	inf := LinkModel{}
	if got := inf.SerializeTime(1 << 20); got != 0 {
		t.Fatalf("infinite-BW SerializeTime = %v, want 0", got)
	}
}

func TestLinkModelOneWayMonotonicInSize(t *testing.T) {
	m := LinkModel{PerOp: 600 * time.Nanosecond, Propagation: 300 * time.Nanosecond, BytesPerSec: 12.5e9}
	prev := Duration(-1)
	for _, size := range []int{0, 64, 256, 4096, 1 << 20} {
		d := m.OneWay(size)
		if d < prev {
			t.Fatalf("OneWay not monotonic: size=%d got %v < prev %v", size, d, prev)
		}
		prev = d
	}
}

func TestLinkSendPipelining(t *testing.T) {
	nic := NewResource("tx")
	m := LinkModel{PerOp: 100 * time.Nanosecond, Propagation: 1 * time.Microsecond, BytesPerSec: 1e9}
	l := NewLink(m, nic)
	if l.Model() != m {
		t.Fatal("Model roundtrip")
	}
	// Two back-to-back 1000B sends at t=0: the second serializes behind the
	// first on the NIC (100+1000=1100ns each) but propagation overlaps.
	a1 := l.Send(0, 1000)
	a2 := l.Send(0, 1000)
	want1 := Time(0).Add(1100 * time.Nanosecond).Add(time.Microsecond)
	want2 := Time(0).Add(2200 * time.Nanosecond).Add(time.Microsecond)
	if a1 != want1 {
		t.Fatalf("first arrival %v, want %v", a1, want1)
	}
	if a2 != want2 {
		t.Fatalf("second arrival %v, want %v", a2, want2)
	}
}

func TestLinkSharedNICContention(t *testing.T) {
	nic := NewResource("tx")
	m := LinkModel{PerOp: 100 * time.Nanosecond}
	l1 := NewLink(m, nic)
	l2 := NewLink(m, nic)
	l1.Send(0, 0)
	a := l2.Send(0, 0)
	// Second link's send must queue behind the first on the shared NIC.
	if a != Time(0).Add(200*time.Nanosecond) {
		t.Fatalf("arrival %v, want T+200ns", a)
	}
}
