package main

import (
	"io"
	"net"
	"time"
)

// Host-speed calibration.
//
// The reference host is a few vCPUs of a shared machine whose speed
// moves by 15–30 % for seconds to minutes at a time: the same binary
// completes 80 k or 120 k reads in neighbouring seconds of one run, and
// a loop that uses none of this repository's code moves with it. No
// bound the contract allows can be held against that, so every
// wall-clock number is measured against a yardstick taken in the same
// quarter second: the window is cut into slices, and before and after
// every slice the benchmark times a burst of raw loopback round trips —
// 64 bytes out, one record back, two goroutines, the standard library
// only. A slice's times are multiplied by refRoundTrip ÷ (the round
// trip of the two bursts around it), and a metric is the median over
// the slices. What is reported therefore reads "as on a host whose raw
// loopback round trip takes 5 µs"; the run's own round trip is reported
// beside it (host.loopback_rtt_us) so that the stopwatch values can be
// recovered. The yardstick runs no code of the program, so no change to
// the program can move it. README.md, "Host-speed calibration", has
// the measurements behind this and behind the choices below.
const (
	calRequestBytes = 64
	calReplyBytes   = recordBytes
	calRoundTrips   = 2000 // ≈ 10 ms per burst
	calWarmBursts   = 10
	refRoundTrip    = 5 * time.Microsecond
)

type calibrator struct {
	lis    net.Listener
	conn   net.Conn
	echoed chan struct{} // closed when the echo goroutine has ended
	buf    []byte
	rtts   []time.Duration
}

func newCalibrator() (*calibrator, error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	c := &calibrator{
		lis: lis, echoed: make(chan struct{}),
		buf: make([]byte, calReplyBytes), rtts: make([]time.Duration, calRoundTrips),
	}
	go func() {
		defer close(c.echoed)
		conn, err := lis.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		buf := make([]byte, calReplyBytes)
		for {
			if _, err := io.ReadFull(conn, buf[:calRequestBytes]); err != nil {
				return
			}
			if _, err := conn.Write(buf); err != nil {
				return
			}
		}
	}()
	if c.conn, err = net.Dial("tcp", lis.Addr().String()); err != nil {
		lis.Close()
		<-c.echoed
		return nil, err
	}
	// The first round trips pay for connection set-up, cold caches and a
	// vCPU that has been idle.
	for i := 0; i < calWarmBursts; i++ {
		if _, err := c.burst(); err != nil {
			c.close()
			return nil, err
		}
	}
	return c, nil
}

// yardstick is one burst, per round trip. The host slows down in more
// than one way — everything at once, or by taking the vCPU away for
// pieces of time that lengthen averages and leave medians and CPU time
// alone — so like is measured against like: rates and tails against the
// burst's mean, medians against its median, CPU time against its CPU
// time.
type yardstick struct{ mean, median, cpu time.Duration }

// burst times calRoundTrips raw round trips.
func (c *calibrator) burst() (yardstick, error) {
	u0, s0 := cpuTime()
	start := time.Now()
	t0 := start
	for i := range c.rtts {
		if _, err := c.conn.Write(c.buf[:calRequestBytes]); err != nil {
			return yardstick{}, err
		}
		if _, err := io.ReadFull(c.conn, c.buf); err != nil {
			return yardstick{}, err
		}
		t1 := time.Now()
		c.rtts[i] = t1.Sub(t0)
		t0 = t1
	}
	u1, s1 := cpuTime()
	return yardstick{
		mean:   t0.Sub(start) / calRoundTrips,
		median: medianDuration(c.rtts),
		cpu:    (u1 - u0 + s1 - s0) / calRoundTrips,
	}, nil
}

func (c *calibrator) close() {
	c.conn.Close()
	c.lis.Close()
	<-c.echoed
}

// scale is what the times of a stretch of work are multiplied by: its
// averages and tails, its medians, its CPU time. The reference host
// spends the whole of a round trip on the CPU, as one thread does.
type scale struct{ mean, median, cpu float64 }

// scaleOf derives it from the bursts before and after the stretch.
func scaleOf(before, after yardstick) scale {
	ref := 2 * float64(refRoundTrip)
	return scale{
		mean:   ref / float64(before.mean+after.mean),
		median: ref / float64(before.median+after.median),
		cpu:    ref / float64(before.cpu+after.cpu),
	}
}

// lapTimer times a set-up in laps, each scaled by the bursts around it.
// The bursts themselves are not part of the set-up.
type lapTimer struct {
	cal         *calibrator
	prev        yardstick
	start       time.Time
	raw, scaled time.Duration
}

func newLapTimer(cal *calibrator) (*lapTimer, error) {
	y, err := cal.burst()
	if err != nil {
		return nil, err
	}
	return &lapTimer{cal: cal, prev: y, start: time.Now()}, nil
}

// lap ends the stretch of set-up that began at the previous lap.
func (l *lapTimer) lap() error {
	d := time.Since(l.start)
	y, err := l.cal.burst()
	if err != nil {
		return err
	}
	l.raw += d
	l.scaled += time.Duration(float64(d) * scaleOf(l.prev, y).mean)
	l.prev, l.start = y, time.Now()
	return nil
}
