// Package lockblock is the golden corpus for the lock-across-blocking
// analyzer. Every `want` comment is an expected finding on that line.
package lockblock

import (
	"sync"
	"time"

	"gengar/internal/rdma"
	"gengar/internal/rpc"
	"gengar/internal/simnet"
)

type pool struct {
	mu  sync.Mutex
	rw  sync.RWMutex
	qp  *rdma.QP
	ctl *rpc.Client
	rx  rpc.Writer
	ch  chan int
	buf []byte

	//gengar:lint-ignore lock-across-blocking single-actor serialization lock, sections are deliberate
	actorMu sync.Mutex
}

func (p *pool) sendUnderLock() {
	p.mu.Lock()
	p.ch <- 1 // want "p.mu held across channel send"
	p.mu.Unlock()
}

func (p *pool) recvUnderLock() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return <-p.ch // want "p.mu held across channel receive"
}

func (p *pool) rlockAcrossPost(at simnet.Time) error {
	p.rw.RLock()
	defer p.rw.RUnlock()
	_, err := p.qp.Write(at, p.buf, rdma.RemoteAddr{}) // want "p.rw held across RDMA post Write"
	return err
}

func (p *pool) sleepUnderLock() {
	p.mu.Lock()
	time.Sleep(time.Millisecond) // want "p.mu held across time.Sleep"
	p.mu.Unlock()
}

func (p *pool) selectUnderLock() {
	p.mu.Lock()
	defer p.mu.Unlock()
	select { // want "p.mu held across select without default"
	case v := <-p.ch:
		_ = v
	case p.ch <- 2:
	}
}

func (p *pool) waitUnderLock(wg *sync.WaitGroup) {
	p.mu.Lock()
	wg.Wait() // want "p.mu held across sync.WaitGroup.Wait"
	p.mu.Unlock()
}

// unlockFirst releases before blocking: no finding.
func (p *pool) unlockFirst() {
	p.mu.Lock()
	v := len(p.buf)
	p.mu.Unlock()
	p.ch <- v
}

// errorReturnBranch unlocks on the early-return path; the analyzer must
// still see the lock held on the fallthrough path.
func (p *pool) errorReturnBranch(bad bool) {
	p.mu.Lock()
	if bad {
		p.mu.Unlock()
		return
	}
	p.ch <- 1 // want "p.mu held across channel send"
	p.mu.Unlock()
}

// bothBranchesUnlock merges to an empty held set: no finding.
func (p *pool) bothBranchesUnlock(fast bool) {
	p.mu.Lock()
	if fast {
		p.mu.Unlock()
	} else {
		p.mu.Unlock()
	}
	p.ch <- 1
}

// goroutineDoesNotInherit: the spawned body is a fresh context.
func (p *pool) goroutineDoesNotInherit() {
	p.mu.Lock()
	defer p.mu.Unlock()
	go func() {
		p.ch <- 1
	}()
}

// suppressedAtLine documents a deliberate section inline.
func (p *pool) suppressedAtLine() {
	//gengar:lint-ignore lock-across-blocking demo: ack channel is buffered and owned by this goroutine
	p.mu.Lock()
	p.ch <- 1
	p.mu.Unlock()
}

// suppressedAtDecl: actorMu's field declaration carries the directive,
// so none of its sections report.
func (p *pool) suppressedAtDecl() {
	p.actorMu.Lock()
	defer p.actorMu.Unlock()
	p.ch <- 1
}

// rangeOverChannel blocks on every iteration.
func (p *pool) rangeOverChannel() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for v := range p.ch { // want "p.mu held across range over channel"
		_ = v
	}
}

// rpcCallUnderLock waits on the server for the reply.
func (p *pool) rpcCallUnderLock(at simnet.Time) {
	p.mu.Lock()
	defer p.mu.Unlock()
	_, _, _ = p.ctl.Call(at, 1, p.buf, &p.rx) // want "p.mu held across call into rpc"
}

// rpcCodecUnderLock encodes and decodes in memory: no finding.
func (p *pool) rpcCodecUnderLock() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.rx.U64(7)
	var r rpc.Reader
	r.Reset(p.rx.Bytes())
	return r.U64()
}
