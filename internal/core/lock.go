package core

import (
	"fmt"

	"gengar/internal/region"
	"gengar/internal/telemetry/span"
)

// LockExclusive acquires the write lock covering addr. While held, the
// caller is the only writer of the object (and of any object sharing its
// lock-table slot).
//
// Versions follow seqlock discipline: acquisition bumps the object's
// version to an odd value and release bumps it back to even, so
// ReadOptimistic can detect in-progress and completed writes without
// taking a lock.
func (c *Client) LockExclusive(addr region.GAddr) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrClosed
	}
	conn, err := c.conn(addr)
	if err != nil {
		return err
	}
	sp := c.tracer.StartAt("lock_ex", int64(c.now))
	end, err := conn.locks.LockExclusive(c.now, addr)
	if err != nil {
		sp.FinishAt(int64(c.now))
		return err
	}
	c.now = end
	if _, end, err = conn.locks.BumpVersion(c.now, addr); err != nil {
		// Roll the lock back so a failed acquire leaves no odd version.
		_, _ = conn.locks.UnlockExclusive(c.now, addr)
		sp.FinishAt(int64(c.now))
		return err
	}
	c.now = end
	sp.MarkAt(span.StageLockWait, int64(end))
	sp.FinishAt(int64(end))
	return nil
}

// UnlockExclusive publishes the caller's writes and releases the write
// lock: staged writes drain to NVM (and through to any DRAM copy), the
// object's version is bumped back to even so optimistic readers notice
// the change, and the lock word is cleared — in that order, so a reader
// that acquires the lock afterwards observes everything the writer did.
func (c *Client) UnlockExclusive(addr region.GAddr) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrClosed
	}
	conn, err := c.conn(addr)
	if err != nil {
		return err
	}
	if conn.writer != nil {
		if t := conn.writer.Drain(); t > c.now {
			c.now = t
		}
	}
	if _, end, err := conn.locks.BumpVersion(c.now, addr); err != nil {
		return err
	} else {
		c.now = end
	}
	end, err := conn.locks.UnlockExclusive(c.now, addr)
	if err != nil {
		return err
	}
	c.now = end
	return nil
}

// LockShared acquires a read lock covering addr.
func (c *Client) LockShared(addr region.GAddr) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrClosed
	}
	conn, err := c.conn(addr)
	if err != nil {
		return err
	}
	sp := c.tracer.StartAt("lock_sh", int64(c.now))
	end, err := conn.locks.LockShared(c.now, addr)
	if err != nil {
		sp.FinishAt(int64(c.now))
		return err
	}
	c.now = end
	sp.MarkAt(span.StageLockWait, int64(end))
	sp.FinishAt(int64(end))
	return nil
}

// UnlockShared releases a read lock covering addr.
func (c *Client) UnlockShared(addr region.GAddr) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrClosed
	}
	conn, err := c.conn(addr)
	if err != nil {
		return err
	}
	end, err := conn.locks.UnlockShared(c.now, addr)
	if err != nil {
		return err
	}
	c.now = end
	return nil
}

// ReadOptimistic performs a lock-free consistent read of len(buf) bytes
// at addr using seqlock validation: it reads the object's version,
// fetches the data, and re-reads the version, retrying while a writer
// holds the lock (odd version) or committed in between (version moved).
// It is the cheap read path for read-mostly shared objects — no lock
// table writes at all — at the cost of retries under write contention.
func (c *Client) ReadOptimistic(addr region.GAddr, buf []byte) error {
	const maxAttempts = 64
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrClosed
	}
	conn, err := c.conn(addr)
	if err != nil {
		return err
	}
	for attempt := 0; attempt < maxAttempts; attempt++ {
		v1, end, err := conn.locks.ReadVersion(c.now, addr)
		if err != nil {
			return err
		}
		c.now = end
		if v1%2 == 1 {
			continue // writer in progress
		}
		if c.now, err = c.readAt(conn, c.now, addr, buf, nil); err != nil {
			return err
		}
		v2, end, err := conn.locks.ReadVersion(c.now, addr)
		if err != nil {
			return err
		}
		c.now = end
		if v1 == v2 {
			c.reads.Inc()
			c.observe(conn, addr, false)
			return nil
		}
	}
	return fmt.Errorf("core: optimistic read of %v: %w", addr, ErrContended)
}

// Version returns the current version of the object covering addr —
// the optimistic-concurrency primitive: read the version, read the data,
// re-read the version, and retry if it moved.
func (c *Client) Version(addr region.GAddr) (uint64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return 0, ErrClosed
	}
	conn, err := c.conn(addr)
	if err != nil {
		return 0, err
	}
	v, end, err := conn.locks.ReadVersion(c.now, addr)
	if err != nil {
		return 0, err
	}
	c.now = end
	return v, nil
}
