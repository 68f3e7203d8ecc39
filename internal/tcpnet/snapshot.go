package tcpnet

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sort"

	"gengar/internal/alloc"
)

// Pool snapshots: gengard persists its exported memory and allocation
// state to a file on shutdown and restores it on start, so a daemon
// restart does not lose the pool — the behavior users expect of a
// *non-volatile* memory service even when the backing store is a file
// standing in for NVM. Only the NVM pool is persisted: the DRAM cache,
// staging rings and lock state are volatile by design and rebuilt from
// traffic after a restart.
//
// Format:
//
//	magic "GGARSNAP" | version u32 | serverID u16 | poolBytes i64
//	allocCount u32 | (off i64, size i64)*   — live allocations
//	pool image (poolBytes raw)
//	crc32(IEEE) of everything above, u32
const (
	snapshotMagic   = "GGARSNAP"
	snapshotVersion = 1
)

// snapshotChunk sizes the streaming copies between the pool device and
// the snapshot file.
const snapshotChunk = 1 << 20

// ErrBadSnapshot reports a corrupt or incompatible snapshot file.
var ErrBadSnapshot = errors.New("tcpnet: bad snapshot")

// WriteSnapshot persists the server's pool to path atomically (via a
// temporary file and rename). Callers must ensure the server is
// quiescent (gengard snapshots after Close, which drains the flusher).
func (s *PoolServer) WriteSnapshot(path string) (err error) {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			_ = f.Close()
			_ = os.Remove(tmp)
		}
	}()

	crc := crc32.NewIEEE()
	w := bufio.NewWriterSize(io.MultiWriter(f, crc), snapshotChunk)

	if _, err = w.WriteString(snapshotMagic); err != nil {
		return err
	}
	var hdr [4 + 2 + 8]byte
	binary.BigEndian.PutUint32(hdr[0:], snapshotVersion)
	binary.BigEndian.PutUint16(hdr[4:], s.cfg.ID)
	binary.BigEndian.PutUint64(hdr[6:], uint64(s.cfg.PoolBytes))
	if _, err = w.Write(hdr[:]); err != nil {
		return err
	}

	allocs := s.eng.Pool().Live()
	var cnt [4]byte
	binary.BigEndian.PutUint32(cnt[:], uint32(len(allocs)))
	if _, err = w.Write(cnt[:]); err != nil {
		return err
	}
	var rec [16]byte
	for _, a := range allocs {
		binary.BigEndian.PutUint64(rec[0:], uint64(a.Off))
		binary.BigEndian.PutUint64(rec[8:], uint64(a.Size))
		if _, err = w.Write(rec[:]); err != nil {
			return err
		}
	}

	// Stream the pool image out of the device in chunks; ReadRaw takes
	// the device's internal lock per chunk, so a huge pool never pins it.
	nvm := s.eng.NVM()
	buf := make([]byte, snapshotChunk)
	for off := int64(0); off < s.cfg.PoolBytes; off += snapshotChunk {
		n := s.cfg.PoolBytes - off
		if n > snapshotChunk {
			n = snapshotChunk
		}
		if err = nvm.ReadRaw(off, buf[:n]); err != nil {
			return err
		}
		if _, err = w.Write(buf[:n]); err != nil {
			return err
		}
	}
	if err = w.Flush(); err != nil {
		return err
	}
	var sum [4]byte
	binary.BigEndian.PutUint32(sum[:], crc.Sum32())
	if _, err = f.Write(sum[:]); err != nil {
		return err
	}
	if err = f.Sync(); err != nil {
		return err
	}
	if err = f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// RestoreSnapshot loads a snapshot written by WriteSnapshot into a
// freshly-constructed server. The server's ID and pool size must match
// the snapshot's. On any validation failure the server is left
// untouched — no partial restore.
func (s *PoolServer) RestoreSnapshot(path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if len(raw) < len(snapshotMagic)+4+2+8+4+4 {
		return fmt.Errorf("%w: truncated (%d bytes)", ErrBadSnapshot, len(raw))
	}
	body, sum := raw[:len(raw)-4], binary.BigEndian.Uint32(raw[len(raw)-4:])
	if crc32.ChecksumIEEE(body) != sum {
		return fmt.Errorf("%w: checksum mismatch", ErrBadSnapshot)
	}
	if string(body[:len(snapshotMagic)]) != snapshotMagic {
		return fmt.Errorf("%w: magic mismatch", ErrBadSnapshot)
	}
	p := body[len(snapshotMagic):]
	version := binary.BigEndian.Uint32(p[0:])
	id := binary.BigEndian.Uint16(p[4:])
	poolBytes := int64(binary.BigEndian.Uint64(p[6:]))
	p = p[14:]
	if version != snapshotVersion {
		return fmt.Errorf("%w: version %d", ErrBadSnapshot, version)
	}
	if id != s.cfg.ID || poolBytes != s.cfg.PoolBytes {
		return fmt.Errorf("%w: snapshot is server %d/%d bytes, this daemon is %d/%d",
			ErrBadSnapshot, id, poolBytes, s.cfg.ID, s.cfg.PoolBytes)
	}

	n := binary.BigEndian.Uint32(p)
	p = p[4:]
	if int64(len(p)) != int64(n)*16+poolBytes {
		return fmt.Errorf("%w: body length %d inconsistent", ErrBadSnapshot, len(p))
	}
	// Validate every allocation record before mutating any engine state,
	// so a bad snapshot never leaves a half-restored pool.
	type allocRec struct{ off, size int64 }
	recs := make([]allocRec, 0, n)
	for i := uint32(0); i < n; i++ {
		off := int64(binary.BigEndian.Uint64(p[0:]))
		size := int64(binary.BigEndian.Uint64(p[8:]))
		p = p[16:]
		if off == 0 {
			continue // the reserved nil-address guard block is re-made by the engine
		}
		if off < 0 || size <= 0 || size > poolBytes || off > poolBytes-size {
			return fmt.Errorf("%w: allocation [%d,+%d) out of pool", ErrBadSnapshot, off, size)
		}
		if size != alloc.BlockSize(size) || off&(size-1) != 0 {
			return fmt.Errorf("%w: allocation [%d,+%d) is not an aligned power-of-two block", ErrBadSnapshot, off, size)
		}
		recs = append(recs, allocRec{off, size})
	}
	// WriteSnapshot emits records in offset order; sorting makes the
	// overlap check one pass over neighbours whatever order they arrive in.
	sort.Slice(recs, func(i, j int) bool { return recs[i].off < recs[j].off })
	for i := 1; i < len(recs); i++ {
		if prev, a := recs[i-1], recs[i]; a.off < prev.off+prev.size {
			return fmt.Errorf("%w: allocations [%d,+%d) and [%d,+%d) overlap",
				ErrBadSnapshot, prev.off, prev.size, a.off, a.size)
		}
	}
	pool := s.eng.Pool()
	for _, a := range recs {
		if err := pool.Reserve(a.off, a.size); err != nil {
			return fmt.Errorf("%w: allocation [%d,+%d): %v", ErrBadSnapshot, a.off, a.size, err)
		}
		if err := s.eng.AdoptObject(a.off, a.size); err != nil {
			return fmt.Errorf("%w: allocation [%d,+%d): %v", ErrBadSnapshot, a.off, a.size, err)
		}
	}
	return s.eng.NVM().WriteRaw(0, p)
}
