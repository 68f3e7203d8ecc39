package main

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Every record the benchmark stores is self-describing, so every read
// can be checked without a shadow copy of the data set: a 16-byte stamp
// [objIndex u64][writer u32][seq u32] sits at the head and again at the
// tail, and every 8-byte word between them holds fill(stamp). A read
// that returns the wrong object, a torn image, a damaged body or a
// stale copy of the reader's own last write is a failed op.

const (
	recordBytes = 1024
	stampBytes  = 16
)

// errStaleOwn marks a read that returned an intact but older version of
// the reader's own last acknowledged write.
var errStaleOwn = errors.New("stale own write")

// stamp identifies one version of one record.
type stamp struct {
	obj    uint64
	writer uint32 // 0 = loader, i+1 = client i
	seq    uint32 // writer-local, strictly increasing
}

func (s stamp) put(b []byte) {
	binary.LittleEndian.PutUint64(b, s.obj)
	binary.LittleEndian.PutUint32(b[8:], s.writer)
	binary.LittleEndian.PutUint32(b[12:], s.seq)
}

func readStamp(b []byte) stamp {
	return stamp{
		obj:    binary.LittleEndian.Uint64(b),
		writer: binary.LittleEndian.Uint32(b[8:]),
		seq:    binary.LittleEndian.Uint32(b[12:]),
	}
}

// fill is the body word for a stamp: a cheap mix, so two versions of a
// record almost never share a body and a splice of two images shows.
func (s stamp) fill() uint64 {
	x := s.obj*0x9e3779b97f4a7c15 ^ uint64(s.writer)<<32 ^ uint64(s.seq)
	x ^= x >> 29
	return x * 0xbf58476d1ce4e5b9
}

// stampRecord writes version s of a record into buf (len ≥ 2 stamps,
// a multiple of 8).
func stampRecord(buf []byte, s stamp) {
	s.put(buf)
	s.put(buf[len(buf)-stampBytes:])
	f := s.fill()
	for off := stampBytes; off < len(buf)-stampBytes; off += 8 {
		binary.LittleEndian.PutUint64(buf[off:], f)
	}
}

// verifyRecord checks one read of object obj by reader self, whose last
// acknowledged write to that object carried ownSeq (0 = never wrote).
func verifyRecord(buf []byte, obj uint64, self, ownSeq uint32) error {
	head := readStamp(buf)
	if tail := readStamp(buf[len(buf)-stampBytes:]); head != tail {
		return fmt.Errorf("torn read of object %d: head %+v tail %+v", obj, head, tail)
	}
	if head.obj != obj {
		return fmt.Errorf("wrong object: read %d, wanted %d", head.obj, obj)
	}
	f := head.fill()
	for off := stampBytes; off < len(buf)-stampBytes; off += 8 {
		if binary.LittleEndian.Uint64(buf[off:]) != f {
			return fmt.Errorf("damaged body of object %d at byte %d", obj, off)
		}
	}
	if head.writer == self && head.seq < ownSeq {
		return fmt.Errorf("%w on object %d: read seq %d after writing %d", errStaleOwn, obj, head.seq, ownSeq)
	}
	return nil
}

// The shared-transaction objects are 8 fields of 128 bytes. A field is
// sixteen words: [counter][obj<<8|field] then the counter repeated, so a
// field image that mixes two transactions shows.

const (
	txnFields     = 8
	txnFieldBytes = 128
)

func fieldTag(obj uint64, field int) uint64 { return obj<<8 | uint64(field) }

func stampField(buf []byte, obj uint64, field int, counter uint64) {
	binary.LittleEndian.PutUint64(buf, counter)
	binary.LittleEndian.PutUint64(buf[8:], fieldTag(obj, field))
	for off := 16; off < len(buf); off += 8 {
		binary.LittleEndian.PutUint64(buf[off:], counter)
	}
}

// verifyField returns the field's counter, or an error when the image
// belongs to another field or mixes two versions.
func verifyField(buf []byte, obj uint64, field int) (uint64, error) {
	counter := binary.LittleEndian.Uint64(buf)
	if tag := binary.LittleEndian.Uint64(buf[8:]); tag != fieldTag(obj, field) {
		return 0, fmt.Errorf("wrong field: read tag %#x, wanted object %d field %d", tag, obj, field)
	}
	for off := 16; off < len(buf); off += 8 {
		if binary.LittleEndian.Uint64(buf[off:]) != counter {
			return 0, fmt.Errorf("torn read of object %d field %d at byte %d", obj, field, off)
		}
	}
	return counter, nil
}
