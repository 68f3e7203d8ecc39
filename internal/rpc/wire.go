// Package rpc implements the two-sided control-plane messaging Gengar
// uses for everything that is not on the data path: bootstrap, gmalloc/
// gfree, hotness digest reporting and remap-table refresh. A call is
// one two-sided message each way over an RDMA queue pair.
//
// Control-plane operations involve the server CPU (unlike the one-sided
// data path), so the server charges a per-request CPU cost on a shared
// simnet resource — making RPCs measurably more expensive than one-sided
// verbs, as on real hardware.
package rpc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
)

// Kind identifies an RPC method on a server.
type Kind uint8

// Wire-format errors.
var (
	// ErrTruncated reports a message shorter than its header demands.
	ErrTruncated = errors.New("rpc: truncated message")
	// ErrClosed is returned for calls on a closed client or server.
	ErrClosed = errors.New("rpc: connection closed")
)

// RemoteError wraps an error string returned by a server handler.
type RemoteError struct {
	Kind Kind
	Msg  string
}

// Error implements the error interface.
func (e *RemoteError) Error() string {
	return fmt.Sprintf("rpc: remote error on kind %d: %s", e.Kind, e.Msg)
}

// headerLen is what a request or a response carries on the wire before
// its payload: a 64-bit tag plus the kind or status byte. Only its size
// matters to the simulation; Call charges it and moves no header bytes.
const headerLen = 9

// Writer appends binary fields to a request or response payload. Its
// methods never fail; the zero value is ready to use.
type Writer struct {
	buf []byte
}

// Bytes returns the accumulated payload.
func (w *Writer) Bytes() []byte { return w.buf }

// Reset makes w append after the existing contents of buf — the hook
// transports use to encode payloads directly into pooled frame buffers
// with wire headers reserved up front, instead of accumulating into a
// fresh allocation and copying.
func (w *Writer) Reset(buf []byte) { w.buf = buf }

// U8 appends one byte.
func (w *Writer) U8(v uint8) *Writer { w.buf = append(w.buf, v); return w }

// U16 appends a big-endian 16-bit value.
func (w *Writer) U16(v uint16) *Writer {
	w.buf = binary.BigEndian.AppendUint16(w.buf, v)
	return w
}

// U32 appends a big-endian 32-bit value.
func (w *Writer) U32(v uint32) *Writer {
	w.buf = binary.BigEndian.AppendUint32(w.buf, v)
	return w
}

// U64 appends a big-endian 64-bit value.
func (w *Writer) U64(v uint64) *Writer {
	w.buf = binary.BigEndian.AppendUint64(w.buf, v)
	return w
}

// I64 appends a big-endian 64-bit signed value.
func (w *Writer) I64(v int64) *Writer { return w.U64(uint64(v)) }

// Str appends a length-prefixed string (max 64 KiB).
func (w *Writer) Str(s string) *Writer {
	w.U16(uint16(len(s)))
	w.buf = append(w.buf, s...)
	return w
}

// Blob appends a 32-bit-length-prefixed byte slice.
func (w *Writer) Blob(b []byte) *Writer {
	w.U32(uint32(len(b)))
	w.buf = append(w.buf, b...)
	return w
}

// Extend appends n bytes for the caller to fill in place — a transport
// reads a blob's data straight into its wire position — and returns
// them. Their contents are whatever the buffer held.
func (w *Writer) Extend(n int) []byte {
	w.buf = slices.Grow(w.buf, n)
	w.buf = w.buf[:len(w.buf)+n]
	return w.buf[len(w.buf)-n:]
}

// Reader consumes binary fields from a payload. The first decode error
// sticks; check Err once at the end. A copy of a Reader decodes on from
// the same position independently.
type Reader struct {
	buf []byte
	err error
}

// NewReader wraps a payload for decoding.
func NewReader(b []byte) *Reader { return &Reader{buf: b} }

// Reset points r at a new payload, clearing any sticky error — so hot
// paths can decode with a stack-allocated Reader value instead of a
// fresh NewReader per message.
func (r *Reader) Reset(b []byte) { r.buf, r.err = b, nil }

// Err returns the first decoding error, if any.
func (r *Reader) Err() error { return r.err }

// Len returns the number of payload bytes not yet consumed.
func (r *Reader) Len() int { return len(r.buf) }

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if len(r.buf) < n {
		r.err = ErrTruncated
		return nil
	}
	b := r.buf[:n]
	r.buf = r.buf[n:]
	return b
}

// Count consumes a batch payload's leading u32 record count and rejects
// one the rest of the payload cannot hold at recordBytes per record, so
// a count that arrives over the wire never sizes an allocation beyond
// the message that carried it.
func (r *Reader) Count(recordBytes int) (int, error) {
	n := r.U32()
	if r.err != nil {
		return 0, r.err
	}
	if fit := len(r.buf) / recordBytes; uint64(n) > uint64(fit) {
		return 0, fmt.Errorf("rpc: batch count %d exceeds the %d records its payload can hold", n, fit)
	}
	return int(n), nil
}

// U8 consumes one byte.
func (r *Reader) U8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// U16 consumes a big-endian 16-bit value.
func (r *Reader) U16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint16(b)
}

// U32 consumes a big-endian 32-bit value.
func (r *Reader) U32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

// U64 consumes a big-endian 64-bit value.
func (r *Reader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

// I64 consumes a big-endian 64-bit signed value.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// Str consumes a length-prefixed string.
func (r *Reader) Str() string { return string(r.StrBytes()) }

// StrBytes consumes a length-prefixed string and returns its bytes in
// place, for a decoder that resolves the string against names it holds
// instead of allocating a copy. The slice aliases the payload.
func (r *Reader) StrBytes() []byte {
	n := int(r.U16())
	return r.take(n)
}

// Blob consumes a 32-bit-length-prefixed byte slice. The returned slice
// aliases the payload; copy it if retained.
func (r *Reader) Blob() []byte {
	n := int(r.U32())
	return r.take(n)
}
