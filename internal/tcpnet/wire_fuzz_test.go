package tcpnet

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"

	"gengar/internal/region"
)

// tracedSeed builds one complete wire frame carrying a trace extension
// with the given extLen byte and body, for seeding the fuzzer with
// well-formed and malformed extension shapes.
func tracedSeed(id uint64, op Op, extLen byte, extBody, payload []byte) []byte {
	body := make([]byte, 0, 9+1+len(extBody)+len(payload))
	body = binary.BigEndian.AppendUint64(body, id)
	body = append(body, uint8(op)|tagTraced)
	body = append(body, extLen)
	body = append(body, extBody...)
	body = append(body, payload...)
	frame := binary.BigEndian.AppendUint32(nil, uint32(len(body)))
	return append(frame, body...)
}

// FuzzReadFrame throws arbitrary byte streams at the frame reader. The
// reader must never panic, never hand back a frame that disagrees with
// its own header, must reject oversized or undersized length words with
// ErrFrameTooLarge rather than attempting the allocation, and must
// decode or reject the versioned trace extension without ever letting a
// malformed extension leak into the delivered payload.
func FuzzReadFrame(f *testing.F) {
	// A well-formed small frame.
	good, _ := (&framePool{}).encodeFrame(42, uint8(OpRead), []byte("payload"))
	f.Add(*good)
	// Truncated header: too few bytes for even the length word.
	f.Add([]byte{0x00, 0x00})
	// Length word present, body missing entirely.
	f.Add([]byte{0x00, 0x00, 0x00, 0x20})
	// Oversized length word.
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 1, 2, 3})
	// Undersized length word (below the id+tag minimum).
	f.Add([]byte{0x00, 0x00, 0x00, 0x04, 1, 2, 3, 4})
	// Short body: header promises more than the stream holds.
	short := make([]byte, 4+9)
	binary.BigEndian.PutUint32(short, 64)
	f.Add(short)
	// Two frames back to back, second truncated mid-body.
	double := append(append([]byte(nil), *good...), (*good)[:len(*good)-3]...)
	f.Add(double)
	// A well-formed traced frame: sampled flag + trace ID + payload.
	ext := append([]byte{traceFlagSampled}, binary.BigEndian.AppendUint64(nil, 0xabcdef01)...)
	f.Add(tracedSeed(7, OpRead, traceExtLen, ext, []byte("pay")))
	// A longer extension from a future peer: the tail must be skipped.
	f.Add(tracedSeed(7, OpRead, traceExtLen+4, append(ext, 1, 2, 3, 4), []byte("pay")))
	// Truncated extension: traced tag but body ends mid-extension.
	f.Add(tracedSeed(7, OpRead, traceExtLen, ext[:4], nil))
	// Undersized extension length word (below this version's fields).
	f.Add(tracedSeed(7, OpRead, 4, ext, []byte("pay")))
	// Extension length word pointing past the body.
	f.Add(tracedSeed(7, OpRead, 200, ext, nil))

	f.Fuzz(func(t *testing.T, stream []byte) {
		var pool framePool
		r := newFrameReader(bytes.NewReader(stream), &pool)
		for {
			id, tag, frame, payload, ext, err := r.read()
			if err != nil {
				if !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) &&
					!errors.Is(err, ErrFrameTooLarge) {
					t.Fatalf("unexpected error class: %v", err)
				}
				return
			}
			// A delivered frame must be self-consistent: the body we
			// decode from the raw bytes matches what read() reported.
			raw := *frame
			if len(raw) < 9 {
				t.Fatalf("delivered body of %d bytes, below the id+tag minimum", len(raw))
			}
			if got := binary.BigEndian.Uint64(raw); got != id {
				t.Fatalf("frame id %d != reported %d", got, id)
			}
			if tag&tagTraced != 0 {
				t.Fatalf("reported tag %#x still carries the traced bit", tag)
			}
			if raw[8]&^tagTraced != tag {
				t.Fatalf("frame tag %d != reported %d", raw[8], tag)
			}
			rest := raw[9:]
			if raw[8]&tagTraced != 0 {
				// A traced frame that survived read() must have a
				// well-formed extension, decoded and stripped.
				if !ext.present {
					t.Fatal("traced frame delivered without a decoded extension")
				}
				extLen := int(rest[0])
				if extLen < traceExtLen || 1+extLen > len(rest) {
					t.Fatalf("malformed extension (extLen=%d body=%d) was delivered", extLen, len(rest))
				}
				if ext.sampled != (rest[1]&traceFlagSampled != 0) {
					t.Fatalf("sampled flag %v disagrees with wire byte %#x", ext.sampled, rest[1])
				}
				if got := binary.BigEndian.Uint64(rest[2:]); got != ext.traceID {
					t.Fatalf("trace ID %#x != reported %#x", got, ext.traceID)
				}
				rest = rest[1+extLen:]
			} else if ext.present {
				t.Fatal("untraced frame delivered an extension")
			}
			if !bytes.Equal(rest, payload) {
				t.Fatal("payload does not alias frame body")
			}
			pool.put(frame)
		}
	})
}

// FuzzHandleBatch feeds arbitrary OpReadBatch and OpWriteBatch payloads
// through the daemon's request handler on a live session. The handler
// must never panic, and must either fail the request or answer with a
// frame that fits the wire — for a read batch, one well-formed record
// per record requested, each with its own status.
func FuzzHandleBatch(f *testing.F) {
	srv, err := NewPoolServer(ServerConfig{ID: 1, PoolBytes: 1 << 20})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(srv.Close)
	sess := srv.openSession()
	f.Cleanup(sess.close)

	home := func(off int64) uint64 { return uint64(region.MustGAddr(1, off)) }
	seed := func(read bool, fill func(w *payloadWriter)) {
		var w payloadWriter
		fill(&w)
		f.Add(read, w.Bytes())
	}
	seed(true, func(w *payloadWriter) { w.U32(2).U64(home(0)).U32(16).U64(home(4096)).U32(8) })
	seed(true, func(w *payloadWriter) {
		w.U32(3).U64(home(0)).U32(8).U64(uint64(region.MustGAddr(2, 0))).U32(8).U64(home(1<<20 - 4)).U32(8)
	})
	seed(true, func(w *payloadWriter) { w.U32(2).U64(home(0)).U32(maxFrame / 2).U64(home(0)).U32(maxFrame / 2) })
	seed(true, func(w *payloadWriter) { w.U32(1 << 31) })
	seed(false, func(w *payloadWriter) { w.U32(2).U64(home(64)).Blob([]byte("abc")).U64(home(128)).Blob(nil) })
	seed(false, func(w *payloadWriter) { w.U32(1).U64(home(1<<20 - 2)).Blob([]byte("overrun")) })
	seed(false, func(w *payloadWriter) { w.U32(5).U64(home(0)) })

	f.Fuzz(func(t *testing.T, read bool, payload []byte) {
		op := OpWriteBatch
		if read {
			op = OpReadBatch
		}
		resp, err := srv.handle(sess, op, newPayloadReader(payload), nil)
		if err != nil {
			if resp != nil {
				t.Fatalf("%v failed (%v) and still answered a frame", op, err)
			}
			return
		}
		if !read {
			if resp != nil {
				t.Fatalf("write batch answered a %d-byte payload, want none", len(*resp)-frameHeader)
			}
			return
		}
		if resp == nil || len(*resp) > maxFrame {
			t.Fatal("read batch answered no frame, or one larger than maxFrame")
		}
		reply := newPayloadReader((*resp)[frameHeader:])
		for n := newPayloadReader(payload).U32(); n > 0; n-- {
			if reply.U8() == statusOK {
				reply.Blob()
				reply.U8()
			} else {
				reply.Str()
			}
		}
		if reply.Err() != nil || reply.Len() != 0 {
			t.Fatalf("read batch reply does not hold one record per request: %v, %d bytes left", reply.Err(), reply.Len())
		}
		srv.frames.put(resp)
	})
}
