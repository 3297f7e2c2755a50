// Package wire is the federation wire protocol: a compact, versioned,
// length-prefixed binary codec for everything that crosses a machine
// boundary in a federated run — control-plane synchronization messages,
// per-shard setup distribution, and the data-plane tunnel messages
// (including eager-mode pre-announcements) that carry packets between core
// processes.
//
// Every frame is
//
//	[ length u32 | version u8 | type u8 | body ]
//
// where length counts the version, type, and body bytes. Bodies are encoded
// with the fixed-width little-endian cursors below; decoding is total — a
// truncated, oversized, or corrupt frame produces an error, never a panic
// (the fuzz tests pin this).
package wire

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Version is the protocol version; peers with a different version are
// rejected at the first frame. Version 10 has one barrier round, one data
// frame and one setup: the coordinator sends each worker a TStep (await +
// apply + run or drain + flush, parcore.Shard.Step) and reads back a
// TStepDone (send counters, drain progress, post-step bounds), plus a
// TCheckpoint digest when the step asked for one; workers exchange tunnel
// messages as TDataBatch frames only. Setup travels to every worker as
// chunked per-shard sections (TSetupChunk), and every worker demand-pages
// route summaries with TRouteReq/TRouteResp; TFail, TRecover and TResend
// drive fault injection, respawn and send-log retransmission.
const Version = 10

// MaxFrame bounds a frame's length field: anything larger is treated as
// corruption rather than an allocation request.
const MaxFrame = 64 << 20

// Frame types. Control types travel coordinator<->worker over TCP;
// TDataBatch and TResend travel worker<->worker on the data plane. Numbers
// retired with earlier protocol versions are not reused (2 was TSetup, the
// whole-world setup frame, until version 10).
const (
	THello      uint8 = 1  // worker -> coordinator: join (JSON body)
	TSetupAck   uint8 = 3  // worker -> coordinator: mesh + gateway up (JSON body)
	TFinish     uint8 = 12 // coordinator -> worker: stop and report
	TReport     uint8 = 13 // worker -> coordinator: final report (JSON body)
	TError      uint8 = 14 // either direction: fatal error (text body)
	TDataBatch  uint8 = 16 // worker -> worker: a dense run of tunnel messages
	TTrace      uint8 = 17 // worker -> coordinator: a chunk of trace events (before TReport)
	TStep       uint8 = 18 // coordinator -> worker: one barrier round (await + apply + run + flush)
	TStepDone   uint8 = 19 // worker -> coordinator: step complete: counts + post-step bounds
	TSetupChunk uint8 = 20 // coordinator -> worker: one chunk of a setup section
	TRouteReq   uint8 = 21 // worker -> coordinator: demand-page one route summary (epoch, target)
	TRouteResp  uint8 = 22 // coordinator -> worker: the requested summary distances
	TCheckpoint uint8 = 23 // worker -> coordinator: canonical shard state digest at a flagged barrier
	TFail       uint8 = 24 // coordinator -> worker: fault injection: die at barrier N (first boot only)
	TRecover    uint8 = 25 // coordinator -> worker: respawn notice, ahead of the replayed setup
	TResend     uint8 = 27 // worker -> worker: a respawned peer asks for the whole send log
)

const headerBytes = 6 // u32 length + u8 version + u8 type

// oversizeErr names the limit loudly: a body this large means a setup or
// batch producer failed to chunk, and the receiver would reject the length
// field as corruption — so the sender fails first, with the real cause.
func oversizeErr(typ uint8, n int) error {
	return fmt.Errorf("wire: frame type %d body is %d bytes, exceeding MaxFrame (%d bytes / 64MB); the payload must be chunked (TSetupChunk / TDataBatch), not sent as one frame", typ, n, MaxFrame)
}

// AppendFrame appends a complete frame to dst and returns the result. It
// panics on a body that exceeds MaxFrame — senders with an error path should
// use WriteFrame or check CheckFrameSize first.
func AppendFrame(dst []byte, typ uint8, body []byte) []byte {
	if err := CheckFrameSize(typ, body); err != nil {
		panic(err)
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(body)+2))
	dst = append(dst, Version, typ)
	return append(dst, body...)
}

// CheckFrameSize reports whether body fits in one frame under MaxFrame.
func CheckFrameSize(typ uint8, body []byte) error {
	if len(body)+2 > MaxFrame {
		return oversizeErr(typ, len(body))
	}
	return nil
}

// WriteFrame writes one frame to w, rejecting oversize bodies with an
// explicit error instead of emitting a frame the peer will treat as corrupt.
func WriteFrame(w io.Writer, typ uint8, body []byte) error {
	if err := CheckFrameSize(typ, body); err != nil {
		return err
	}
	buf := AppendFrame(make([]byte, 0, headerBytes+len(body)), typ, body)
	_, err := w.Write(buf)
	return err
}

// ReadFrame reads one frame from a stream.
func ReadFrame(r io.Reader) (typ uint8, body []byte, err error) {
	var hdr [headerBytes]byte
	if _, err := io.ReadFull(r, hdr[:4]); err != nil {
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:4])
	if n < 2 || n > MaxFrame {
		return 0, nil, fmt.Errorf("wire: frame length %d out of range", n)
	}
	rest := make([]byte, n)
	if _, err := io.ReadFull(r, rest); err != nil {
		return 0, nil, fmt.Errorf("wire: short frame: %w", err)
	}
	if rest[0] != Version {
		return 0, nil, fmt.Errorf("wire: version %d, want %d", rest[0], Version)
	}
	return rest[1], rest[2:], nil
}

// ParseFrame decodes one datagram-framed frame (the UDP data plane, where
// the transport preserves message boundaries).
func ParseFrame(b []byte) (typ uint8, body []byte, err error) {
	if len(b) < headerBytes {
		return 0, nil, fmt.Errorf("wire: datagram %d bytes, need at least %d", len(b), headerBytes)
	}
	n := binary.LittleEndian.Uint32(b[:4])
	if n < 2 || n > MaxFrame || int(n) != len(b)-4 {
		return 0, nil, fmt.Errorf("wire: datagram length field %d does not match %d payload bytes", n, len(b)-4)
	}
	if b[4] != Version {
		return 0, nil, fmt.Errorf("wire: version %d, want %d", b[4], Version)
	}
	return b[5], b[6:], nil
}

// Enc is an append-only little-endian encoder.
type Enc struct {
	b            []byte
	payloadDepth int
}

// Bytes returns the encoded buffer.
func (e *Enc) Bytes() []byte { return e.b }

// U8 appends one byte.
func (e *Enc) U8(v uint8) { e.b = append(e.b, v) }

// Bool appends a boolean as one byte.
func (e *Enc) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// U16 appends a uint16.
func (e *Enc) U16(v uint16) { e.b = binary.LittleEndian.AppendUint16(e.b, v) }

// U32 appends a uint32.
func (e *Enc) U32(v uint32) { e.b = binary.LittleEndian.AppendUint32(e.b, v) }

// U64 appends a uint64.
func (e *Enc) U64(v uint64) { e.b = binary.LittleEndian.AppendUint64(e.b, v) }

// I32 appends an int32.
func (e *Enc) I32(v int32) { e.U32(uint32(v)) }

// I64 appends an int64.
func (e *Enc) I64(v int64) { e.U64(uint64(v)) }

// F64 appends a float64 bit-exactly.
func (e *Enc) F64(v float64) { e.U64(math.Float64bits(v)) }

// Blob appends a u32-length-prefixed byte string.
func (e *Enc) Blob(v []byte) {
	e.U32(uint32(len(v)))
	e.b = append(e.b, v...)
}

// Str appends a u32-length-prefixed string.
func (e *Enc) Str(v string) {
	e.U32(uint32(len(v)))
	e.b = append(e.b, v...)
}

// Dec is a bounds-checked little-endian decoder with a sticky error:
// reading past the end sets the error and returns zero values, so codecs
// can decode unconditionally and check once.
type Dec struct {
	b            []byte
	off          int
	err          error
	payloadDepth int
}

// NewDec returns a decoder over b.
func NewDec(b []byte) *Dec { return &Dec{b: b} }

// Err returns the sticky error.
func (d *Dec) Err() error { return d.err }

func (d *Dec) fail(need int) {
	if d.err == nil {
		d.err = fmt.Errorf("wire: truncated: need %d bytes at offset %d of %d", need, d.off, len(d.b))
	}
}

func (d *Dec) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || len(d.b)-d.off < n {
		d.fail(n)
		return nil
	}
	s := d.b[d.off : d.off+n]
	d.off += n
	return s
}

// U8 reads one byte.
func (d *Dec) U8() uint8 {
	s := d.take(1)
	if s == nil {
		return 0
	}
	return s[0]
}

// StrictBool reads a boolean byte accepting only the canonical encodings 0
// and 1. Payload codecs use it: under the canonicality contract a decoder
// must reject any byte its encoder would not emit.
func (d *Dec) StrictBool() (bool, error) {
	switch b := d.U8(); b {
	case 0:
		return false, nil
	case 1:
		return true, nil
	default:
		return false, fmt.Errorf("wire: non-canonical boolean byte %d", b)
	}
}

// U16 reads a uint16.
func (d *Dec) U16() uint16 {
	s := d.take(2)
	if s == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(s)
}

// U32 reads a uint32.
func (d *Dec) U32() uint32 {
	s := d.take(4)
	if s == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(s)
}

// U64 reads a uint64.
func (d *Dec) U64() uint64 {
	s := d.take(8)
	if s == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(s)
}

// I32 reads an int32.
func (d *Dec) I32() int32 { return int32(d.U32()) }

// I64 reads an int64.
func (d *Dec) I64() int64 { return int64(d.U64()) }

// F64 reads a float64.
func (d *Dec) F64() float64 { return math.Float64frombits(d.U64()) }

// Blob reads a u32-length-prefixed byte string. The result aliases the
// input buffer.
func (d *Dec) Blob() []byte {
	n := d.U32()
	if n > MaxFrame {
		d.fail(int(n))
		return nil
	}
	return d.take(int(n))
}

// Str reads a u32-length-prefixed string.
func (d *Dec) Str() string { return string(d.Blob()) }

// Len reads a u32 element count, bounds-checked against the bytes that
// remain assuming at least elemBytes per element — a corrupt count fails
// here instead of provoking a huge allocation.
func (d *Dec) Len(elemBytes int) int {
	n := d.U32()
	if d.err != nil {
		return 0
	}
	if elemBytes < 1 {
		elemBytes = 1
	}
	if int(n) > (len(d.b)-d.off)/elemBytes {
		d.fail(int(n) * elemBytes)
		return 0
	}
	return int(n)
}

// Done checks that decoding consumed the whole buffer cleanly.
func (d *Dec) Done() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.b) {
		return fmt.Errorf("wire: %d trailing bytes after message", len(d.b)-d.off)
	}
	return nil
}
