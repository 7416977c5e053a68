// Package snap serializes full-machine state for deterministic
// checkpoint/restore. A snapshot captures everything a machine's future
// behaviour depends on — architectural state, timing scoreboards, cache
// and predictor contents, statistics, and memory — so that restoring it
// and running to completion produces exactly the cycles, statistics,
// memory digest, and observer events of an uninterrupted run.
//
// The binary format, schema "diag-snap/v1", is
//
//	[12-byte schema string][kind u8][payload][FNV-1a-64 digest u64]
//
// The digest covers every byte before it. The payload is derived from
// the state structs (ISSState, diag.MachineState, ooo.MachineState and
// every type they contain) by one reflective walker:
//
//   - struct fields go in declaration order;
//   - bool and uint8 take 1 byte; uint32 and int32 take 4; uint64,
//     int64 and int take 8, little-endian;
//   - strings and slices take a u32 length, then their bytes or
//     elements;
//   - arrays take their elements with no length, and a pointer encodes
//     what it points to;
//   - any other kind, and any unexported field, is an error.
//
// A state type's field list is therefore part of the format: adding or
// reordering a field needs a schema bump, and TestGolden fails until it
// gets one.
//
// Encoding is canonical: for any input that Decode accepts,
// re-encoding the result reproduces the input byte for byte. Decode
// never panics on arbitrary input — every slice length is checked
// against the remaining input at the smallest encoding of its element
// type before allocation — and rejects bad schema strings, digest
// mismatches, truncation, and trailing garbage with errors wrapping
// ErrFormat.
package snap

import (
	"errors"
	"fmt"
	"io"
	"reflect"

	"diag/internal/diag"
	"diag/internal/iss"
	"diag/internal/mem"
	"diag/internal/ooo"
)

// Schema identifies the snapshot format. It is exactly 12 bytes and is
// written verbatim at the start of every snapshot; any change to the
// encoding must bump the version suffix.
const Schema = "diag-snap/v1"

// ErrFormat is wrapped by every Decode failure: unrecognized schema,
// digest mismatch, truncated or oversized fields, and trailing bytes.
var ErrFormat = errors.New("snap: malformed snapshot")

// Kind identifies which machine a snapshot captures.
type Kind uint8

// Snapshot kinds.
const (
	KindISS  Kind = 1 // golden instruction-set simulator
	KindDiAG Kind = 2 // DiAG dataflow-ring machine
	KindOoO  Kind = 3 // out-of-order baseline machine
)

func (k Kind) String() string {
	switch k {
	case KindISS:
		return "iss"
	case KindDiAG:
		return "diag"
	case KindOoO:
		return "ooo"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// ISSState is a serializable copy of a bare ISS run: the hart's
// architectural state plus memory. The ISS has no timing state.
// Field order is diag-snap/v1: a new or moved field needs a schema bump.
type ISSState struct {
	CPU iss.CPUState
	Mem mem.State
}

// Snapshot is one machine's complete captured state. Exactly one of the
// three payload fields is non-nil, matching Kind.
type Snapshot struct {
	Kind Kind
	ISS  *ISSState
	DiAG *diag.MachineState
	OoO  *ooo.MachineState
}

// fnv1a is the 64-bit FNV-1a hash of b (the snapshot trailer digest).
func fnv1a(b []byte) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for _, c := range b {
		h ^= uint64(c)
		h *= prime
	}
	return h
}

// Encode serializes s into one buffer, sized exactly by a first pass
// over the state. It fails when s.Kind is unknown or the payload field
// does not match the kind.
func Encode(s *Snapshot) ([]byte, error) {
	var payload any
	switch s.Kind {
	case KindISS:
		if s.ISS == nil {
			return nil, fmt.Errorf("snap: ISS snapshot has no ISS state")
		}
		payload = s.ISS
	case KindDiAG:
		if s.DiAG == nil {
			return nil, fmt.Errorf("snap: DiAG snapshot has no DiAG state")
		}
		payload = s.DiAG
	case KindOoO:
		if s.OoO == nil {
			return nil, fmt.Errorf("snap: OoO snapshot has no OoO state")
		}
		payload = s.OoO
	default:
		return nil, fmt.Errorf("snap: unknown snapshot kind %d", s.Kind)
	}
	v := reflect.ValueOf(payload)
	w := &writer{b: make([]byte, 0, len(Schema)+1+size(v)+8)}
	w.b = append(w.b, Schema...)
	w.u8(uint8(s.Kind))
	w.put(v)
	if w.err != nil {
		return nil, w.err
	}
	w.u64(fnv1a(w.b))
	return w.b, nil
}

// Decode deserializes a snapshot produced by Encode. It is safe on
// arbitrary input: malformed data yields an error wrapping ErrFormat,
// never a panic.
func Decode(b []byte) (*Snapshot, error) {
	if len(b) < len(Schema)+1+8 {
		return nil, fmt.Errorf("%w: %d bytes is shorter than the fixed header and trailer", ErrFormat, len(b))
	}
	if string(b[:len(Schema)]) != Schema {
		return nil, fmt.Errorf("%w: schema %q is not %q", ErrFormat, b[:len(Schema)], Schema)
	}
	body, trailer := b[:len(b)-8], b[len(b)-8:]
	want := uint64(trailer[0]) | uint64(trailer[1])<<8 | uint64(trailer[2])<<16 | uint64(trailer[3])<<24 |
		uint64(trailer[4])<<32 | uint64(trailer[5])<<40 | uint64(trailer[6])<<48 | uint64(trailer[7])<<56
	if got := fnv1a(body); got != want {
		return nil, fmt.Errorf("%w: digest %#x does not match contents (%#x)", ErrFormat, want, got)
	}
	s := &Snapshot{Kind: Kind(body[len(Schema)])}
	var payload any
	switch s.Kind {
	case KindISS:
		payload = &s.ISS
	case KindDiAG:
		payload = &s.DiAG
	case KindOoO:
		payload = &s.OoO
	default:
		return nil, fmt.Errorf("%w: unknown snapshot kind %d", ErrFormat, s.Kind)
	}
	r := &reader{b: body, off: len(Schema) + 1}
	r.get(reflect.ValueOf(payload).Elem())
	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(r.b) {
		return nil, fmt.Errorf("%w: %d trailing bytes after payload", ErrFormat, len(r.b)-r.off)
	}
	return s, nil
}

// Load reads a complete snapshot from r and decodes it.
func Load(r io.Reader) (*Snapshot, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return Decode(b)
}
