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
// The digest covers every byte before it. The payload is the
// internal/wire encoding of the state structs (ISSState,
// diag.MachineState, ooo.MachineState and every type they contain),
// derived from their field lists by wire's reflective walker; the wire
// package doc holds the rules. A state type's field list is therefore
// part of the format: adding or reordering a field needs a schema
// bump, and TestGolden fails until it gets one.
//
// Encoding is canonical: for any input that Decode accepts,
// re-encoding the result reproduces the input byte for byte. Decode
// never panics on arbitrary input, bounds its allocations by the input
// size, and rejects bad schema strings, digest mismatches,
// truncation, and trailing garbage with errors wrapping ErrFormat.
package snap

import (
	"errors"
	"fmt"
	"io"

	"diag/internal/diag"
	"diag/internal/iss"
	"diag/internal/mem"
	"diag/internal/ooo"
	"diag/internal/wire"
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
	b := make([]byte, 0, len(Schema)+1+wire.Size(payload)+8)
	b = append(b, Schema...)
	b = append(b, uint8(s.Kind))
	b, err := wire.Append(b, payload)
	if err != nil {
		return nil, err
	}
	return wire.Seal(b, 0), nil
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
	body := b[:len(b)-8]
	if !wire.Sealed(b, len(body)) {
		return nil, fmt.Errorf("%w: digest does not match contents", ErrFormat)
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
	enc := body[len(Schema)+1:]
	n, err := wire.Decode(enc, payload)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrFormat, err)
	}
	if n != len(enc) {
		return nil, fmt.Errorf("%w: %d trailing bytes after payload", ErrFormat, len(enc)-n)
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
