package snap

import (
	"bytes"
	"errors"
	"testing"

	"diag/internal/diag"
	"diag/internal/ooo"
	"diag/internal/wire"
)

// reseal returns a copy of b whose trailer is the digest of its body,
// so a mutated snapshot reaches the parser instead of stopping at the
// digest check.
func reseal(b []byte) []byte {
	if len(b) < 8 {
		return append([]byte(nil), b...)
	}
	return wire.Seal(append([]byte(nil), b[:len(b)-8]...), 0)
}

// FuzzDecode asserts the decoder's safety properties on arbitrary
// input: it never panics, every rejection wraps ErrFormat, and anything
// it accepts re-encodes to exactly the input (the format is canonical).
// Each input is decoded as given and again with a recomputed trailer:
// almost every mutation breaks the digest, and only the resealed copy
// exercises the length checks behind it.
func FuzzDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte(Schema))
	f.Add([]byte(Schema + "\x01"))
	seed := &Snapshot{Kind: KindISS, ISS: &ISSState{}}
	if b, err := Encode(seed); err == nil {
		f.Add(b)
		// A flipped length byte deep in the payload.
		bad := append([]byte(nil), b...)
		if len(bad) > 40 {
			bad[40] ^= 0x80
		}
		f.Add(bad)
	}
	for _, s := range []*Snapshot{
		{Kind: KindDiAG, DiAG: &diag.MachineState{}},
		{Kind: KindOoO, OoO: &ooo.MachineState{}},
	} {
		if b, err := Encode(s); err == nil {
			f.Add(b)
		}
	}
	check := func(t *testing.T, b []byte) {
		s, err := Decode(b)
		if err != nil {
			if !errors.Is(err, ErrFormat) {
				t.Fatalf("rejection does not wrap ErrFormat: %v", err)
			}
			return
		}
		b2, err := Encode(s)
		if err != nil {
			t.Fatalf("decoded snapshot failed to re-encode: %v", err)
		}
		if !bytes.Equal(b, b2) {
			t.Fatalf("re-encode is not canonical: %d bytes in, %d out", len(b), len(b2))
		}
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		check(t, b)
		check(t, reseal(b))
	})
}
