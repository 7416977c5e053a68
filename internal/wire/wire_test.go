package wire

import (
	"bytes"
	"testing"
)

// TestEmptySliceDecodesNil pins that a zero-length slice or byte field
// decodes as nil, so decode-then-encode is canonical.
func TestEmptySliceDecodesNil(t *testing.T) {
	b, err := Append(nil, &struct{ Raw []byte }{Raw: []byte{}})
	if err != nil {
		t.Fatal(err)
	}
	var out struct{ Raw []byte }
	if _, err := Decode(b, &out); err != nil || out.Raw != nil {
		t.Errorf("Raw = %#v, err = %v; want nil", out.Raw, err)
	}
}

// TestWalkerRejectsUnsupported checks that a kind outside the rules or
// an unexported field is an error in both directions, never a panic.
func TestWalkerRejectsUnsupported(t *testing.T) {
	type unexported struct{ n int }
	for _, v := range []any{&struct{ F float64 }{}, &unexported{}, &struct{ M map[int]int }{}, &struct{ P *int }{}} {
		if _, err := Append(nil, v); err == nil {
			t.Errorf("encode %T: no error", v)
		}
		if _, ok := v.(*struct{ P *int }); ok {
			continue // a nil pointer is an encode error only
		}
		if _, err := Decode(make([]byte, 64), v); err == nil {
			t.Errorf("decode %T: no error", v)
		}
	}
}

func TestFNV1a(t *testing.T) {
	// Published FNV-1a-64 test vectors.
	for in, want := range map[string]uint64{"": 0xcbf29ce484222325, "a": 0xaf63dc4c8601ec8c, "foobar": 0x85944171f73967e8} {
		if got := FNV1a(FNVBasis, []byte(in)); got != want {
			t.Errorf("FNV1a(%q) = %#x, want %#x", in, got, want)
		}
	}
	if FNV1a(FNV1a(FNVBasis, []byte("foo")), []byte("bar")) != FNV1a(FNVBasis, []byte("foobar")) {
		t.Error("folding pieces differs from hashing the concatenation")
	}
}

func TestSeal(t *testing.T) {
	b := Seal([]byte("hdr:body"), 4)
	if len(b) != 16 || !Sealed(b[4:], 4) {
		t.Fatalf("Sealed rejects a sealed body: % x", b)
	}
	if !bytes.Equal(b[:8], []byte("hdr:body")) {
		t.Errorf("Seal changed the body: %q", b[:8])
	}
	for _, n := range []int{-1, 3, 5, 12} {
		if Sealed(b[4:], n) {
			t.Errorf("Sealed(b, %d) accepted a wrong split", n)
		}
	}
	b[5] ^= 1
	if Sealed(b[4:], 4) {
		t.Error("Sealed accepted a flipped body bit")
	}
}
