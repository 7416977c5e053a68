package journal

import (
	"bytes"
	"testing"
)

// FuzzScan feeds arbitrary bytes to Scan, the decoder that must survive
// any on-disk damage: a half-written record, a bit-rotted digest, or a
// file that was never a journal at all. The invariants mirror
// internal/snap's fuzzer:
//
//   - Scan never panics, whatever the input;
//   - the reported prefix lies inside the input and past the schema;
//   - rescanning the valid prefix is a fixed point: same prefix, same
//     state — so Resume's truncate-and-continue is idempotent;
//   - appending garbage never changes what the prefix decodes to.
func FuzzScan(f *testing.F) {
	f.Add([]byte(Schema))
	golden := goldenBytes(f)
	f.Add(golden)
	f.Add(golden[:len(Schema)+30])
	f.Add(append(append([]byte(nil), golden...), 0xde, 0xad))
	f.Add([]byte("diag-journal/v0 not this version"))
	empty, err := appendRecord([]byte(Schema), kindManifest, &struct{}{})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(empty)

	f.Fuzz(func(t *testing.T, b []byte) {
		st, n, err := Scan(b)
		if err != nil {
			if st != nil || n != 0 {
				t.Fatalf("failed Scan leaked state: st=%v n=%d", st, n)
			}
			return
		}
		if n < len(Schema) || n > len(b) {
			t.Fatalf("prefix %d outside [%d, %d]", n, len(Schema), len(b))
		}
		st2, n2, err2 := Scan(b[:n])
		if err2 != nil {
			t.Fatalf("rescan of valid prefix failed: %v", err2)
		}
		if n2 != n {
			t.Fatalf("rescan prefix %d != original %d", n2, n)
		}
		if !statesEqualFuzz(st, st2) {
			t.Fatal("rescan of valid prefix decoded different state")
		}
		// Garbage past the prefix must not perturb the decode.
		st3, n3, err3 := Scan(append(append([]byte(nil), b[:n]...), 0x00, 0xff, 0x55))
		if err3 != nil || n3 != n || !statesEqualFuzz(st, st3) {
			t.Fatalf("trailing garbage changed decode: n=%d err=%v", n3, err3)
		}
	})
}

func statesEqualFuzz(a, b *State) bool {
	if a.Manifest != b.Manifest || len(a.Sweeps) != len(b.Sweeps) {
		return false
	}
	for i := range a.Sweeps {
		x, y := a.Sweeps[i], b.Sweeps[i]
		if x.Ordinal != y.Ordinal || x.Jobs != y.Jobs || x.Label != y.Label ||
			len(x.Done) != len(y.Done) || len(x.Failed) != len(y.Failed) ||
			len(x.started) != len(y.started) {
			return false
		}
		for k, v := range x.Done {
			if !bytes.Equal(y.Done[k], v) {
				return false
			}
		}
		for k, v := range x.Failed {
			if y.Failed[k] != v {
				return false
			}
		}
		for k := range x.started {
			if !y.started[k] {
				return false
			}
		}
	}
	return true
}
