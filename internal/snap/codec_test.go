package snap

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
)

// fill sets every field reachable from v: each integer to a distinct
// non-zero value (negative for signed kinds), each bool to true, each
// string non-empty, and each slice to two elements, recursively.
func fill(t *testing.T, v reflect.Value, n *uint64) {
	t.Helper()
	*n++
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Uint8:
		v.SetUint(*n%255 + 1)
	case reflect.Uint32, reflect.Uint64:
		v.SetUint(*n)
	case reflect.Int32, reflect.Int64, reflect.Int:
		v.SetInt(-int64(*n))
	case reflect.String:
		v.SetString(fmt.Sprintf("s%d", *n))
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		fallthrough
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			fill(t, v.Index(i), n)
		}
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fill(t, v.Elem(), n)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fill(t, v.Field(i), n)
		}
	default:
		t.Fatalf("fill: unsupported %s", v.Type())
	}
}

// TestRoundTripEveryField round-trips snapshots whose every field is
// set, so the element path of every slice type is exercised — also the
// ones real snapshots leave empty, such as SpecTargets and FPUs on
// configurations without speculative datapaths or shared FPUs.
func TestRoundTripEveryField(t *testing.T) {
	for _, s := range []*Snapshot{{Kind: KindISS}, {Kind: KindDiAG}, {Kind: KindOoO}} {
		var n uint64
		switch s.Kind {
		case KindISS:
			fill(t, reflect.ValueOf(&s.ISS).Elem(), &n)
		case KindDiAG:
			fill(t, reflect.ValueOf(&s.DiAG).Elem(), &n)
		case KindOoO:
			fill(t, reflect.ValueOf(&s.OoO).Elem(), &n)
		}
		b, err := Encode(s)
		if err != nil {
			t.Fatalf("%s: encode: %v", s.Kind, err)
		}
		if cap(b) != len(b) {
			t.Errorf("%s: size pass gave %d bytes, encoding has %d", s.Kind, cap(b), len(b))
		}
		got, err := Decode(b)
		if err != nil {
			t.Fatalf("%s: decode: %v", s.Kind, err)
		}
		if !reflect.DeepEqual(s, got) {
			t.Errorf("%s: decoded snapshot differs from the filled original", s.Kind)
		}
	}
}

// prefix is one u32 length prefix in an encoding: its byte offset and
// the smallest encoding of one element it counts.
type prefix struct{ off, elemMin int }

// lengthPrefixes appends every length prefix (of a string or slice) in
// the encoding of v, which starts at *off.
func lengthPrefixes(v reflect.Value, off *int, out *[]prefix) {
	switch v.Kind() {
	case reflect.Bool, reflect.Uint8:
		*off++
	case reflect.Uint32, reflect.Int32:
		*off += 4
	case reflect.Uint64, reflect.Int64, reflect.Int:
		*off += 8
	case reflect.String:
		*out = append(*out, prefix{*off, 1})
		*off += 4 + v.Len()
	case reflect.Slice, reflect.Array:
		if v.Kind() == reflect.Slice {
			*out = append(*out, prefix{*off, max(minSize(v.Type().Elem()), 1)})
			*off += 4
		}
		if v.Type().Elem().Kind() == reflect.Uint8 {
			*off += v.Len()
			return
		}
		for i := 0; i < v.Len(); i++ {
			lengthPrefixes(v.Index(i), off, out)
		}
	case reflect.Pointer:
		lengthPrefixes(v.Elem(), off, out)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			lengthPrefixes(v.Field(i), off, out)
		}
	}
}

// TestDecodeCorruptLengths rewrites every length prefix of each golden
// snapshot to a count whose elements cannot fit in the rest of the
// input, recomputes the trailer so the corruption gets past the digest
// check, and requires Decode to reject the result with ErrFormat while
// allocating no more than a small multiple of the input size. The
// counts tried are the smallest that cannot fit, the input size, and
// the largest u32.
func TestDecodeCorruptLengths(t *testing.T) {
	for _, name := range []string{"iss.snap", "diag.snap", "ooo.snap"} {
		good, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		s, err := Decode(good)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		payload := map[Kind]any{KindISS: s.ISS, KindDiAG: s.DiAG, KindOoO: s.OoO}[s.Kind]
		end := len(Schema) + 1
		var prefixes []prefix
		lengthPrefixes(reflect.ValueOf(payload), &end, &prefixes)
		if end != len(good)-8 || len(prefixes) == 0 {
			t.Fatalf("%s: walked %d of %d payload bytes, %d length prefixes", name, end, len(good)-8, len(prefixes))
		}
		limit := uint64(4*len(good) + 1<<16)
		for _, p := range prefixes {
			left := end - (p.off + 4)
			for _, n := range []uint32{uint32(left/p.elemMin + 1), uint32(len(good)), ^uint32(0)} {
				b := append([]byte(nil), good...)
				b[p.off], b[p.off+1], b[p.off+2], b[p.off+3] = byte(n), byte(n>>8), byte(n>>16), byte(n>>24)
				b = reseal(b)
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				_, err := Decode(b)
				runtime.ReadMemStats(&after)
				if !errors.Is(err, ErrFormat) {
					t.Errorf("%s: length %d at offset %d: err = %v, want ErrFormat", name, n, p.off, err)
				}
				if alloc := after.TotalAlloc - before.TotalAlloc; alloc > limit {
					t.Errorf("%s: length %d at offset %d: Decode allocated %d bytes for %d bytes of input (limit %d)",
						name, n, p.off, alloc, len(b), limit)
				}
			}
		}
	}
}

// TestEncodeAllocatesOnce pins Encode to one buffer sized by the size
// pass: on each golden snapshot it makes at most a handful of
// allocations, allocates within 1.1x the output length, and fills the
// buffer exactly.
func TestEncodeAllocatesOnce(t *testing.T) {
	for _, name := range []string{"iss.snap", "diag.snap", "ooo.snap"} {
		good, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		s, err := Decode(good)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b, err := Encode(s)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if cap(b) != len(b) {
			t.Errorf("%s: size pass gave %d bytes, encoding has %d", name, cap(b), len(b))
		}
		if allocs := testing.AllocsPerRun(5, func() { Encode(s) }); allocs > 3 {
			t.Errorf("%s: Encode makes %.0f allocations, want at most 3", name, allocs)
		}
		const runs = 5
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			Encode(s)
		}
		runtime.ReadMemStats(&after)
		if per := (after.TotalAlloc - before.TotalAlloc) / runs; float64(per) > 1.1*float64(len(good)) {
			t.Errorf("%s: Encode allocates %d bytes for %d bytes of output", name, per, len(good))
		}
	}
}

// TestWalkerRejectsUnsupported checks that a kind outside the format or
// an unexported field is an error in both directions, never a panic.
func TestWalkerRejectsUnsupported(t *testing.T) {
	type unexported struct{ n int }
	for _, v := range []any{&struct{ F float64 }{}, &unexported{}, &struct{ M map[int]int }{}} {
		w := &writer{}
		w.put(reflect.ValueOf(v))
		if w.err == nil {
			t.Errorf("encode %T: no error", v)
		}
		r := &reader{b: make([]byte, 64)}
		r.get(reflect.ValueOf(v).Elem())
		if !errors.Is(r.err, ErrFormat) {
			t.Errorf("decode %T: err = %v, want ErrFormat", v, r.err)
		}
	}
}
