package snap

import (
	"fmt"
	"reflect"
)

// writer appends fixed-order little-endian fields to a byte slice, with
// a sticky error for state types the format cannot carry.
type writer struct {
	b   []byte
	err error
}

func (w *writer) u8(v uint8) { w.b = append(w.b, v) }

func (w *writer) bl(v bool) {
	if v {
		w.u8(1)
	} else {
		w.u8(0)
	}
}

func (w *writer) u32(v uint32) {
	w.b = append(w.b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func (w *writer) u64(v uint64) {
	w.b = append(w.b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

func (w *writer) str(s string) {
	w.u32(uint32(len(s)))
	w.b = append(w.b, s...)
}

// put appends the encoding of v under the package's derivation rules.
func (w *writer) put(v reflect.Value) {
	if w.err != nil {
		return
	}
	switch v.Kind() {
	case reflect.Bool:
		w.bl(v.Bool())
	case reflect.Uint8:
		w.u8(uint8(v.Uint()))
	case reflect.Uint32:
		w.u32(uint32(v.Uint()))
	case reflect.Int32:
		w.u32(uint32(v.Int()))
	case reflect.Uint64:
		w.u64(v.Uint())
	case reflect.Int64, reflect.Int:
		w.u64(uint64(v.Int()))
	case reflect.String:
		w.str(v.String())
	case reflect.Slice:
		w.u32(uint32(v.Len()))
		w.elems(v)
	case reflect.Array:
		w.elems(v)
	case reflect.Pointer:
		if v.IsNil() {
			w.err = fmt.Errorf("snap: nil %s", v.Type())
			return
		}
		w.put(v.Elem())
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f := v.Field(i)
			if !f.CanInterface() { // unexported
				w.err = fmt.Errorf("snap: %s.%s is unexported", v.Type(), v.Type().Field(i).Name)
				return
			}
			w.put(f)
		}
	default:
		w.err = fmt.Errorf("snap: cannot encode %s", v.Type())
	}
}

// elems appends the elements of a slice or array, bytes in one copy
// (Encode starts from a pointer, so every array is addressable).
func (w *writer) elems(v reflect.Value) {
	if v.Type().Elem().Kind() == reflect.Uint8 {
		w.b = append(w.b, v.Bytes()...)
		return
	}
	for i := 0; i < v.Len(); i++ {
		w.put(v.Index(i))
	}
}

// size is the exact length of v's encoding, so that Encode allocates its
// buffer once. A kind put rejects counts 0; put reports the error.
func size(v reflect.Value) int {
	switch v.Kind() {
	case reflect.String:
		return 4 + v.Len()
	case reflect.Slice:
		return 4 + elemsSize(v)
	case reflect.Array:
		return elemsSize(v)
	case reflect.Pointer:
		if v.IsNil() {
			return 0
		}
		return size(v.Elem())
	case reflect.Struct:
		n := 0
		for i := 0; i < v.NumField(); i++ {
			n += size(v.Field(i))
		}
		return n
	}
	return minSize(v.Type())
}

// elemsSize is the encoded length of a slice's or array's elements:
// one multiplication when every element encodes to the same size.
func elemsSize(v reflect.Value) int {
	if t := v.Type().Elem(); fixedSize(t) {
		return v.Len() * minSize(t)
	}
	n := 0
	for i := 0; i < v.Len(); i++ {
		n += size(v.Index(i))
	}
	return n
}

// fixedSize reports that every value of type t encodes to minSize(t)
// bytes: t holds no string or slice.
func fixedSize(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.String, reflect.Slice:
		return false
	case reflect.Array, reflect.Pointer:
		return fixedSize(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if !fixedSize(t.Field(i).Type) {
				return false
			}
		}
	}
	return true
}

// reader consumes fixed-order little-endian fields with a sticky error:
// after the first failure every read returns zero values and the
// decoder unwinds without touching out-of-bounds memory.
type reader struct {
	b   []byte
	off int
	err error
}

func (r *reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: "+format, append([]any{ErrFormat}, args...)...)
	}
}

// take returns the next n bytes, or nil after setting the sticky error.
func (r *reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.b)-r.off {
		r.fail("field of %d bytes overruns input (offset %d of %d)", n, r.off, len(r.b))
		return nil
	}
	b := r.b[r.off : r.off+n]
	r.off += n
	return b
}

func (r *reader) u8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *reader) bl() bool {
	switch v := r.u8(); v {
	case 0:
		return false
	case 1:
		return true
	default:
		r.fail("boolean byte %d is not 0 or 1", v)
		return false
	}
}

func (r *reader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func (r *reader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

func (r *reader) str() string {
	n := r.u32()
	if uint64(n) > uint64(len(r.b)-r.off) {
		r.fail("string of %d bytes overruns input", n)
		return ""
	}
	return string(r.take(int(n)))
}

// count reads a slice length and validates that elemMin bytes per
// element fit in the remaining input, bounding every allocation by the
// input size.
func (r *reader) count(elemMin int) int {
	n := r.u32()
	if r.err != nil {
		return 0
	}
	if uint64(n)*uint64(elemMin) > uint64(len(r.b)-r.off) {
		r.fail("%d elements of at least %d bytes overrun input (%d bytes left)", n, elemMin, len(r.b)-r.off)
		return 0
	}
	return int(n)
}

// get decodes into v (settable) under the package's derivation rules.
// An empty slice decodes as nil.
func (r *reader) get(v reflect.Value) {
	if r.err != nil {
		return
	}
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(r.bl())
	case reflect.Uint8:
		v.SetUint(uint64(r.u8()))
	case reflect.Uint32:
		v.SetUint(uint64(r.u32()))
	case reflect.Int32:
		v.SetInt(int64(int32(r.u32())))
	case reflect.Uint64:
		v.SetUint(r.u64())
	case reflect.Int64, reflect.Int:
		v.SetInt(int64(r.u64()))
	case reflect.String:
		v.SetString(r.str())
	case reflect.Slice:
		if n := r.count(max(minSize(v.Type().Elem()), 1)); n > 0 {
			v.Set(reflect.MakeSlice(v.Type(), n, n))
			r.elems(v)
		}
	case reflect.Array:
		r.elems(v)
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		r.get(v.Elem())
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f := v.Field(i)
			if !f.CanSet() { // unexported
				r.fail("%s.%s is unexported", v.Type(), v.Type().Field(i).Name)
				return
			}
			r.get(f)
		}
	default:
		r.fail("cannot decode %s", v.Type())
	}
}

// elems decodes the elements of a slice or array, bytes in one copy.
func (r *reader) elems(v reflect.Value) {
	if v.Type().Elem().Kind() == reflect.Uint8 {
		copy(v.Bytes(), r.take(v.Len()))
		return
	}
	for i := 0; i < v.Len() && r.err == nil; i++ {
		r.get(v.Index(i))
	}
}

// minSize is the smallest encoding of a value of type t: the bound
// count checks a slice length against before allocating.
func minSize(t reflect.Type) int {
	switch t.Kind() {
	case reflect.Bool, reflect.Uint8:
		return 1
	case reflect.Uint32, reflect.Int32, reflect.String, reflect.Slice:
		return 4
	case reflect.Uint64, reflect.Int64, reflect.Int:
		return 8
	case reflect.Array:
		return t.Len() * minSize(t.Elem())
	case reflect.Pointer:
		return minSize(t.Elem())
	case reflect.Struct:
		n := 0
		for i := 0; i < t.NumField(); i++ {
			n += minSize(t.Field(i).Type)
		}
		return n
	}
	return 0
}
