// Package wire is the one binary codec behind the repository's on-disk
// formats, diag-snap/v1 (internal/snap) and diag-journal/v1
// (internal/journal). Both derive their payloads from Go structs
// through one reflective walker, and both seal what they write with the
// same FNV-1a-64 trailer, so the wire-format decision is made here and
// nowhere else.
//
// The derivation rules:
//
//   - struct fields go in declaration order;
//   - bool and uint8 take 1 byte; uint32 and int32 take 4; uint64,
//     int64 and int take 8, little-endian;
//   - strings and slices take a u32 length, then their bytes or
//     elements; an empty slice decodes as nil;
//   - arrays take their elements with no length, and a pointer encodes
//     what it points to;
//   - any other kind, and any unexported field, is an error.
//
// A type's field list is therefore part of every format that encodes
// it: adding or reordering a field needs that format's schema bump.
//
// Decode never panics on arbitrary input: every slice length is checked
// against the remaining input at the smallest encoding of its element
// type before allocation, so allocation is bounded by the input size.
package wire

import (
	"fmt"
	"reflect"
)

// FNVBasis is the FNV-1a-64 offset basis: the digest of no bytes, and
// the state an FNV1a chain starts from.
const FNVBasis uint64 = 14695981039346656037

// FNV1a folds b into the FNV-1a-64 state h and returns the new state.
// FNV1a(FNVBasis, b) is the digest of b, and folding pieces in order
// gives the digest of their concatenation.
func FNV1a(h uint64, b []byte) uint64 {
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// Seal appends the little-endian FNV-1a-64 digest of b[from:] to b.
func Seal(b []byte, from int) []byte {
	w := writer{b: b}
	w.u64(FNV1a(FNVBasis, b[from:]))
	return w.b
}

// Sealed reports whether the 8 bytes after b[:n] are the digest that
// Seal appended to b[:n]. It is false when b is too short to hold them.
func Sealed(b []byte, n int) bool {
	if n < 0 || len(b)-n < 8 {
		return false
	}
	r := reader{b: b[n : n+8]}
	return r.u64() == FNV1a(FNVBasis, b[:n])
}

// Size is the exact length of v's encoding, so that an encoder can
// allocate its buffer once. A kind Append rejects counts 0.
func Size(v any) int { return size(reflect.ValueOf(v)) }

// Append appends the encoding of v to b. v is a pointer, so that every
// array it reaches is addressable. It fails on a type the rules above
// do not cover and on a nil pointer.
func Append(b []byte, v any) ([]byte, error) {
	w := writer{b: b}
	w.put(reflect.ValueOf(v))
	return w.b, w.err
}

// Decode decodes the front of b into what the pointer v points to and
// returns the number of bytes it read. It fails, without panicking, on
// input too short for v, on a boolean byte other than 0 or 1, and on a
// type the rules above do not cover.
func Decode(b []byte, v any) (int, error) {
	r := reader{b: b}
	r.get(reflect.ValueOf(v).Elem())
	return r.off, r.err
}

// writer appends fixed-order little-endian fields to a byte slice, with
// a sticky error for types the rules cannot carry.
type writer struct {
	b   []byte
	err error
}

func (w *writer) u8(v uint8) { w.b = append(w.b, v) }

func (w *writer) u32(v uint32) {
	w.b = append(w.b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func (w *writer) u64(v uint64) {
	w.b = append(w.b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

// put appends the encoding of v under the derivation rules.
func (w *writer) put(v reflect.Value) {
	if w.err != nil {
		return
	}
	switch v.Kind() {
	case reflect.Bool:
		if v.Bool() {
			w.u8(1)
		} else {
			w.u8(0)
		}
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
		w.u32(uint32(v.Len()))
		w.b = append(w.b, v.String()...)
	case reflect.Slice:
		w.u32(uint32(v.Len()))
		w.elems(v)
	case reflect.Array:
		w.elems(v)
	case reflect.Pointer:
		if v.IsNil() {
			w.err = fmt.Errorf("wire: nil %s", v.Type())
			return
		}
		w.put(v.Elem())
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f := v.Field(i)
			if !f.CanInterface() { // unexported
				w.err = fmt.Errorf("wire: %s.%s is unexported", v.Type(), v.Type().Field(i).Name)
				return
			}
			w.put(f)
		}
	default:
		w.err = fmt.Errorf("wire: cannot encode %s", v.Type())
	}
}

// elems appends the elements of a slice or array, bytes in one copy
// (Append starts from a pointer, so every array is addressable).
func (w *writer) elems(v reflect.Value) {
	if v.Type().Elem().Kind() == reflect.Uint8 {
		w.b = append(w.b, v.Bytes()...)
		return
	}
	for i := 0; i < v.Len(); i++ {
		w.put(v.Index(i))
	}
}

// size is the exact length of v's encoding.
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
		r.err = fmt.Errorf(format, args...)
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

// count reads a string or slice length and validates that elemMin bytes
// per element fit in the remaining input, bounding every allocation by
// the input size.
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

// get decodes into v (settable) under the derivation rules.
func (r *reader) get(v reflect.Value) {
	if r.err != nil {
		return
	}
	switch v.Kind() {
	case reflect.Bool:
		switch b := r.u8(); b {
		case 0, 1:
			v.SetBool(b == 1)
		default:
			r.fail("boolean byte %d is not 0 or 1", b)
		}
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
		v.SetString(string(r.take(r.count(1))))
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
