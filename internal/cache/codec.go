package cache

import (
	"encoding/binary"
	"errors"
	"math"
)

// ErrCorrupt is the sticky error a Decoder reports for any malformed input.
var ErrCorrupt = errors.New("cache: corrupt payload")

// Encoder builds a stage payload in the library's store-style binary idiom:
// varint integers, raw little-endian float bits, length-prefixed strings and
// slices. It never fails; retrieve the bytes with Bytes.
type Encoder struct{ buf []byte }

// Bytes returns the encoded payload.
func (e *Encoder) Bytes() []byte { return e.buf }

// Uvarint appends an unsigned varint.
func (e *Encoder) Uvarint(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }

// Varint appends a signed varint.
func (e *Encoder) Varint(v int64) { e.buf = binary.AppendVarint(e.buf, v) }

// Int appends a signed integer.
func (e *Encoder) Int(v int) { e.Varint(int64(v)) }

// Bool appends a boolean.
func (e *Encoder) Bool(v bool) {
	if v {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
}

// Float64 appends the raw IEEE-754 bits (bit-exact round trip, NaN included).
func (e *Encoder) Float64(v float64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(v))
}

// String appends a length-prefixed string.
func (e *Encoder) String(s string) {
	e.Uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// Float64s appends a length-prefixed float slice.
func (e *Encoder) Float64s(xs []float64) {
	e.Uvarint(uint64(len(xs)))
	for _, x := range xs {
		e.Float64(x)
	}
}

// Len appends a sequence length that keeps a nil sequence distinct from an
// empty one (0 for nil, n+1 for length n), so a decoded value is
// reflect.DeepEqual to the encoded one.
func (e *Encoder) Len(n int, isNil bool) {
	if isNil {
		e.Uvarint(0)
		return
	}
	e.Uvarint(uint64(n) + 1)
}

// Decoder reads what an Encoder wrote. Errors are sticky: after the first
// malformed read every accessor returns a zero value and Err reports
// ErrCorrupt, so callers can decode a whole payload and check once at the
// end.
type Decoder struct {
	buf []byte
	off int
	err error
}

// NewDecoder wraps an encoded payload.
func NewDecoder(data []byte) *Decoder { return &Decoder{buf: data} }

// Err reports whether any read so far was malformed, or — after Finish —
// whether trailing bytes remained.
func (d *Decoder) Err() error { return d.err }

// Finish flags trailing garbage as corruption and returns the final error.
func (d *Decoder) Finish() error {
	if d.err == nil && d.off != len(d.buf) {
		d.err = ErrCorrupt
	}
	return d.err
}

func (d *Decoder) fail() {
	if d.err == nil {
		d.err = ErrCorrupt
	}
}

// Uvarint reads an unsigned varint.
func (d *Decoder) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.fail()
		return 0
	}
	d.off += n
	return v
}

// Varint reads a signed varint.
func (d *Decoder) Varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf[d.off:])
	if n <= 0 {
		d.fail()
		return 0
	}
	d.off += n
	return v
}

// Int reads a signed integer.
func (d *Decoder) Int() int { return int(d.Varint()) }

// Len reads a length written by Encoder.Len for a sequence whose elements
// each take at least minBytes (>= 1) on the wire. A length the unread payload
// cannot hold is corruption, so the caller never allocates for more elements
// than the payload could carry.
func (d *Decoder) Len(minBytes int) (n int, isNil bool) {
	v := d.Uvarint()
	if d.err != nil || v == 0 {
		return 0, true
	}
	if (v - 1) > uint64(len(d.buf)-d.off)/uint64(minBytes) {
		d.fail()
		return 0, true
	}
	return int(v - 1), false
}

// Bool reads a boolean.
func (d *Decoder) Bool() bool {
	if d.err != nil {
		return false
	}
	if d.off >= len(d.buf) {
		d.fail()
		return false
	}
	b := d.buf[d.off]
	d.off++
	return b != 0
}

// Float64 reads raw IEEE-754 bits.
func (d *Decoder) Float64() float64 {
	if d.err != nil {
		return 0
	}
	if d.off+8 > len(d.buf) {
		d.fail()
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.buf[d.off:]))
	d.off += 8
	return v
}

// String reads a length-prefixed string.
func (d *Decoder) String() string {
	l := d.Uvarint()
	if d.err != nil {
		return ""
	}
	if uint64(len(d.buf)-d.off) < l {
		d.fail()
		return ""
	}
	s := string(d.buf[d.off : d.off+int(l)])
	d.off += int(l)
	return s
}

// Float64s reads a length-prefixed float slice (nil for length zero).
func (d *Decoder) Float64s() []float64 {
	l := d.Uvarint()
	if d.err != nil {
		return nil
	}
	if uint64(len(d.buf)-d.off)/8 < l {
		d.fail()
		return nil
	}
	if l == 0 {
		return nil
	}
	out := make([]float64, l)
	d.float64s(out)
	return out
}

// Float64sInto reads a length-prefixed float slice straight into dst. The
// encoded length must equal len(dst); any other length, or a payload too
// short to hold it, is corruption and leaves dst untouched.
func (d *Decoder) Float64sInto(dst []float64) {
	l := d.Uvarint()
	if d.err != nil {
		return
	}
	if l != uint64(len(dst)) {
		d.fail()
		return
	}
	d.float64s(dst)
}

// Next returns the next n bytes of the payload, aliasing it, for a caller
// that reads a fixed-width run in place instead of decoding all of it. A
// payload with fewer than n bytes left is corruption (nil is returned).
func (d *Decoder) Next(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || n > len(d.buf)-d.off {
		d.fail()
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

// float64s fills dst with the next len(dst) raw IEEE-754 words — the one
// decode loop behind Float64s and Float64sInto. It writes nothing unless
// the whole run is present.
func (d *Decoder) float64s(dst []float64) {
	if uint64(len(d.buf)-d.off)/8 < uint64(len(dst)) {
		d.fail()
		return
	}
	b := d.buf[d.off : d.off+8*len(dst)]
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	d.off += len(b)
}
