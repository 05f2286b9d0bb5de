package binenc

import (
	"errors"
	"io"
	"math"
	"reflect"
	"testing"

	"repro/internal/metric"
)

// fields is one value of every primitive (and a counted run), in the order
// encode writes and decode reads them.
type fields struct {
	U     uint64
	I     int64
	S     string
	B     []byte
	F     float64
	Flag  bool
	Byte  byte
	ID    metric.ID
	Bare  metric.ID // no labels: must decode with nil Labels
	Count int
	Elems []uint64
}

func (f *fields) encode() []byte {
	b := AppendUvarint(nil, f.U)
	b = AppendVarint(b, f.I)
	b = AppendString(b, f.S)
	b = AppendBytes(b, f.B)
	b = AppendFloat(b, f.F)
	b = AppendBool(b, f.Flag)
	b = append(b, f.Byte)
	b = AppendID(b, f.ID)
	b = AppendID(b, f.Bare)
	b = AppendUvarint(b, uint64(len(f.Elems)))
	for _, e := range f.Elems {
		b = AppendUvarint(b, e)
	}
	return b
}

func decode(payload []byte) (fields, error) {
	r := NewReader(payload)
	f := fields{
		U: r.Uvarint(), I: r.Varint(), S: r.Str(), B: r.Bytes(), F: r.Float(),
		Flag: r.Bool(), Byte: r.Byte(), ID: r.ID(), Bare: r.ID(),
	}
	f.Count = r.Count(1)
	for i := 0; i < f.Count; i++ {
		f.Elems = append(f.Elems, r.Uvarint())
	}
	return f, r.Done()
}

func sample() fields {
	return fields{
		U: 1<<63 + 5, I: -1 << 40, S: "node_power_watts", B: []byte{0, 0xFF, 7}, F: math.Inf(-1),
		Flag: true, Byte: 0xA5,
		ID:    metric.ID{Name: "temp", Labels: metric.NewLabels("rack", "r02", "node", "n042")},
		Bare:  metric.ID{Name: "pue"},
		Count: 3, Elems: []uint64{1, 300, 1 << 40},
	}
}

func TestRoundTrip(t *testing.T) {
	want := sample()
	got, err := decode(want.encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, want)
	}
	// NaN does not compare equal to itself; check its bits survive.
	r := NewReader(AppendFloat(nil, math.NaN()))
	if v := r.Float(); !math.IsNaN(v) || r.Done() != nil {
		t.Fatalf("NaN round trip: %v, %v", v, r.Done())
	}
	// Empty strings and byte strings are one zero byte; Bytes yields nil.
	r = NewReader(AppendBytes(AppendString(nil, ""), nil))
	if s, b := r.Str(), r.Bytes(); s != "" || b != nil || r.Done() != nil {
		t.Fatalf("empty round trip: %q, %v, %v", s, b, r.Done())
	}
}

// TestTruncationSweep: every proper prefix of a valid payload is an error —
// never a panic, never a silent short read — and the error is sticky.
func TestTruncationSweep(t *testing.T) {
	f := sample()
	payload := f.encode()
	for cut := 0; cut < len(payload); cut++ {
		if _, err := decode(payload[:cut]); err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded cleanly", cut, len(payload))
		}
	}
	r := NewReader(payload[:3])
	r.Uvarint()
	r.Varint()
	first := r.Err()
	if first == nil {
		t.Fatal("short payload read without error")
	}
	if v := r.Float(); v != 0 || r.Err() != first || r.left() != 0 {
		t.Fatalf("read after failure: value %v, err %v (first %v), %d bytes left", v, r.Err(), first, r.left())
	}
}

func TestMalformedInput(t *testing.T) {
	t.Run("trailing bytes", func(t *testing.T) {
		r := NewReader([]byte{1, 2})
		r.Byte()
		if r.Err() != nil || r.Done() == nil {
			t.Fatalf("Err %v, Done %v: want nil, trailing-bytes error", r.Err(), r.Done())
		}
	})
	t.Run("varint overflow", func(t *testing.T) {
		r := NewReader([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01})
		if r.Uvarint(); !errors.Is(r.Err(), io.ErrUnexpectedEOF) {
			t.Fatalf("11-byte uvarint: %v", r.Err())
		}
	})
	t.Run("length beyond buffer", func(t *testing.T) {
		// A length that would overflow int when converted must still be
		// caught by the bounds check.
		r := NewReader(AppendUvarint(nil, math.MaxUint64))
		if s := r.Str(); s != "" || r.Err() == nil {
			t.Fatalf("oversized string: %q, %v", s, r.Err())
		}
	})
	t.Run("implausible count", func(t *testing.T) {
		payload := append(AppendUvarint(nil, 3), make([]byte, 20)...)
		r := NewReader(payload)
		if n := r.Count(10); n != 0 || !errors.Is(r.Err(), errCount) {
			t.Fatalf("3 elements of >= 10 bytes in 20: count %d, err %v", n, r.Err())
		}
		r = NewReader(payload)
		if n := r.Count(5); n != 3 || r.Err() != nil {
			t.Fatalf("3 elements of >= 5 bytes in 20: count %d, err %v", n, r.Err())
		}
		r = NewReader(AppendUvarint(nil, 1<<40))
		if n := r.Count(1); n != 0 || !errors.Is(r.Err(), errCount) {
			t.Fatalf("huge count: %d, %v", n, r.Err())
		}
	})
}
