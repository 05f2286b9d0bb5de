package binenc

import (
	"encoding/hex"
	"errors"
	"io"
	"math"
	"math/rand"
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

// readColumn decodes n values of a column AppendValues wrote.
func readColumn(payload []byte, decimal bool, n int) ([]float64, error) {
	r := NewReader(payload)
	c := r.ValueCol(decimal)
	vs := make([]float64, n)
	for i := range vs {
		vs[i] = r.Value(c)
	}
	return vs, r.Done()
}

// decimalRef says, from the definition rather than the codec, whether some
// e in 0…15 makes every value of vs exactly float64(m)/10^e, bit for bit,
// for an integer m with |m| < 2^53, and returns the smallest such e.
func decimalRef(vs []float64) (int, bool) {
	for e := 0; e <= 15 && len(vs) > 0; e++ {
		fits := true
		for _, v := range vs {
			m := math.Round(v * math.Pow10(e))
			fits = fits && math.Abs(m) < 1<<53 &&
				math.Float64bits(float64(int64(m))/math.Pow10(e)) == math.Float64bits(v)
		}
		if fits {
			return e, true
		}
	}
	return 0, false
}

// decimalAtRef is DecimalAt from the definition: m is v*10^e rounded, and v
// is a decimal at e when |m| < 2^53 and float64(m)/10^e is v, bit for bit.
func decimalAtRef(v float64, e int) (int64, bool) {
	m := math.Round(v * math.Pow10(e))
	if !(math.Abs(m) < 1<<53) {
		return 0, false
	}
	return int64(m), math.Float64bits(float64(int64(m))/math.Pow10(e)) == math.Float64bits(v)
}

// checkDecimal holds DecimalAt and DecimalFrom, with DecimalFrom's early
// stop at 2^53, to the definition at every exponent.
func checkDecimal(t *testing.T, v float64) {
	t.Helper()
	first := -1
	for e := MaxDecimalExp; e >= 0; e-- {
		m, ok := DecimalAt(v, e)
		wm, wok := decimalAtRef(v, e)
		if ok != wok || ok && m != wm {
			t.Fatalf("DecimalAt(%v (%016x), %d) = %d, %v; want %d, %v", v, math.Float64bits(v), e, m, ok, wm, wok)
		}
		if ok {
			first = e
		}
		m, at, ok := DecimalFrom(v, e)
		if ok != (first >= 0) || ok && (at != first || m != mantissaAt(v, first)) {
			t.Fatalf("DecimalFrom(%v (%016x), %d) = %d, %d, %v; want exponent %d", v, math.Float64bits(v), e, m, at, ok, first)
		}
	}
}

func mantissaAt(v float64, e int) int64 { m, _ := decimalAtRef(v, e); return m }

// TestDecimalShortcuts runs checkDecimal over values at the edges of the
// 2^53 mantissa bound, and over random floats, decimals and sums of
// decimals.
func TestDecimalShortcuts(t *testing.T) {
	vs := []float64{0, math.Copysign(0, -1), 0.5, -2.5, 1 << 52, 1<<53 - 1, 1 << 53, 4503599627370495.5, 0.1 + 0.2,
		40018.8, 4246.6, 1099511627775.5, 1 << 40, 109951162777.6, math.NaN(), math.Inf(-1), 5e-324, math.MaxFloat64}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		e := rng.Intn(16)
		switch i % 4 {
		case 0:
			vs = append(vs, math.Float64frombits(rng.Uint64()))
		case 1:
			vs = append(vs, float64(rng.Int63n(1<<53)-1<<52)/math.Pow10(e))
		case 2:
			vs = append(vs, math.Round(rng.Float64()*1e5)/10+math.Round(rng.Float64()*1e5)/100)
		case 3:
			vs = append(vs, math.Nextafter(float64(rng.Int63n(1<<40))/math.Pow10(e), math.Inf(1)))
		}
	}
	for _, v := range vs {
		checkDecimal(t, v)
	}
}

// checkColumn encodes vs, checks the coding against decimalRef, and checks
// that the column decodes to vs bit for bit and that every strict prefix of
// it fails to decode.
func checkColumn(t *testing.T, vs []float64) []byte {
	t.Helper()
	col, decimal := AppendValues(nil, vs)
	wantE, wantDecimal := decimalRef(vs)
	if decimal != wantDecimal || (decimal && col[0] != byte(wantE)) {
		t.Fatalf("%v: decimal=%v (column %x), want decimal=%v at e=%d", vs, decimal, col, wantDecimal, wantE)
	}
	if !decimal && len(col) != 8*len(vs) {
		t.Fatalf("%v: raw column of %d bytes", vs, len(col))
	}
	got, err := readColumn(col, decimal, len(vs))
	if err != nil {
		t.Fatalf("%v: %v", vs, err)
	}
	for i := range vs {
		if math.Float64bits(got[i]) != math.Float64bits(vs[i]) {
			t.Fatalf("value %d: got %v (%#x), want %v (%#x)", i, got[i], math.Float64bits(got[i]), vs[i], math.Float64bits(vs[i]))
		}
	}
	for cut := range col {
		if _, err := readColumn(col[:cut], decimal, len(vs)); err == nil {
			t.Fatalf("%v: strict prefix of %d/%d bytes decoded", vs, cut, len(col))
		}
	}
	return col
}

// TestValueColumn pins the coding AppendValues picks: decimal at the smallest
// exponent every value fits, raw when any value fits none — -0, NaN, the
// infinities, subnormals, |m| at 2^53 — and raw, zero bytes, for no values.
func TestValueColumn(t *testing.T) {
	for _, tc := range []struct {
		vs   []float64
		want string // the column's bytes, hex
	}{
		{nil, ""},
		{[]float64{1, 2, -3}, "00020405"},
		{[]float64{412.5, 61}, "01ba40c409"}, // 4125 and 610 at e = 1
		{[]float64{0.1, 0.25}, "021432"},     // 10 and 25 at e = 2
		{[]float64{1e-15}, "0f02"},
		{[]float64{1<<53 - 1}, "00feffffffffffff1f"},
		{[]float64{1e-16}, "3c9cd2b297d889bc"},
		{[]float64{1 << 53}, "4340000000000000"},
		{[]float64{1, math.Copysign(0, -1)}, "3ff00000000000008000000000000000"},
		{[]float64{1, math.Inf(1)}, "3ff00000000000007ff0000000000000"},
		{[]float64{math.Float64frombits(0x7FF8_0000_0000_0001)}, "7ff8000000000001"},
		{[]float64{5e-324}, "0000000000000001"},
	} {
		col := checkColumn(t, tc.vs)
		if got := hex.EncodeToString(col); got != tc.want {
			t.Errorf("%v: column %s, want %s", tc.vs, got, tc.want)
		}
	}
	// An exponent past 15 is no column this codec writes.
	r := NewReader([]byte{16, 2})
	if r.Value(r.ValueCol(true)); !errors.Is(r.Err(), errExponent) {
		t.Fatalf("exponent 16: %v", r.Err())
	}
}

// FuzzValueColumn: every column of arbitrary float64 bit patterns, and of
// arbitrary integers over a power of ten, takes the coding decimalRef names
// and round-trips bit for bit; arbitrary bytes decode as either coding
// without panicking.
func FuzzValueColumn(f *testing.F) {
	bits := func(vs ...float64) []byte {
		var b []byte
		for _, v := range vs {
			b = AppendFloat(b, v)
		}
		return b
	}
	ints := func(ms ...int64) []byte {
		var b []byte
		for _, m := range ms {
			b = AppendVarint(b, m)
		}
		return b
	}
	f.Add(bits(0, math.Copysign(0, -1)), ints(0, 1, -1), uint8(0))
	f.Add(bits(math.NaN(), math.Float64frombits(0xFFF0_0000_DEAD_BEEF), math.Inf(1), math.Inf(-1)), ints(4125, 610), uint8(1))
	f.Add(bits(5e-324, 2.2250738585072009e-308, math.MaxFloat64), ints(1<<53-1, 1-1<<53), uint8(15))
	f.Add(bits(1<<53-1, 1<<53, 1<<53+2), ints(1<<53, 1<<53+1, -(1<<53)-1), uint8(2))
	f.Add(bits(0.1, 411.5, 61), ints(1, 1<<62), uint8(16))
	f.Fuzz(func(t *testing.T, raw, scaled []byte, e uint8) {
		// checkColumn's prefix sweep is quadratic: 64 values make the point.
		raw = raw[:min(len(raw), 8*64)]
		var vs []float64
		for r := NewReader(raw); len(vs) < len(raw)/8; {
			vs = append(vs, r.Float())
		}
		checkColumn(t, vs)
		for _, v := range vs {
			checkDecimal(t, v)
		}
		vs = vs[:0]
		for r := NewReader(scaled); r.Err() == nil && r.left() > 0 && len(vs) < 64; {
			if m := r.Varint(); r.Err() == nil {
				vs = append(vs, float64(m)/math.Pow10(int(e%17)))
			}
		}
		checkColumn(t, vs)
		for _, v := range vs {
			checkDecimal(t, v)
		}
		for _, decimal := range []bool{false, true} {
			_, _ = readColumn(raw, decimal, len(raw)) // no panic is the property
		}
	})
}
