package wire

import (
	"bytes"
	"fmt"
	"io"
	"testing"
)

func BenchmarkFrameRoundTrip(b *testing.B) {
	var stream bytes.Buffer
	if err := newClientDict(&stream).send(sampleBatch()); err != nil {
		b.Fatal(err)
	}
	_, _, _ = ReadFrame(&stream) // the dictionary frame
	_, payload, err := ReadFrame(&stream)
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := WriteFrame(&buf, FrameRefBatch, payload); err != nil {
			b.Fatal(err)
		}
		if _, _, err := ReadFrame(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeRefBatch decodes one steady-state ref frame of each
// benchmark batch shape. `make bench-allocs` holds allocs/op to the same
// small constant for both: nothing is allocated per record or per sample.
func BenchmarkDecodeRefBatch(b *testing.B) {
	for _, records := range []int{32, 925} {
		b.Run(fmt.Sprintf("records=%d", records), func(b *testing.B) {
			batch := fleetRound(1, records, synthT0)[0]
			var buf bytes.Buffer
			if err := newClientDict(&buf).send(batch); err != nil {
				b.Fatal(err)
			}
			_, defs, _ := ReadFrame(&buf)
			_, payload, err := ReadFrame(&buf)
			if err != nil {
				b.Fatal(err)
			}
			cd := NewConnDict()
			if _, err := cd.AddDefs(defs); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := cd.DecodeRefBatch(payload); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*records), "ns/sample")
		})
	}
}

// BenchmarkEncodeRefBatch is the send side of the same two frames, dictionary
// already negotiated: encode, frame and flush. Steady state allocates nothing.
func BenchmarkEncodeRefBatch(b *testing.B) {
	for _, records := range []int{32, 925} {
		b.Run(fmt.Sprintf("records=%d", records), func(b *testing.B) {
			batch := fleetRound(1, records, synthT0)[0]
			d := newClientDict(io.Discard)
			if err := d.send(batch); err != nil { // define the series, grow the scratch
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := d.send(batch); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*records), "ns/sample")
		})
	}
}
