package wire

import (
	"bytes"
	"fmt"
	"io"
	"testing"
)

func BenchmarkEncodeBatch(b *testing.B) {
	batch := sampleBatch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := EncodeBatch(batch); len(out) == 0 {
			b.Fatal("empty payload")
		}
	}
}

func BenchmarkAppendBatchReuse(b *testing.B) {
	batch := sampleBatch()
	buf := AppendBatch(nil, batch) // pre-grow to steady state
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = AppendBatch(buf[:0], batch)
		if len(buf) == 0 {
			b.Fatal("empty payload")
		}
	}
}

func BenchmarkBatchWriterSend(b *testing.B) {
	batch := sampleBatch()
	bw := NewBatchWriter(io.Discard)
	if err := bw.Send(batch); err != nil { // warm the encode buffer
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := bw.Send(batch); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeBatch(b *testing.B) {
	payload := EncodeBatch(sampleBatch())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeBatch(payload); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFrameRoundTrip(b *testing.B) {
	payload := EncodeBatch(sampleBatch())
	var buf bytes.Buffer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := WriteFrame(&buf, FrameBatch, payload); err != nil {
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
			if err := newClientDict().sendDict(NewBatchWriter(&buf), batch); err != nil {
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
// already negotiated: steady state allocates nothing.
func BenchmarkEncodeRefBatch(b *testing.B) {
	for _, records := range []int{32, 925} {
		b.Run(fmt.Sprintf("records=%d", records), func(b *testing.B) {
			batch := fleetRound(1, records, synthT0)[0]
			bw, d := NewBatchWriter(io.Discard), newClientDict()
			if err := d.sendDict(bw, batch); err != nil { // define the series, grow the scratch
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := d.sendDict(bw, batch); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*records), "ns/sample")
		})
	}
}
