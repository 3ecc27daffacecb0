package trace

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"

	"wlcrc/internal/benchpair"
)

// benchRecords is the per-pass record count for BenchmarkIngest. Every
// sub-benchmark decodes exactly this many records per iteration, so the
// ns/op of the three paths are directly comparable and their ratio is
// the per-record decode-cost ratio the cmd/benchguard ingest gate reads.
const benchRecords = 4096

// BenchmarkIngest measures pure trace-decode throughput through the
// three ingest paths a replay can take:
//
//	reader  per-record Reader.Read — the pre-PR7 hot loop
//	batch   Reader.ReadBatch in ingest-chunk-sized slices
//	mapped  MappedSource.NextBatch decoding zero-copy off the mapping
//
// reader and batch run over the same in-memory image (so the bufio
// layer's underlying reads are free in all cases and the delta is pure
// per-record overhead); mapped decodes a page-cached temp file. The
// committed ingest_pr7 series in BENCH_encode.json records the ratio;
// BenchmarkIngestPaired times the mapped/reader ratio the benchguard
// ingest gate reads.
func BenchmarkIngest(b *testing.B) {
	image, m := ingestFixture(b)
	payload := int64(len(image) - HeaderSize)
	for _, tc := range []struct {
		name string
		pass func()
	}{{"reader", readerPass(b, image)}, {"batch", batchPass(b, image)}, {"mapped", mappedPass(b, m)}} {
		b.Run(tc.name, func(b *testing.B) {
			b.SetBytes(payload)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tc.pass()
			}
			b.ReportMetric(float64(benchRecords)*float64(b.N)/b.Elapsed().Seconds(), "records/s")
		})
	}
}

// BenchmarkIngestPaired is the in-process paired rung of the trace
// decode front end: the mapped batch path against the per-record
// reader loop over the same records, timed round-robin (benchpair). It
// reports the median per-round mapped/reader time ratio, which a copy
// sneaking back into the zero-copy decode, lost batching or a silent
// fallback from the mapping drags toward 1.
func BenchmarkIngestPaired(b *testing.B) {
	image, m := ingestFixture(b)
	benchpair.Run(b, 4, benchpair.Pair{Metric: "mapped/reader", Num: mappedPass(b, m), Den: readerPass(b, image)})
}

// ingestFixture returns the benchRecords-record trace image and a
// mapping of the same image written to a temp file, faulted in by one
// warm pass. The mapping closes when the benchmark ends.
func ingestFixture(b *testing.B) ([]byte, *MappedSource) {
	image, _ := testTraceImage(b, benchRecords, 99)
	path := filepath.Join(b.TempDir(), "bench.wlct")
	if err := os.WriteFile(path, image, 0o644); err != nil {
		b.Fatal(err)
	}
	m, err := OpenMapped(path)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { m.Close() })
	mappedPass(b, m)()
	return image, m
}

// readerPass returns one decode of image through the per-record
// Reader.Read loop.
func readerPass(b *testing.B, image []byte) func() {
	src := bytes.NewReader(image)
	return func() {
		src.Reset(image)
		rd, err := NewReader(src)
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		for {
			if _, err := rd.Read(); err == io.EOF {
				break
			} else if err != nil {
				b.Fatal(err)
			}
			n++
		}
		checkRecords(b, n)
	}
}

// batchPass returns one decode of image through Reader.ReadBatch.
func batchPass(b *testing.B, image []byte) func() {
	src := bytes.NewReader(image)
	var buf [512]Request
	return func() {
		src.Reset(image)
		rd, err := NewReader(src)
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		for {
			got, err := rd.ReadBatch(buf[:])
			if err == io.EOF {
				break
			} else if err != nil {
				b.Fatal(err)
			}
			n += got
		}
		checkRecords(b, n)
	}
}

// mappedPass returns one decode of m through MappedSource.NextBatch.
func mappedPass(b *testing.B, m *MappedSource) func() {
	var buf [512]Request
	return func() {
		m.Rewind()
		n := 0
		for {
			got := m.NextBatch(buf[:])
			if got == 0 {
				break
			}
			n += got
		}
		if m.Err() != nil {
			b.Fatal(m.Err())
		}
		checkRecords(b, n)
	}
}

func checkRecords(b *testing.B, n int) {
	if n != benchRecords {
		b.Fatalf("decoded %d records, want %d", n, benchRecords)
	}
}
