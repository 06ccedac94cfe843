package repro

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"repro/internal/job"
	"repro/internal/serve"
	"repro/internal/wal"
	"repro/internal/workload"
)

// BenchmarkServeIngest measures ingest through the full HTTP stack:
// one POST of an n-line NDJSON arrival stream into a live oa session,
// timed end to end (session create and close/verify excluded). Two
// arms share the stack:
//
//   - batched: pooled zero-allocation NDJSON decoder, slice-batch
//     submits, batch-draining applier with coalesced replans.
//   - durable: the batched path over a write-ahead log — every drained
//     batch appended and CRC-framed before it is applied, the final
//     ack held for the group fsync. Checkpointing is off so the arm
//     measures the append+fsync path, not compaction policy.
//
// Both use a 4096-slot ring where schedd defaults to 256. Stamped
// (exactly-once) ingest is measured as it ships by bash
// perfbench/run.sh, and its allocations are pinned by
// serve.TestStampedIngestAllocsPerRequest.
func BenchmarkServeIngest(b *testing.B) {
	for _, n := range []int{100_000} {
		in := workload.HeavyTail(workload.Config{
			N: n, M: 1, Alpha: 2, Seed: 17, Horizon: float64(n) / 10, ValueScale: math.Inf(1),
		})
		// Quantize arrival times to tick granularity (~10 arrivals per
		// tick), the shape of any high-rate stream with timestamped
		// admission: release ties are what the batched path's replan
		// coalescing is designed for.
		for i := range in.Jobs {
			in.Jobs[i].Release = math.Floor(in.Jobs[i].Release)
		}
		in.Normalize()
		body := make([]byte, 0, 64*n)
		for _, j := range in.Jobs {
			body = job.AppendJSON(body, j)
			body = append(body, '\n')
		}
		spec := `{"id":%q,"spec":{"name":"oa","m":1,"alpha":2}}`

		for _, mode := range []string{"batched", "durable"} {
			b.Run(fmt.Sprintf("%s/n=%d", mode, n), func(b *testing.B) {
				cfg := serve.Config{MaxSessions: 16, MaxBacklog: 4096}
				if mode == "durable" {
					st, err := wal.Open(b.TempDir(), wal.Options{FsyncInterval: 5 * time.Millisecond})
					if err != nil {
						b.Fatal(err)
					}
					defer st.Close()
					cfg.WAL = st
				}
				srv := httptest.NewServer(serve.NewHandler(serve.NewHost(cfg)))
				defer srv.Close()
				client := srv.Client()

				do := func(method, path string, body io.Reader, want int) {
					b.Helper()
					req, err := http.NewRequest(method, srv.URL+path, body)
					if err != nil {
						b.Fatal(err)
					}
					resp, err := client.Do(req)
					if err != nil {
						b.Fatal(err)
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if resp.StatusCode != want {
						b.Fatalf("%s %s: %s", method, path, resp.Status)
					}
				}

				var m1, m2 runtime.MemStats
				var mallocs uint64
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					id := fmt.Sprintf("t%d", i)
					do("POST", "/v1/sessions", bytes.NewReader([]byte(fmt.Sprintf(spec, id))), http.StatusCreated)
					runtime.ReadMemStats(&m1)
					b.StartTimer()
					do("POST", "/v1/sessions/"+id+"/arrivals", bytes.NewReader(body), http.StatusOK)
					b.StopTimer()
					runtime.ReadMemStats(&m2)
					mallocs += m2.Mallocs - m1.Mallocs
					do("DELETE", "/v1/sessions/"+id, nil, http.StatusOK)
					b.StartTimer()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/arrival")
				b.ReportMetric(float64(b.N*n)/b.Elapsed().Seconds(), "arrivals/sec")
				// Whole-process allocation count across the ingest window
				// (client and server share the process), per arrival.
				b.ReportMetric(float64(mallocs)/float64(b.N*n), "allocs/arrival")
			})
		}
	}
}
