package serve

import (
	"fmt"
	"io/fs"
	"math"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/wal"
	"repro/internal/workload"
)

// benchWalOpt feeds with the daemon's default group-commit tick; the
// zero Options value would fsync every append (the deterministic test
// mode) and turn setup into 50 000 synchronous fsyncs.
var benchWalOpt = wal.Options{FsyncInterval: 5 * time.Millisecond}

// BenchmarkHostRecover measures crash recovery as a function of the
// checkpoint interval: one 50 000-arrival pd session is fed through a
// WAL-backed host, crashed, and then recovered repeatedly (each
// iteration is a full boot — open the store, replay, resume, tear
// down). A smaller interval trades steady-state compaction work for
// less history to replay at boot; every=0 is the no-checkpoint
// baseline, replaying the entire log. log-bytes reports what the
// crash left on disk — the table in EXPERIMENTS.md reads this and
// ns/op side by side.
func BenchmarkHostRecover(b *testing.B) {
	// The serve-ingest benchmark's workload shape: heavy-tailed jobs on
	// a compressed horizon, so oa's pending set stays small and the
	// per-arrival policy cost sub-µs. The arms then differ by how much
	// history the boot must parse and apply — the knob under test —
	// not by replan economics (a pending-heavy trace makes the policy
	// dominate recovery and live ingest alike).
	const n = 50_000
	spec := engine.Spec{Name: "oa", M: 1, Alpha: 2}
	in := workload.HeavyTail(workload.Config{
		N: n, M: 1, Alpha: 2, Seed: 5, Horizon: n / 10, ValueScale: math.Inf(1),
	})

	for _, every := range []int{0, 50_000, 10_000, 2_000} {
		b.Run(fmt.Sprintf("every=%d/n=%d", every, n), func(b *testing.B) {
			dir := b.TempDir()
			st, err := wal.Open(dir, benchWalOpt)
			if err != nil {
				b.Fatal(err)
			}
			h := NewHost(Config{WAL: st, CheckpointEvery: every})
			s, err := h.Create("bench", spec)
			if err != nil {
				b.Fatal(err)
			}
			feed(b, s, in)
			crash(b, h, st)

			var disk int64
			filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
				if err == nil && !d.IsDir() {
					if info, ierr := d.Info(); ierr == nil {
						disk += info.Size()
					}
				}
				return nil
			})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st2, err := wal.Open(dir, benchWalOpt)
				if err != nil {
					b.Fatal(err)
				}
				h2 := NewHost(Config{WAL: st2, CheckpointEvery: every})
				stats, err := h2.Recover()
				if err != nil {
					b.Fatal(err)
				}
				if stats.Sessions != 1 || stats.Arrivals != n {
					b.Fatalf("recovery stats %+v", stats)
				}
				b.StopTimer()
				crash(b, h2, st2)
				b.StartTimer()
			}
			// After the loop: ResetTimer discards extra metrics reported
			// before it.
			b.ReportMetric(float64(disk), "log-bytes")
			b.ReportMetric(float64(b.N)*n/b.Elapsed().Seconds(), "arrivals/sec")
		})
	}
}
