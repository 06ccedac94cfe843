// The network-chaos differential: loadgen-style stamped traffic
// driven through the fault-injection proxy (duplicated connections,
// lost responses, mid-stream stalls, truncated requests, early
// resets) against a durable daemon that is SIGKILLed mid-run must
// still deliver every tenant's final Result byte-identical to the
// uninterrupted replay reference — the exactly-once contract
// of ISSUE 10 at the binary level. Zero duplicate applications is
// pinned by the differential itself: a single re-applied batch would
// shift energy, cost or rejections away from the replay.
//
// The test name keeps the TestEndToEnd prefix so CI's race job
// (-run 'TestEndToEnd') exercises it under the race detector.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/client"
	"repro/internal/engine"
	"repro/internal/job"
	"repro/internal/load"
	"repro/internal/workload"
)

func TestEndToEndNetworkChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("network chaos e2e needs seconds of paced wall clock")
	}
	bin := buildSchedd(t)
	dir := t.TempDir()
	args := []string{
		"-addr", "127.0.0.1:0", "-data-dir", dir,
		"-fsync-interval", "2ms", "-checkpoint-every", "128",
		"-shed-after", "2s", "-drain-timeout", "10s",
	}
	p := startSchedd(t, bin, args...)

	// Every byte of client traffic crosses the fault proxy. The seed
	// fixes the fault schedule per connection order; rates are chosen
	// so duplicated deliveries and lost acks both certainly occur
	// across a few hundred requests.
	prx, err := chaos.New("127.0.0.1:0", strings.TrimPrefix(p.base, "http://"), chaos.Config{
		Seed:         11,
		DropResponse: 0.12,
		Duplicate:    0.15,
		Delay:        0.05,
		Truncate:     0.03,
		DropEarly:    0.03,
		DelayFor:     25 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer prx.Close()

	const tenants, n = 3, 160
	spec := engine.Spec{Name: "pd", M: 1, Alpha: 2.2}
	type outcome struct {
		rep *load.Report
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		rep, err := load.Run(context.Background(), load.Config{
			BaseURL:  "http://" + prx.Addr(),
			Spec:     spec,
			Gen:      workload.Poisson,
			Workload: workload.Config{N: n, Seed: 29, ValueScale: 2},
			Tenants:  tenants,
			Batch:    8,
			// ~3s of paced traffic (10-unit horizon): long enough that
			// the kill below reliably lands mid-stream.
			Scale:  300 * time.Millisecond,
			Prefix: "xo",
			Retry: client.Config{
				// Generous budget: the retries must ride out the whole
				// kill-to-recovered window, not just single faults.
				MaxRetries:     16,
				BaseBackoff:    15 * time.Millisecond,
				MaxBackoff:     500 * time.Millisecond,
				AttemptTimeout: 10 * time.Second,
			},
		})
		done <- outcome{rep, err}
	}()

	// SIGKILL once roughly a third of the stream is applied (scraped
	// off the worker directly, not through the proxy), then restart
	// from the same data dir and repoint the proxy at the new port.
	// Clients are mid-batch when the process dies; their retries cross
	// the recovery boundary and must be dedup-suppressed, not
	// re-applied.
	deadline := time.Now().Add(30 * time.Second)
	for metricValue(t, p.base, "schedd_arrivals_total") < tenants*n/3 {
		select {
		case oc := <-done:
			t.Fatalf("load finished before the kill (err %v); no crash coverage", oc.err)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("load never reached the kill point")
		}
		time.Sleep(5 * time.Millisecond)
	}
	p.kill(t)
	p = startSchedd(t, bin, args...)
	if !strings.Contains(p.recovered, "schedd: recovered 3 sessions") {
		t.Fatalf("recovery boot line: %q", p.recovered)
	}
	prx.SetTarget(strings.TrimPrefix(p.base, "http://"))

	var oc outcome
	select {
	case oc = <-done:
	case <-time.After(120 * time.Second):
		t.Fatal("load never finished after the restart")
	}
	if oc.err != nil {
		t.Fatalf("load under chaos: %v", oc.err)
	}
	rep := oc.rep
	if rep.Arrivals != tenants*n {
		t.Fatalf("acked arrivals = %d, want %d", rep.Arrivals, tenants*n)
	}
	// The run must actually have been disturbed, or the differential
	// below proves nothing: the kill alone guarantees wire errors.
	if rep.Retries+rep.NetErrors == 0 {
		t.Fatal("no retries and no net errors: chaos never bit")
	}
	t.Logf("chaos run: %d retries, %d net errors, %d deduped acks, %d shed, %d retry-after waits",
		rep.Retries, rep.NetErrors, rep.DupsSuppressed, rep.Shed429, rep.RetryAfterWaits)

	// The exactly-once differential: every tenant's verified Result,
	// collected through faults and a crash, must be byte-identical
	// (modulo wall-clock timings) to the uninterrupted batch replay of
	// its instance. Any duplicate application — a retried batch applied
	// twice, a duplicated connection's replay accepted — would move
	// energy, cost or the rejection count and fail the comparison.
	mask := func(r *engine.Result) []byte {
		cp := *r
		cp.MaxArrive, cp.TotalArrive, cp.PlanTime = 0, 0, 0
		js, _ := json.Marshal(&cp)
		return js
	}
	for _, tr := range rep.Results {
		if tr.Result == nil {
			t.Fatalf("tenant %s: no result", tr.ID)
		}
		want, err := engine.DefaultRegistry().ReplayAll(context.Background(), []*job.Instance{tr.Instance}, spec, 1)
		if err != nil {
			t.Fatal(err)
		}
		if got, ref := mask(tr.Result), mask(want[0]); !bytes.Equal(got, ref) {
			t.Fatalf("tenant %s result differs from uninterrupted replay:\n got %s\nwant %s", tr.ID, got, ref)
		}
	}
	p.stop(t)
}
