package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"testing"

	"repro/internal/engine"
	"repro/internal/job"
	"repro/internal/wal"
	"repro/internal/workload"
)

// TestHostMigrationDifferential is the host-level half of the cluster's
// migration discipline: a tenant fed half its stream on one host,
// detached, exported, imported and adopted by a second host, then fed
// the rest there, must finish with a verified Result byte-identical to
// the uninterrupted single-host run — the same differential the
// cluster e2e pins at the HTTP surface.
func TestHostMigrationDifferential(t *testing.T) {
	ctx := context.Background()
	spec := engine.Spec{Name: "pd", M: 1, Alpha: 2.2}
	in := workload.Poisson(workload.Config{N: 120, M: 1, Alpha: 2.2, Seed: 19, ValueScale: 2})
	cut := len(in.Jobs) / 2

	srcStore, err := wal.Open(t.TempDir(), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer srcStore.Close()
	src := NewHost(Config{WAL: srcStore, CheckpointEvery: 25})
	s, err := src.Create("mover", spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.SubmitBatch(ctx, in.Jobs[:cut]); err != nil {
		t.Fatal(err)
	}
	if err := waitAdmitted(ctx, s); err != nil {
		t.Fatal(err)
	}

	// Source side: seal, export, drop.
	if err := src.Detach(ctx, "mover"); err != nil {
		t.Fatalf("detach: %v", err)
	}
	if _, err := src.Get("mover"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("detached tenant still resolvable: %v", err)
	}
	var stream bytes.Buffer
	if err := srcStore.Export("mover", &stream); err != nil {
		t.Fatalf("export: %v", err)
	}

	// Target side: import, adopt, keep serving.
	dstStore, err := wal.Open(t.TempDir(), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer dstStore.Close()
	dst := NewHost(Config{WAL: dstStore, CheckpointEvery: 25})
	if err := dstStore.Import("mover", bytes.NewReader(stream.Bytes())); err != nil {
		t.Fatalf("import: %v", err)
	}
	s2, err := dst.Adopt("mover")
	if err != nil {
		t.Fatalf("adopt: %v", err)
	}

	// The target acked; the source's final step frees its disk, and the
	// id becomes creatable there again.
	if err := srcStore.Remove("mover"); err != nil {
		t.Fatalf("remove: %v", err)
	}
	if _, err := src.Create("mover", spec); err != nil {
		t.Fatalf("recreate after migration away: %v", err)
	}

	// Mid-stream state carried over byte-identical.
	ref, err := engine.NewLive(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref.ApplyBatch(in.Jobs[:cut]); err != nil {
		t.Fatal(err)
	}
	want := ref.Snapshot().AppendJSON(nil)
	if got := s2.Snapshot().Snapshot.AppendJSON(nil); !bytes.Equal(got, want) {
		t.Fatalf("adopted snapshot differs:\n got %s\nwant %s", got, want)
	}

	if _, _, err := s2.SubmitBatch(ctx, in.Jobs[cut:]); err != nil {
		t.Fatal(err)
	}
	res, err := dst.Close("mover")
	if err != nil {
		t.Fatal(err)
	}
	wantRes, err := engine.DefaultRegistry().ReplayAll(context.Background(), []*job.Instance{in}, spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	aj, _ := json.Marshal(maskTimes(wantRes[0]))
	bj, _ := json.Marshal(maskTimes(res))
	if !bytes.Equal(aj, bj) {
		t.Fatalf("migrated result differs from uninterrupted replay:\n%s\nvs\n%s", aj, bj)
	}
}

// TestHostDetachRefusals pins Detach's guards: unknown tenants and
// WAL-less hosts refuse, and Adopt refuses a tenant that was never
// imported.
func TestHostDetachRefusals(t *testing.T) {
	ctx := context.Background()
	if err := NewHost(Config{}).Detach(ctx, "x"); err == nil {
		t.Fatal("detach on a WAL-less host succeeded")
	}
	st, err := wal.Open(t.TempDir(), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	h := NewHost(Config{WAL: st})
	if err := h.Detach(ctx, "ghost"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("detach of unknown tenant: %v", err)
	}
	if _, err := h.Adopt("ghost"); err == nil {
		t.Fatal("adopt of a never-imported tenant succeeded")
	}
}
