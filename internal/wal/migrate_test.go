package wal

import (
	"bytes"
	"io"
	"net"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/job"
)

// exportOverTCP ships one tenant's export stream across a real TCP
// connection — loopback, but a genuine socket: the bytes traverse the
// kernel, arrive in arbitrary read-sized chunks, and the writer's
// buffering is invisible to the reader. limit > 0 truncates the
// connection after that many bytes, modelling a source that dies
// mid-migration.
func exportOverTCP(t *testing.T, src *Store, tenant string, limit int64) (net.Conn, func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		defer ln.Close()
		c, err := ln.Accept()
		if err != nil {
			errc <- err
			return
		}
		defer c.Close()
		var w io.Writer = c
		if limit > 0 {
			w = &limitedWriter{w: c, n: limit}
		}
		errc <- src.Export(tenant, w)
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	return conn, func() {
		conn.Close()
		if err := <-errc; err != nil && limit == 0 {
			t.Errorf("export over tcp: %v", err)
		}
	}
}

type limitedWriter struct {
	w io.Writer
	n int64
}

func (l *limitedWriter) Write(p []byte) (int, error) {
	if l.n <= 0 {
		return 0, io.ErrShortWrite
	}
	if int64(len(p)) > l.n {
		p = p[:l.n]
	}
	n, err := l.w.Write(p)
	l.n -= int64(n)
	if err == nil && l.n <= 0 {
		err = io.ErrShortWrite
	}
	return n, err
}

// seedTenant creates a tenant with a checkpoint and a live tail,
// returning the full arrival sequence.
func seedTenant(t *testing.T, st *Store, tenant string) ([]job.Job, *Log) {
	t.Helper()
	l, err := st.Create(tenant, []byte(`{"id":"`+tenant+`"}`))
	if err != nil {
		t.Fatal(err)
	}
	var all []job.Job
	pre := mkJobs(0, 9)
	if _, err := l.AppendStamped("", 0, pre); err != nil {
		t.Fatal(err)
	}
	all = append(all, pre...)
	if err := l.Checkpoint([]byte(`{"id":"`+tenant+`"}`), all); err != nil {
		t.Fatal(err)
	}
	post := mkJobs(200, 5)
	if _, err := l.AppendStamped("", 0, post); err != nil {
		t.Fatal(err)
	}
	return append(all, post...), l
}

// TestExportImportOverNetwork is the migration path as the cluster
// runs it: Export streams through a real TCP connection into Import
// on a second store, the source detaches (Log.Close keeps the
// directory) and Removes, and the target attaches the session with
// RecoverTenant on a live store — no boot-time Recover pass — with
// every arrival byte-identical and the resumed log appendable.
func TestExportImportOverNetwork(t *testing.T) {
	src, _ := Open(t.TempDir(), Options{})
	defer src.Close()
	all, l := seedTenant(t, src, "mig")

	// Detach on the source: seal appends, keep the directory.
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	conn, done := exportOverTCP(t, src, "mig", 0)
	dstDir := t.TempDir()
	dst, _ := Open(dstDir, Options{})
	defer dst.Close()

	// The target store is live and already serving another tenant.
	if _, err := dst.Create("resident", []byte(`{}`)); err != nil {
		t.Fatal(err)
	}
	if err := dst.Import("mig", conn); err != nil {
		t.Fatalf("import over tcp: %v", err)
	}
	done()

	// Source's final step: drop the shipped state.
	if err := src.Remove("mig"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(tenantDir(src.dir, "mig")); !os.IsNotExist(err) {
		t.Fatal("Remove left the tenant directory")
	}

	// Attach on the live target.
	var got []job.Job
	var resumed *Log
	err := dst.RecoverTenant("mig", func(r *Recovered) error {
		collect := func(js []job.Job) error {
			got = append(got, append([]job.Job(nil), js...)...)
			return nil
		}
		if err := r.ReplayCheckpoint(collect); err != nil {
			return err
		}
		if err := r.ReplayTail(func(js []job.Job, _ Stamp) error { return collect(js) }); err != nil {
			return err
		}
		var err error
		resumed, err = r.Resume()
		return err
	})
	if err != nil {
		t.Fatalf("RecoverTenant: %v", err)
	}
	if !reflect.DeepEqual(got, all) {
		t.Fatalf("migrated replay: %d arrivals, want %d identical", len(got), len(all))
	}
	if resumed.Arrivals() != uint64(len(all)) {
		t.Fatalf("resumed arrivals = %d, want %d", resumed.Arrivals(), len(all))
	}
	if _, err := resumed.AppendStamped("", 0, mkJobs(1000, 2)); err != nil {
		t.Fatalf("append on migrated log: %v", err)
	}
}

// TestImportRefusesTruncatedStream kills the source partway through
// the network transfer; the importer must refuse the stream and leave
// no tenant state behind.
func TestImportRefusesTruncatedStream(t *testing.T) {
	src, _ := Open(t.TempDir(), Options{})
	defer src.Close()
	seedTenant(t, src, "mig")

	// Measure the full stream, then cut the connection partway.
	var full bytes.Buffer
	if err := src.Export("mig", &full); err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int64{1, int64(full.Len()) / 3, int64(full.Len()) - 1} {
		conn, done := exportOverTCP(t, src, "mig", cut)
		dstDir := t.TempDir()
		dst, _ := Open(dstDir, Options{})
		if err := dst.Import("mig", conn); err == nil {
			t.Fatalf("import accepted a stream truncated at %d of %d bytes", cut, full.Len())
		}
		done()
		if _, err := os.Stat(tenantDir(dstDir, "mig")); !os.IsNotExist(err) {
			t.Fatalf("truncated import (cut %d) left tenant state", cut)
		}
		if _, err := os.Stat(tenantDir(dstDir, "mig") + ".tmp"); !os.IsNotExist(err) {
			t.Fatalf("truncated import (cut %d) left its .tmp directory", cut)
		}
		dst.Close()
	}
}

// TestImportRefusesCorruptStream flips one byte at every position of
// the export stream and ships each damaged copy over TCP: the importer
// must refuse every one — CRC framing leaves no undetectable single
// bit-flip — and never leave tenant state behind.
func TestImportRefusesCorruptStream(t *testing.T) {
	src, _ := Open(t.TempDir(), Options{})
	defer src.Close()
	seedTenant(t, src, "mig")
	var full bytes.Buffer
	if err := src.Export("mig", &full); err != nil {
		t.Fatal(err)
	}
	stream := full.Bytes()
	dstDir := t.TempDir()
	// Stride through the stream so the test stays fast while still
	// hitting magic, frame headers, payloads and raw file bytes.
	for pos := 0; pos < len(stream); pos += 7 {
		tampered := append([]byte(nil), stream...)
		tampered[pos] ^= 0x10
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			c.Write(tampered)
			c.Close()
		}()
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		dst, _ := Open(dstDir, Options{})
		if err := dst.Import("mig", conn); err == nil {
			t.Fatalf("import accepted a stream with byte %d flipped", pos)
		}
		conn.Close()
		ln.Close()
		if _, err := os.Stat(tenantDir(dstDir, "mig")); !os.IsNotExist(err) {
			t.Fatalf("corrupt import (byte %d) left tenant state", pos)
		}
		dst.Close()
	}
}

// TestRecoverTenantRefusals pins the attach-half contract: unknown
// tenants, open tenants and cleanly-closed directories all refuse.
func TestRecoverTenantRefusals(t *testing.T) {
	st, _ := Open(t.TempDir(), Options{})
	defer st.Close()

	noop := func(r *Recovered) error { return nil }
	if err := st.RecoverTenant("ghost", noop); err == nil {
		t.Fatal("RecoverTenant of an unknown tenant succeeded")
	}

	_, l := seedTenant(t, st, "live")
	if err := st.RecoverTenant("live", noop); err == nil {
		t.Fatal("RecoverTenant of an open tenant succeeded")
	}
	// A callback that does not Resume is an error, not a silent leak.
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.RecoverTenant("live", noop); err == nil || !strings.Contains(err.Error(), "without Resume") {
		t.Fatalf("non-resuming callback: err = %v, want 'without Resume'", err)
	}
}

// TestRemoveRefusesOpenTenant pins Remove's guard and the
// detach-then-remove sequence.
func TestRemoveRefusesOpenTenant(t *testing.T) {
	st, _ := Open(t.TempDir(), Options{})
	defer st.Close()
	_, l := seedTenant(t, st, "t")
	if err := st.Remove("t"); err == nil {
		t.Fatal("Remove of an open tenant succeeded")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.Remove("t"); err != nil {
		t.Fatalf("Remove after detach: %v", err)
	}
	// Removing an already-absent tenant is idempotent.
	if err := st.Remove("t"); err != nil {
		t.Fatalf("second Remove: %v", err)
	}
}
