package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/wal"
)

// postArrivals posts body to the tenant's arrivals endpoint through
// handler, stamped with X-Producer-Id/X-Producer-Seq when prod is
// non-empty, and returns the status and the response body. The request
// carries a 5 s deadline, and a handler still unanswered a second past
// it fails the test: a hang is a bug, not a slow answer.
func postArrivals(t testing.TB, handler http.Handler, tenant, prod, seq string, body []byte) (int, []byte) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req := httptest.NewRequest(http.MethodPost, "/v1/sessions/"+tenant+"/arrivals", bytes.NewReader(body)).WithContext(ctx)
	if prod != "" {
		req.Header.Set("X-Producer-Id", prod)
		req.Header.Set("X-Producer-Seq", seq)
	}
	rec := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		defer close(done)
		handler.ServeHTTP(rec, req)
	}()
	select {
	case <-done:
	case <-time.After(6 * time.Second):
		t.Fatalf("arrivals request (producer of %d bytes, seq %q) unanswered after 6s", len(prod), seq)
	}
	return rec.Code, rec.Body.Bytes()
}

// decodeAck decodes an arrivals response that must be exactly one ack
// for the tenant.
func decodeAck(t testing.TB, tenant string, raw []byte) arrivalsResponse {
	t.Helper()
	var ack arrivalsResponse
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&ack); err != nil {
		t.Fatalf("response %q is not an ack: %v", raw, err)
	}
	if _, err := dec.Token(); err != io.EOF {
		t.Fatalf("response %q carries more than one ack", raw)
	}
	if ack.ID != tenant {
		t.Fatalf("ack %q names tenant %q, want %q", raw, ack.ID, tenant)
	}
	return ack
}

// FuzzArrivalsHandler drives arbitrary producer stamps and bodies
// through the arrivals endpoint of a durable host, each input on a
// fresh tenant. Whatever the bytes, the handler answers promptly with
// one of the statuses the wire contract names and one well-formed ack;
// it never acks more arrivals than the body has lines; a refused
// stamped batch applies nothing; an acked stamped batch posted again
// is a duplicate with the same count; and no input leaves the session
// refusing later plain requests with a WAL error.
func FuzzArrivalsHandler(f *testing.F) {
	line := string(ndjsonLine(mkJob(1, 0)))
	full := strings.Repeat(line, Config{}.withDefaults().MaxBacklog+1)
	f.Add("p", "1", []byte(line+string(ndjsonLine(mkJob(2, 1)))))
	f.Add("p", "0", []byte(line))
	f.Add("p", "-1", []byte(line))
	f.Add("p", "18446744073709551616", []byte(line))
	f.Add("p", "1", []byte{})
	f.Add("", "", []byte{})
	f.Add("p", "1", []byte(full))
	f.Add("", "", []byte(full))
	f.Add(strings.Repeat("p", wal.MaxProducer+1), "1", []byte(line))
	f.Add("", "", []byte(line+"{\"id\":\n"))

	store, err := wal.Open(f.TempDir(), wal.Options{FsyncInterval: 5 * time.Millisecond})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { store.Close() })
	h := NewHost(Config{WAL: store})
	handler := NewHandler(h)
	var tenants atomic.Int64
	allowed := map[int]bool{200: true, 400: true, 409: true, 413: true, 429: true}

	f.Fuzz(func(t *testing.T, prod, seq string, body []byte) {
		tenant := fmt.Sprintf("fz-%d", tenants.Add(1))
		if _, err := h.Create(tenant, engine.Spec{Name: "oa", M: 1, Alpha: 2}); err != nil {
			t.Fatal(err)
		}
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			_, _ = h.CloseCtx(ctx, tenant) // a refused arrival fails the close; only the slot matters
		}()
		lines := bytes.Count(body, []byte{'\n'})
		if len(body) > 0 && body[len(body)-1] != '\n' {
			lines++
		}

		code, raw := postArrivals(t, handler, tenant, prod, seq, body)
		if !allowed[code] {
			t.Fatalf("status %d (%s)", code, raw)
		}
		ack := decodeAck(t, tenant, raw)
		if ack.Accepted > lines {
			t.Fatalf("accepted %d of a %d-line body", ack.Accepted, lines)
		}
		if prod != "" && code != http.StatusOK && ack.Accepted != 0 {
			t.Fatalf("stamped %d answer accepted %d", code, ack.Accepted)
		}
		if prod != "" && code == http.StatusOK {
			code2, raw2 := postArrivals(t, handler, tenant, prod, seq, body)
			ack2 := decodeAck(t, tenant, raw2)
			if code2 != http.StatusOK || !ack2.Deduped || ack2.Accepted != ack.Accepted {
				t.Fatalf("stamped retry answered %d %s after 200 %s", code2, raw2, raw)
			}
		}

		code, raw = postArrivals(t, handler, tenant, "", "", ndjsonLine(mkJob(1<<40, 0)))
		if !allowed[code] {
			t.Fatalf("plain request after the input: status %d (%s)", code, raw)
		}
		if ack := decodeAck(t, tenant, raw); strings.Contains(ack.Error, "wal:") {
			t.Fatalf("plain request after the input refused with a WAL error: %s", raw)
		}
	})
}
