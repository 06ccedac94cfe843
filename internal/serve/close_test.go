package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/job"
	"repro/internal/workload"
)

// closeResponse decodes a close endpoint's body.
type closeResponse struct {
	ID     string         `json:"id"`
	Result *engine.Result `json:"result"`
}

// TestCloseRefusesUnencodableResult: a Result JSON cannot carry (here
// OA at α = 3 on a job of work 1e200, whose energy overflows to +Inf)
// is answered with 422 and a JSON error naming the field, on the first
// DELETE and on a retry served from the closed-result cache — never
// with a 200 and an empty body.
func TestCloseRefusesUnencodableResult(t *testing.T) {
	a, _ := newAPI(t, Config{})
	a.do("POST", "/v1/sessions", strings.NewReader(`{"id":"huge","spec":{"name":"oa","m":1,"alpha":3}}`), http.StatusCreated, nil)
	a.do("POST", "/v1/sessions/huge/arrivals",
		ndjson(t, []job.Job{{ID: 0, Release: 0, Deadline: 1, Work: 1e200, Value: 1}}), http.StatusOK, nil)
	for _, attempt := range []string{"first DELETE", "retried DELETE"} {
		var body struct {
			Error string `json:"error"`
		}
		a.do("DELETE", "/v1/sessions/huge", nil, http.StatusUnprocessableEntity, &body)
		if !strings.Contains(body.Error, "energy is +Inf") {
			t.Fatalf("%s: error %q does not name the field", attempt, body.Error)
		}
	}
}

// TestCloseBodyMatchesEncodingJSON: the streamed close body, first and
// retried, is byte for byte what encoding/json made of the same
// Result, on a session large enough to span many chunks.
func TestCloseBodyMatchesEncodingJSON(t *testing.T) {
	a, h := newAPI(t, Config{})
	in := workload.HeavyTail(workload.Config{N: 4000, M: 1, Alpha: 2, Seed: 3, Horizon: 400, ValueScale: 2})
	in.Normalize()
	a.do("POST", "/v1/sessions", strings.NewReader(`{"id":"big","spec":{"name":"pd","m":1,"alpha":2}}`), http.StatusCreated, nil)
	a.do("POST", "/v1/sessions/big/arrivals", ndjson(t, in.Jobs), http.StatusOK, nil)
	for _, attempt := range []string{"first DELETE", "retried DELETE"} {
		req, _ := http.NewRequest("DELETE", a.srv.URL+"/v1/sessions/big", nil)
		resp, err := a.srv.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d, %v", attempt, resp.StatusCode, err)
		}
		res, ok := h.ClosedResult("big")
		if !ok {
			t.Fatal("no cached result")
		}
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(closeResponse{ID: "big", Result: res}); err != nil {
			t.Fatal(err)
		}
		if len(got) < 1<<17 || !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("%s: %d-byte body differs from encoding/json's %d bytes", attempt, len(got), want.Len())
		}
	}
}
