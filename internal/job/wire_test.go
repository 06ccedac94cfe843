package job

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// TestAppendString pins the wire string escaper byte-identical to
// json.Marshal across the escaping corners it special-cases.
func TestAppendString(t *testing.T) {
	cases := []string{
		"", "plain", "t-42", `quote"back\slash`, "tab\tnl\ncr\r",
		"ctl\x01\x1f", "backspace\b formfeed\f", "<html>&", "unicode µ≥", "  ",
		"bad\xffutf8", "emoji 🚀", strings.Repeat("x", 300),
	}
	for _, s := range cases {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		got := AppendString(nil, s)
		if string(got) != string(want) {
			t.Errorf("AppendString(%q):\n got %s\nwant %s", s, got, want)
		}
	}
}

// TestAppendNDJSONDecodeAll round-trips a batch through the NDJSON
// helpers: AppendNDJSON must be line-per-job AppendJSON, and DecodeAll
// must rehydrate it value-identical.
func TestAppendNDJSONDecodeAll(t *testing.T) {
	js := []Job{
		{ID: 1, Release: 0, Deadline: 10, Work: 1.5, Value: math.Inf(1)},
		{ID: 2, Release: 0.25, Deadline: 11, Work: 2, Value: 7},
		{ID: 3, Release: 3, Deadline: 12.5, Work: 1e-9, Value: 0},
	}
	b := AppendNDJSON(nil, js)
	var want []byte
	for _, j := range js {
		want = AppendJSON(want, j)
		want = append(want, '\n')
	}
	if string(b) != string(want) {
		t.Fatalf("AppendNDJSON:\n got %q\nwant %q", b, want)
	}
	got, err := DecodeAll(nil, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(js) {
		t.Fatalf("DecodeAll returned %d jobs, want %d", len(got), len(js))
	}
	for i := range js {
		if got[i] != js[i] {
			t.Errorf("job %d: got %+v want %+v", i, got[i], js[i])
		}
	}

	if _, err := DecodeAll(nil, []byte("{\"id\":1,\n{broken\n")); err == nil {
		t.Fatal("DecodeAll accepted a malformed stream")
	}
	if out, err := DecodeAll(js[:1], nil); err != nil || len(out) != 1 {
		t.Fatalf("DecodeAll on empty input = %v, %v; want the unchanged prefix", out, err)
	}
}
