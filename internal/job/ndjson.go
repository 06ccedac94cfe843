// The serving daemon's arrival wire format is NDJSON: one Job object
// per line. encoding/json decodes it correctly but pays reflection,
// per-token allocation and interface boxing on every line — at
// millions of arrivals per second the decoder, not the scheduling
// policy, becomes the daemon's ceiling. This file is the hand-rolled
// twin: a pooled line scanner over a reused read buffer and a
// non-reflective field parser that writes straight into the caller's
// Job, allocating nothing on the steady-state path.
//
// The parser is not a new dialect: it accepts exactly what
// json.Unmarshal into Job accepts — case-insensitive keys, ignored
// unknown fields (with their syntax still validated), null no-ops,
// the "inf"/"+inf" value strings of the trace format, last-wins
// duplicate keys — and rejects what it rejects. Differential tests
// (including a fuzzer) pin both directions, value-for-value on valid
// lines and error-for-error on malformed ones. AppendJSON is the
// encoding twin, pinned byte-identical to json.Marshal.

package job

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"sync"
	"unicode/utf16"
	"unicode/utf8"
)

const (
	// decoderBufSize is the read-ahead window (it also amortizes read
	// syscalls on big streams). It bounds how far the
	// daemon reads past the arrivals it has queued, so backpressure
	// from a full session queue reaches the client quickly.
	decoderBufSize = 64 << 10
	// maxLineBytes bounds a single arrival line so a malicious stream
	// cannot balloon the buffer.
	maxLineBytes = 1 << 20
)

// Decoder reads an NDJSON stream of jobs line by line. Acquire one
// with NewDecoder (or the pooled GetDecoder) and call Next per
// arrival; a fully drained stream returns io.EOF. Blank lines are
// skipped; the final line may omit its trailing newline. Decoder is
// not safe for concurrent use.
type Decoder struct {
	r     io.Reader
	buf   []byte
	start int // unconsumed window is buf[start:end]
	end   int
	rdErr error // sticky read error, surfaced once the window drains
	line  int   // lines consumed, for error context
	p     lineParser
}

// NewDecoder returns a decoder over r with a fresh buffer.
func NewDecoder(r io.Reader) *Decoder {
	d := &Decoder{buf: make([]byte, decoderBufSize)}
	d.Reset(r)
	return d
}

// Reset rebinds the decoder to a new stream, keeping its buffers.
func (d *Decoder) Reset(r io.Reader) {
	d.r = r
	d.start, d.end, d.rdErr, d.line = 0, 0, nil, 0
}

var decoderPool = sync.Pool{New: func() any { return NewDecoder(nil) }}

// GetDecoder hands out a pooled decoder bound to r. Return it with
// PutDecoder when the stream is done so its buffers are reused — the
// daemon's per-request path allocates no decoder state at all.
//
//schedlint:poolget
func GetDecoder(r io.Reader) *Decoder {
	d := decoderPool.Get().(*Decoder)
	d.Reset(r)
	return d
}

// PutDecoder returns a decoder to the pool.
//
//schedlint:poolput
func PutDecoder(d *Decoder) {
	d.Reset(nil)
	decoderPool.Put(d)
}

// Line returns the 1-based line number of the last line Next consumed
// — the error context for "arrival %d failed" reporting.
func (d *Decoder) Line() int { return d.line }

// Next parses the next arrival into *j. It returns io.EOF when the
// stream is fully drained, and a descriptive error (with the line
// number) for a malformed line. After an error the decoder continues
// with the following line, but the daemon treats the first error as
// fatal for the request.
//
//schedlint:hotpath
func (d *Decoder) Next(j *Job) error {
	for {
		line, err := d.nextLine()
		if err != nil {
			return err
		}
		d.line++
		if allWhitespace(line) {
			continue
		}
		if parseCanonical(line, j) {
			return nil
		}
		if err := d.p.parseJob(line, j); err != nil {
			return fmt.Errorf("job: ndjson line %d: %w", d.line, err) //schedlint:allowalloc terminal error path, request aborts
		}
		return nil
	}
}

// nextLine returns the next raw line (without its '\n'), reading more
// of the stream as needed into the reused buffer.
//
//schedlint:hotpath
func (d *Decoder) nextLine() ([]byte, error) {
	searched := 0 // bytes of the window already known '\n'-free
	for {
		window := d.buf[d.start:d.end]
		if i := bytes.IndexByte(window[searched:], '\n'); i >= 0 {
			i += searched
			line := window[:i]
			d.start += i + 1
			return line, nil
		}
		searched = len(window)
		if d.rdErr != nil {
			if len(window) == 0 {
				if d.rdErr == io.EOF {
					return nil, io.EOF
				}
				return nil, d.rdErr
			}
			// Final line without a trailing newline.
			d.start = d.end
			return window, nil
		}
		// Need more bytes: compact the window to the front, grow if it
		// already fills the buffer, then read.
		if d.start > 0 {
			copy(d.buf, window)
			d.start, d.end = 0, len(window)
		}
		if d.end == len(d.buf) {
			if len(d.buf) >= maxLineBytes {
				return nil, fmt.Errorf("job: ndjson line %d exceeds %d bytes", d.line+1, maxLineBytes) //schedlint:allowalloc terminal error path, request aborts
			}
			grown := make([]byte, min(2*len(d.buf), maxLineBytes)) //schedlint:allowalloc amortized doubling, capped at maxLineBytes
			copy(grown, d.buf[:d.end])
			d.buf = grown
		}
		n, err := d.r.Read(d.buf[d.end:])
		d.end += n
		if err != nil {
			d.rdErr = err
		} else if n == 0 {
			// A zero-byte, nil-error read: try again rather than spin
			// forever on a broken reader.
			d.rdErr = io.ErrNoProgress
		}
	}
}

func allWhitespace(b []byte) bool {
	for _, c := range b {
		if !isSpace(c) {
			return false
		}
	}
	return true
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\r' || c == '\n' }

// parseCanonical is the wire-shape fast path: the exact byte layout
// AppendJSON (and therefore every round-tripping client) emits —
//
//	{"id":N,"release":F,"deadline":F,"work":F,"value":F-or-"inf"}
//
// matched by literal prefix compares and grammar-validated number
// scans over local indices, with none of the general parser's
// per-byte dispatch. Any deviation (reordered or unusual keys,
// whitespace, escapes, null) reports false and falls back to the
// general parser, so the fast path changes nothing about the accepted
// language — only the cost of its common sentence.
//
//schedlint:hotpath
func parseCanonical(b []byte, j *Job) bool {
	i := 0
	match := func(lit string) bool {
		if len(b)-i >= len(lit) && string(b[i:i+len(lit)]) == lit {
			i += len(lit)
			return true
		}
		return false
	}
	num := func() (float64, bool) {
		tok, ni, ok := scanJSONNumber(b, i)
		if !ok {
			return 0, false
		}
		v, err := strconv.ParseFloat(string(tok), 64)
		if err != nil {
			return 0, false
		}
		i = ni
		return v, true
	}
	if !match(`{"id":`) {
		return false
	}
	tok, ni, ok := scanJSONNumber(b, i)
	if !ok {
		return false
	}
	id, err := strconv.ParseInt(string(tok), 10, 64)
	if err != nil {
		return false
	}
	i = ni
	if !match(`,"release":`) {
		return false
	}
	release, ok := num()
	if !ok {
		return false
	}
	if !match(`,"deadline":`) {
		return false
	}
	deadline, ok := num()
	if !ok {
		return false
	}
	if !match(`,"work":`) {
		return false
	}
	work, ok := num()
	if !ok {
		return false
	}
	if !match(`,"value":`) {
		return false
	}
	value := 0.0
	if match(`"inf"`) {
		value = math.Inf(1)
	} else if v, ok := num(); ok {
		value = v
	} else {
		return false
	}
	if i >= len(b) || b[i] != '}' {
		return false
	}
	for i++; i < len(b); i++ {
		if !isSpace(b[i]) {
			return false
		}
	}
	j.ID, j.Release, j.Deadline, j.Work, j.Value = int(id), release, deadline, work, value
	return true
}

// scanJSONNumber scans one JSON-grammar number token starting at i
// (stricter than strconv: no leading zeros, no "+", no bare-dot
// forms, no hex/underscores/Inf), returning the token and the index
// past it.
//
//schedlint:hotpath
func scanJSONNumber(b []byte, i int) ([]byte, int, bool) {
	start := i
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		for i < len(b) && b[i] >= '0' && b[i] <= '9' {
			i++
		}
	default:
		return nil, i, false
	}
	if i < len(b) && b[i] == '.' {
		i++
		if i >= len(b) || b[i] < '0' || b[i] > '9' {
			return nil, i, false
		}
		for i < len(b) && b[i] >= '0' && b[i] <= '9' {
			i++
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i >= len(b) || b[i] < '0' || b[i] > '9' {
			return nil, i, false
		}
		for i < len(b) && b[i] >= '0' && b[i] <= '9' {
			i++
		}
	}
	return b[start:i], i, true
}

// lineParser is the non-reflective field parser for one line. The
// scratch buffer (for unescaping rare escaped strings) lives in the
// Decoder so the steady-state path allocates nothing.
type lineParser struct {
	b       []byte
	i       int
	scratch []byte
}

// parseJob parses one JSON object into *j with json.Unmarshal's
// semantics for the Job wire format.
//
//schedlint:hotpath
func (p *lineParser) parseJob(line []byte, j *Job) error {
	p.b, p.i = line, 0
	*j = Job{}
	var valueRaw []byte
	p.ws()
	if p.peek() == 'n' {
		// A top-level null is a no-op in encoding/json: the job keeps
		// its zero value and no error is reported.
		if err := p.lit("null"); err != nil {
			return err
		}
		p.ws()
		if p.i != len(p.b) {
			return p.errAt("after top-level value")
		}
		return nil
	}
	if err := p.expect('{'); err != nil {
		return err
	}
	p.ws()
	if p.peek() == '}' {
		p.i++
	} else {
		for {
			p.ws()
			key, err := p.str()
			if err != nil {
				return err
			}
			p.ws()
			if err := p.expect(':'); err != nil {
				return err
			}
			p.ws()
			switch {
			case keyIs(key, "id"):
				if p.peek() == 'n' {
					if err := p.lit("null"); err != nil {
						return err
					}
					break // null leaves the field untouched
				}
				tok, err := p.number()
				if err != nil {
					return err
				}
				v, err := strconv.ParseInt(string(tok), 10, 64)
				if err != nil {
					return fmt.Errorf("cannot decode number %s into job id", tok) //schedlint:allowalloc terminal error path, request aborts
				}
				j.ID = int(v)
			case keyIs(key, "release"), keyIs(key, "deadline"), keyIs(key, "work"):
				if p.peek() == 'n' {
					if err := p.lit("null"); err != nil {
						return err
					}
					break
				}
				tok, err := p.number()
				if err != nil {
					return err
				}
				v, err := strconv.ParseFloat(string(tok), 64)
				if err != nil {
					return fmt.Errorf("cannot decode number %s", tok) //schedlint:allowalloc terminal error path, request aborts
				}
				switch {
				case keyIs(key, "release"):
					j.Release = v
				case keyIs(key, "deadline"):
					j.Deadline = v
				default:
					j.Work = v
				}
			case keyIs(key, "value"):
				// Job.UnmarshalJSON captures the value field raw and
				// interprets only the last occurrence after the whole
				// object parses; mirror that by recording the span here
				// and deferring interpretation to the end.
				from := p.i
				if err := p.skipValue(0); err != nil {
					return err
				}
				valueRaw = p.b[from:p.i]
			default:
				if err := p.skipValue(0); err != nil {
					return err
				}
			}
			p.ws()
			if c := p.peek(); c == ',' {
				p.i++
				continue
			} else if c == '}' {
				p.i++
				break
			}
			return p.errAt("after object member")
		}
	}
	p.ws()
	if p.i != len(p.b) {
		return p.errAt("after top-level object")
	}
	return p.applyValue(valueRaw, j)
}

// applyValue interprets the raw value span with Job.UnmarshalJSON's
// semantics: absent leaves zero, a number parses, null resolves to
// zero, and the strings "inf"/"+inf" (any case) mean +Inf.
//
//schedlint:coldpath
func (p *lineParser) applyValue(raw []byte, j *Job) error {
	if raw == nil {
		return nil
	}
	switch c := raw[0]; {
	case c == '"':
		p.b, p.i = raw, 0
		s, err := p.str()
		if err != nil {
			return err
		}
		if !foldIsInf(s) {
			return fmt.Errorf("job %d: unsupported value %q (want a number or \"inf\")", j.ID, s)
		}
		j.Value = math.Inf(1)
	case c == 'n': // null: the raw value decodes as a no-op onto zero
		j.Value = 0
	case c == '-' || ('0' <= c && c <= '9'):
		v, err := strconv.ParseFloat(string(raw), 64)
		if err != nil {
			return fmt.Errorf("cannot decode number %s", raw)
		}
		j.Value = v
	default: // true/false/objects/arrays cannot decode into a float64
		return fmt.Errorf("cannot decode %s into job value", raw)
	}
	return nil
}

// keyIs matches a decoded key against a lower-case field name with
// json.Unmarshal's case-insensitive fallback. The hot path is a plain
// ASCII fold; keys containing non-ASCII bytes take the full Unicode
// fold (characters like U+017F fold into ASCII, and encoding/json
// would match them).
//
//schedlint:hotpath
func keyIs(key []byte, name string) bool {
	nonASCII := false
	if len(key) == len(name) {
		match := true
		for i := 0; i < len(key); i++ {
			c := key[i]
			if c >= utf8.RuneSelf {
				nonASCII = true
				match = false
				break
			}
			if 'A' <= c && c <= 'Z' {
				c += 'a' - 'A'
			}
			if c != name[i] {
				match = false
			}
		}
		if match {
			return true
		}
	} else {
		for _, c := range key {
			if c >= utf8.RuneSelf {
				nonASCII = true
				break
			}
		}
	}
	return nonASCII && strings.EqualFold(string(key), name)
}

// foldIsInf reports whether the string is "inf" or "+inf" in any case.
func foldIsInf(s []byte) bool {
	if len(s) > 0 && s[0] == '+' {
		s = s[1:]
	}
	return keyIs(s, "inf")
}

//schedlint:hotpath
func (p *lineParser) peek() byte {
	if p.i < len(p.b) {
		return p.b[p.i]
	}
	return 0
}

//schedlint:hotpath
func (p *lineParser) ws() {
	for p.i < len(p.b) && isSpace(p.b[p.i]) {
		p.i++
	}
}

//schedlint:hotpath
func (p *lineParser) expect(c byte) error {
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return nil
	}
	return p.errAt(fmt.Sprintf("looking for %q", c)) //schedlint:allowalloc terminal error path, request aborts
}

//schedlint:hotpath
func (p *lineParser) lit(s string) error {
	if len(p.b)-p.i >= len(s) && string(p.b[p.i:p.i+len(s)]) == s {
		p.i += len(s)
		return nil
	}
	return p.errAt("in literal")
}

//schedlint:coldpath
func (p *lineParser) errAt(ctx string) error {
	if p.i >= len(p.b) {
		return fmt.Errorf("unexpected end of line %s", ctx)
	}
	return fmt.Errorf("invalid character %q at offset %d %s", p.b[p.i], p.i, ctx)
}

// number scans one JSON number token via the shared grammar scanner
// (stricter than strconv: no leading zeros, no "+", no bare "."
// forms, no hex/underscores/Inf).
//
//schedlint:hotpath
func (p *lineParser) number() ([]byte, error) {
	tok, ni, ok := scanJSONNumber(p.b, p.i)
	p.i = ni
	if !ok {
		return nil, p.errAt("in numeric literal")
	}
	return tok, nil
}

// str parses a JSON string. The fast path returns a subslice of the
// line; escapes fall back to unescaping into the reused scratch.
//
//schedlint:hotpath
func (p *lineParser) str() ([]byte, error) {
	if err := p.expect('"'); err != nil {
		return nil, err
	}
	start := p.i
	for p.i < len(p.b) {
		switch c := p.b[p.i]; {
		case c == '"':
			s := p.b[start:p.i]
			p.i++
			return s, nil
		case c == '\\':
			return p.strSlow(start)
		case c < 0x20:
			return nil, p.errAt("in string literal (unescaped control character)")
		default:
			p.i++
		}
	}
	return nil, p.errAt("in unterminated string")
}

// strSlow unescapes from the first backslash on, mirroring
// encoding/json: named escapes, \uXXXX with UTF-16 surrogate pairs,
// and lone surrogates replaced by U+FFFD without error.
//
//schedlint:coldpath
func (p *lineParser) strSlow(start int) ([]byte, error) {
	p.scratch = append(p.scratch[:0], p.b[start:p.i]...)
	for p.i < len(p.b) {
		c := p.b[p.i]
		switch {
		case c == '"':
			p.i++
			return p.scratch, nil
		case c < 0x20:
			return nil, p.errAt("in string literal (unescaped control character)")
		case c != '\\':
			p.scratch = append(p.scratch, c)
			p.i++
		default:
			p.i++
			if p.i >= len(p.b) {
				return nil, p.errAt("in string escape")
			}
			e := p.b[p.i]
			p.i++
			switch e {
			case '"', '\\', '/':
				p.scratch = append(p.scratch, e)
			case 'b':
				p.scratch = append(p.scratch, '\b')
			case 'f':
				p.scratch = append(p.scratch, '\f')
			case 'n':
				p.scratch = append(p.scratch, '\n')
			case 'r':
				p.scratch = append(p.scratch, '\r')
			case 't':
				p.scratch = append(p.scratch, '\t')
			case 'u':
				r, err := p.hex4()
				if err != nil {
					return nil, err
				}
				if utf16.IsSurrogate(r) {
					// A high surrogate pairs with an immediately
					// following low-surrogate escape; anything else
					// (including a lone low surrogate) becomes U+FFFD
					// without consuming the next escape — exactly
					// encoding/json's behaviour.
					if dec, ok := p.pairLowSurrogate(r); ok {
						r = dec
					} else {
						r = utf8.RuneError
					}
				}
				p.scratch = utf8.AppendRune(p.scratch, r)
			default:
				return nil, fmt.Errorf("invalid escape \\%c in string literal", e)
			}
		}
	}
	return nil, p.errAt("in unterminated string")
}

// pairLowSurrogate consumes a following \uXXXX escape if (and only
// if) r1 is a high surrogate and the escape is a low surrogate,
// returning the decoded rune.
//
//schedlint:coldpath
func (p *lineParser) pairLowSurrogate(r1 rune) (rune, bool) {
	if r1 >= 0xDC00 { // low surrogate first: never pairs
		return 0, false
	}
	save := p.i
	if p.i+1 < len(p.b) && p.b[p.i] == '\\' && p.b[p.i+1] == 'u' {
		p.i += 2
		if r2, err := p.hex4(); err == nil && 0xDC00 <= r2 && r2 < 0xE000 {
			return utf16.DecodeRune(r1, r2), true
		}
	}
	p.i = save
	return 0, false
}

//schedlint:coldpath
func (p *lineParser) hex4() (rune, error) {
	if p.i+4 > len(p.b) {
		return 0, p.errAt("in \\u escape")
	}
	var r rune
	for k := 0; k < 4; k++ {
		c := p.b[p.i+k]
		switch {
		case '0' <= c && c <= '9':
			r = r<<4 | rune(c-'0')
		case 'a' <= c && c <= 'f':
			r = r<<4 | rune(c-'a'+10)
		case 'A' <= c && c <= 'F':
			r = r<<4 | rune(c-'A'+10)
		default:
			return 0, fmt.Errorf("invalid character %q in \\u escape", c)
		}
	}
	p.i += 4
	return r, nil
}

// skipValue validates and discards one JSON value of any type — the
// unknown-field path. Depth is bounded so a pathological line cannot
// blow the stack.
//
//schedlint:coldpath
func (p *lineParser) skipValue(depth int) error {
	if depth > 64 {
		return fmt.Errorf("value nested deeper than 64 levels")
	}
	p.ws()
	switch c := p.peek(); {
	case c == '"':
		_, err := p.str()
		return err
	case c == '-' || ('0' <= c && c <= '9'):
		_, err := p.number()
		return err
	case c == 't':
		return p.lit("true")
	case c == 'f':
		return p.lit("false")
	case c == 'n':
		return p.lit("null")
	case c == '{':
		p.i++
		p.ws()
		if p.peek() == '}' {
			p.i++
			return nil
		}
		for {
			p.ws()
			if _, err := p.str(); err != nil {
				return err
			}
			p.ws()
			if err := p.expect(':'); err != nil {
				return err
			}
			if err := p.skipValue(depth + 1); err != nil {
				return err
			}
			p.ws()
			if c := p.peek(); c == ',' {
				p.i++
				continue
			} else if c == '}' {
				p.i++
				return nil
			}
			return p.errAt("after object member")
		}
	case c == '[':
		p.i++
		p.ws()
		if p.peek() == ']' {
			p.i++
			return nil
		}
		for {
			if err := p.skipValue(depth + 1); err != nil {
				return err
			}
			p.ws()
			if c := p.peek(); c == ',' {
				p.i++
				continue
			} else if c == ']' {
				p.i++
				return nil
			}
			return p.errAt("after array element")
		}
	default:
		return p.errAt("looking for a value")
	}
}

// AppendJSON appends the job's JSON encoding to dst, byte-identical to
// json.Marshal (including the "inf" value string) but without
// reflection or intermediate allocation. The job must be Validate-
// clean: NaN or -Inf fields — which json.Marshal refuses — are the
// caller's bug, not an encodable state.
//
//schedlint:hotpath
func AppendJSON(dst []byte, j Job) []byte {
	dst = append(dst, `{"id":`...)
	dst = strconv.AppendInt(dst, int64(j.ID), 10)
	dst = append(dst, `,"release":`...)
	dst = AppendFloat(dst, j.Release)
	dst = append(dst, `,"deadline":`...)
	dst = AppendFloat(dst, j.Deadline)
	dst = append(dst, `,"work":`...)
	dst = AppendFloat(dst, j.Work)
	dst = append(dst, `,"value":`...)
	if math.IsInf(j.Value, 1) {
		dst = append(dst, `"inf"`...)
	} else {
		dst = AppendFloat(dst, j.Value)
	}
	return append(dst, '}')
}

// AppendNDJSON appends one NDJSON line per job — AppendJSON plus a
// trailing newline each — the exact stream shape the ingest endpoint
// consumes and the WAL's batch records store.
//
//schedlint:hotpath
func AppendNDJSON(dst []byte, js []Job) []byte {
	for i := range js {
		dst = AppendJSON(dst, js[i])
		dst = append(dst, '\n')
	}
	return dst
}

// DecodeAll parses a complete NDJSON byte slice, appending every job
// onto dst. It is the cold-path counterpart of the streaming Decoder
// — WAL recovery and tests use it to rehydrate batch records in one
// call. The first malformed line fails the whole slice.
func DecodeAll(dst []Job, b []byte) ([]Job, error) {
	d := GetDecoder(bytes.NewReader(b))
	defer PutDecoder(d)
	for {
		var j Job
		if err := d.Next(&j); err != nil {
			if err == io.EOF {
				return dst, nil
			}
			return dst, err
		}
		dst = append(dst, j)
	}
}

// AppendString appends s as a JSON string literal with
// encoding/json-compatible escaping: control characters, quotes,
// backslashes, the HTML-sensitive runes, the JS line separators
// U+2028/U+2029, and invalid UTF-8 replaced by the escaped replacement
// character — byte-identical to json.Marshal of the same string,
// pinned by test. It is the single source of the wire string format;
// the daemon's hand-rolled response paths and the engine's spec and
// snapshot encoders all render strings through it.
//
//schedlint:hotpath
func AppendString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			switch {
			case c == '"':
				b = append(b, '\\', '"')
			case c == '\\':
				b = append(b, '\\', '\\')
			case c == '\n':
				b = append(b, '\\', 'n')
			case c == '\r':
				b = append(b, '\\', 'r')
			case c == '\t':
				b = append(b, '\\', 't')
			case c == '\b':
				b = append(b, '\\', 'b')
			case c == '\f':
				b = append(b, '\\', 'f')
			case c < 0x20, c == '<', c == '>', c == '&':
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			default:
				b = append(b, c)
			}
			i++
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, `\ufffd`...)
		case r == '\u2028', r == '\u2029':
			b = append(b, '\\', 'u', '2', '0', '2', byte('8'+r-'\u2028'))
		default:
			b = append(b, s[i:i+size]...)
		}
		i += size
	}
	return append(b, '"')
}

// AppendFloat appends a finite float64 formatted exactly like
// encoding/json: the shortest 'f' form in mid-range, 'e' with a
// trimmed one-digit exponent outside it. It is the single source of
// the wire float format — the daemon's hand-rolled snapshot encoding
// uses it too, so hot- and cold-path responses cannot drift apart.
//
//schedlint:hotpath
func AppendFloat(dst []byte, f float64) []byte {
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) { //schedlint:exactfloat zero sentinel picks the wire format
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// Clean up e-09 to e-9, as encoding/json does.
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}
