package serve

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

func TestNextJSONValue(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"", nil},
		{"  \n\t ", nil},
		{`{}`, []string{`{}`}},
		{`{"a":1}{"b":2}`, []string{`{"a":1}`, `{"b":2}`}},
		{"{\"a\":1}\n{\"b\":2}\n", []string{`{"a":1}`, `{"b":2}`}},
		{`{"m":"}{","v":[1,2]} {"m":"\"x\\","v":[]}`, []string{`{"m":"}{","v":[1,2]}`, `{"m":"\"x\\","v":[]}`}},
		{`[1,2] [3]`, []string{`[1,2]`, `[3]`}},
		{`{"nested":{"deep":[{"x":1}]}}`, []string{`{"nested":{"deep":[{"x":1}]}}`}},
		{`null true 42`, []string{`null`, `true`, `42`}},
		{`"top level string"`, []string{`"top level string"`}},
	}
	for _, c := range cases {
		var got []string
		rest := []byte(c.in)
		for {
			val, r, err := nextJSONValue(rest)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("input %q: unexpected error %v", c.in, err)
			}
			got = append(got, string(val))
			rest = r
		}
		if len(got) != len(c.want) {
			t.Fatalf("input %q: got %d values %q, want %d", c.in, len(got), got, len(c.want))
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("input %q: value %d = %q, want %q", c.in, i, got[i], c.want[i])
			}
		}
	}
}

func TestNextJSONValueErrors(t *testing.T) {
	for _, in := range []string{`{"a":1`, `{"a":"unclosed`, `[1,2`, `}`, `]`, `{"a":1}}`} {
		rest := []byte(in)
		var err error
		for err == nil {
			_, rest, err = nextJSONValue(rest)
			if err == io.EOF {
				t.Fatalf("input %q: splitter accepted malformed framing", in)
			}
		}
	}
}

func TestReadFullBody(t *testing.T) {
	payload := strings.Repeat("quantile", 10_000)
	buf, err := readFullBody(strings.NewReader(payload), nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(buf) != payload {
		t.Fatalf("readFullBody mangled the payload: %d bytes vs %d", len(buf), len(payload))
	}
	// Reuse: a second read into the grown buffer must not reallocate.
	before := cap(buf)
	buf, err = readFullBody(bytes.NewReader([]byte(payload)), buf)
	if err != nil {
		t.Fatal(err)
	}
	if cap(buf) != before {
		t.Fatalf("readFullBody reallocated: cap %d -> %d", before, cap(buf))
	}
	if string(buf) != payload {
		t.Fatal("readFullBody mangled the payload on reuse")
	}
}

// TestIngestScratchPoolDropsOversized pins the pool hygiene of the buffers
// every ingest carrier decodes into: a buffer whose bytes or decoded arrays
// outgrew the cap is not returned to the pool.
func TestIngestScratchPoolDropsOversized(t *testing.T) {
	for _, big := range []*pooledBuf{
		{b: make([]byte, maxPooledFrameBytes+1)},
		{vs: make([]float64, 0, maxPooledFrameBytes/8+1)},
		{ws: make([]float64, 0, maxPooledFrameBytes/8+1)},
	} {
		big.refs.Store(1)
		big.release() // must be dropped, not pooled
		got := getFrameBuf(0)
		if got == big {
			t.Fatalf("oversized buffer (bytes %d, values %d, weights %d) survived in the pool",
				cap(big.b), cap(big.vs), cap(big.ws))
		}
		got.release()
	}
}
