package main

import (
	"reflect"
	"strings"
	"testing"
)

// TestParseBenchStripsProcsSuffix: go test appends "-N" (GOMAXPROCS) to
// every benchmark name when N > 1, and only then. Parsed names must come out
// the same on any host, and hyphens or digits elsewhere in a name must
// survive.
func TestParseBenchStripsProcsSuffix(t *testing.T) {
	const text = `goos: linux
goarch: amd64
pkg: mrl
cpu: Some CPU @ 2.00GHz
BenchmarkAdd/new/b=5/k=64-2                     	 1000000	        31.5 ns/op
BenchmarkAdd/new/b=5/k=64                       	 1000000	        30.5 ns/op
BenchmarkAdd/alsabti-ranka-singh/b=10/k=596-16  	 1000000	        40.0 ns/op	       0 B/op	       0 allocs/op
BenchmarkAdd/alsabti-ranka-singh/b=10/k=596     	 1000000	        41.0 ns/op
BenchmarkRecoveryReplay-4                       	      10	    100000 ns/op	  12.50 MB/s
BenchmarkRecoveryReplay                         	      10	    110000 ns/op
PASS
ok  	mrl	1.234s
`
	f, err := parseBench(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Headers) != 4 {
		t.Fatalf("headers %q, want 4", f.Headers)
	}
	var names []string
	for _, b := range f.Benchmarks {
		names = append(names, b.Name)
	}
	want := []string{
		"BenchmarkAdd/new/b=5/k=64",
		"BenchmarkAdd/new/b=5/k=64",
		"BenchmarkAdd/alsabti-ranka-singh/b=10/k=596",
		"BenchmarkAdd/alsabti-ranka-singh/b=10/k=596",
		"BenchmarkRecoveryReplay",
		"BenchmarkRecoveryReplay",
	}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("names %q, want %q", names, want)
	}
	if b := f.Benchmarks[2]; b.NsPerOp != 40 || !b.HasAllocs || !b.HasBytes {
		t.Fatalf("suffixed line lost its metrics: %+v", b)
	}
	if b := f.Benchmarks[4]; b.MBPerSec != 12.5 || !b.HasMB {
		t.Fatalf("suffixed line lost its MB/s: %+v", b)
	}
	// Suffixed and unsuffixed runs pool under one name for the gate.
	med := medians(f)
	if len(med) != 3 {
		t.Fatalf("medians over %d names, want 3: %v", len(med), med)
	}
	if got := med["BenchmarkAdd/new/b=5/k=64"]; got != 31 {
		t.Fatalf("median %v, want 31", got)
	}
}
