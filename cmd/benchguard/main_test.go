package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleBench = `goos: linux
goarch: amd64
pkg: dfdbg
BenchmarkFilterC-4           	     100	    160000 ns/op	        1000 stmts/op
BenchmarkFilterC-4           	     100	    180000 ns/op	        1000 stmts/op
BenchmarkFilterC-4           	     100	    170000 ns/op	        1000 stmts/op
BenchmarkObsOverhead/disabled-4  	       3	  66000000 ns/op
BenchmarkObsOverhead/events-4    	       3	  69000000 ns/op
PASS
`

func TestParseBench(t *testing.T) {
	got, err := parseBench(strings.NewReader(sampleBench))
	if err != nil {
		t.Fatal(err)
	}
	if n := len(got["BenchmarkFilterC"]); n != 3 {
		t.Errorf("FilterC samples = %d, want 3", n)
	}
	if v := got["BenchmarkObsOverhead/disabled"]; len(v) != 1 || v[0] != 66000000 {
		t.Errorf("sub-benchmark samples = %v", v)
	}
	if med := median(got["BenchmarkFilterC"]); med != 170000 {
		t.Errorf("median = %g, want 170000", med)
	}
}

func TestResolvePath(t *testing.T) {
	doc := map[string]any{
		"default_engine": map[string]any{"ns_per_op": 162383.0},
		"note":           "text",
	}
	if v, err := resolvePath(doc, "default_engine.ns_per_op"); err != nil || v != 162383 {
		t.Errorf("resolve = %g, %v", v, err)
	}
	if _, err := resolvePath(doc, "default_engine.missing"); err == nil {
		t.Error("missing key resolved")
	}
	if _, err := resolvePath(doc, "note"); err == nil {
		t.Error("non-number resolved")
	}
}

// writeBaseline drops a baseline JSON into a temp dir.
func writeBaseline(t *testing.T, body string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), "base.json")
	if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestRunVerdicts(t *testing.T) {
	base := writeBaseline(t, `{"default_engine":{"ns_per_op":162383},
		"macro":{"disabled_ns_per_op":66296745}}`)
	maps := mappingList{
		{bench: "BenchmarkFilterC", path: "default_engine.ns_per_op"},
		{bench: "BenchmarkObsOverhead/disabled", path: "macro.disabled_ns_per_op"},
	}
	var out strings.Builder
	if err := run(strings.NewReader(sampleBench), &out, base, 2, maps, nil); err != nil {
		t.Fatalf("within-ratio run failed: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "ok") {
		t.Errorf("output lacks verdicts:\n%s", out.String())
	}

	// A 10x regression fails loudly.
	slow := strings.ReplaceAll(sampleBench, "160000 ns/op", "1600000 ns/op")
	slow = strings.ReplaceAll(slow, "180000 ns/op", "1800000 ns/op")
	slow = strings.ReplaceAll(slow, "170000 ns/op", "1700000 ns/op")
	out.Reset()
	err := run(strings.NewReader(slow), &out, base, 2, maps, nil)
	if err == nil || !strings.Contains(err.Error(), "regressed") {
		t.Fatalf("regression not caught: %v\n%s", err, out.String())
	}

	// A mapped benchmark absent from the input is an error.
	maps = append(maps, mapping{bench: "BenchmarkGone", path: "default_engine.ns_per_op"})
	if err := run(strings.NewReader(sampleBench), &out, base, 2, maps, nil); err == nil ||
		!strings.Contains(err.Error(), "not found") {
		t.Fatalf("missing benchmark not caught: %v", err)
	}
}

func TestMappingFlag(t *testing.T) {
	var m mappingList
	if err := m.Set("BenchmarkX=a.b"); err != nil {
		t.Fatal(err)
	}
	if err := m.Set("garbage"); err == nil {
		t.Error("malformed mapping accepted")
	}
	if len(m) != 1 || m[0].bench != "BenchmarkX" || m[0].path != "a.b" {
		t.Errorf("mapping = %+v", m)
	}
}

const attachedBench = `BenchmarkDecodeAttached/detached-2   	      10	  14000000 ns/op
BenchmarkDecodeAttached/detached-2   	      10	  15000000 ns/op
BenchmarkDecodeAttached/detached-2   	      10	  90000000 ns/op
BenchmarkDecodeAttached/attached-2   	      10	  26000000 ns/op
BenchmarkDecodeAttached/attached-2   	      10	  25000000 ns/op
BenchmarkDecodeAttached/attached-2   	      10	  27000000 ns/op
`

func TestRatioFlag(t *testing.T) {
	var r ratioList
	if err := r.Set("BenchmarkD/attached/BenchmarkD/detached<=2"); err != nil {
		t.Fatal(err)
	}
	if err := r.Set("BenchmarkA/BenchmarkB <= 1.5"); err != nil {
		t.Fatal(err)
	}
	want := ratioList{{"BenchmarkD/attached", "BenchmarkD/detached", 2}, {"BenchmarkA", "BenchmarkB", 1.5}}
	if len(r) != 2 || r[0] != want[0] || r[1] != want[1] {
		t.Errorf("ratios = %+v", r)
	}
	for _, bad := range []string{"BenchmarkA/BenchmarkB", "BenchmarkA<=2", "BenchmarkA/BenchmarkB<=x", "BenchmarkA/BenchmarkB<=0"} {
		if err := r.Set(bad); err == nil {
			t.Errorf("malformed ratio %q accepted", bad)
		}
	}
}

// TestRunRatio: the ratio of medians is checked against its limit, with
// no baseline file; a missing side is an error.
func TestRunRatio(t *testing.T) {
	ratio := func(limit float64) ratioList {
		return ratioList{{"BenchmarkDecodeAttached/attached", "BenchmarkDecodeAttached/detached", limit}}
	}
	var out strings.Builder
	// median 26e6 / median 15e6 = 1.73: the 90e6 outlier does not count.
	if err := run(strings.NewReader(attachedBench), &out, "", 2, nil, ratio(2)); err != nil {
		t.Fatalf("ratio within bound failed: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "ratio  1.73") || !strings.Contains(out.String(), "ok") {
		t.Errorf("output:\n%s", out.String())
	}
	out.Reset()
	if err := run(strings.NewReader(attachedBench), &out, "", 2, nil, ratio(1.5)); err == nil ||
		!strings.Contains(out.String(), "REGRESSION") {
		t.Fatalf("ratio over bound not caught: %v\n%s", err, out.String())
	}
	missing := ratioList{{"BenchmarkDecodeAttached/attached", "BenchmarkGone", 2}}
	if err := run(strings.NewReader(attachedBench), &out, "", 2, nil, missing); err == nil ||
		!strings.Contains(err.Error(), "not found") {
		t.Fatalf("missing benchmark not caught: %v", err)
	}
	if err := run(strings.NewReader(attachedBench), &out, "", 2, nil, nil); err == nil {
		t.Fatal("no checks accepted")
	}
}
