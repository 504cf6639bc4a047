// Command benchguard compares `go test -bench` output against the
// repo's pinned BENCH_*.json baselines and fails on regressions.
//
// Usage:
//
//	go test -run xxx -bench BenchmarkFilterC -benchtime 100x . | \
//	  benchguard -baseline BENCH_filterc.json -max-ratio 2 \
//	    -m 'BenchmarkFilterC=default_engine.ns_per_op'
//
// Each -m flag maps a benchmark name (sub-benchmarks use their slash
// form, CPU suffixes are stripped) to the dotted path of its pinned
// ns/op inside the baseline JSON. The absolute numbers in the baselines
// are host-specific, so the guard is deliberately loose: it only fails
// when the measured median exceeds max-ratio times the pinned value —
// catching structural regressions (an accidental O(n^2), a lost cache),
// not CI-runner noise. A mapped benchmark missing from the input is an
// error: a guard that silently stops measuring is worse than none.
//
// A -ratio flag bounds the ratio of two benchmarks measured in the same
// run instead, which needs no host-specific baseline:
//
//	go test -run xxx -bench BenchmarkDecodeAttached -benchtime 5x -count 3 . | \
//	  benchguard -ratio 'BenchmarkDecodeAttached/attached/BenchmarkDecodeAttached/detached<=2'
//
// The spec is NUM/DEN<=LIMIT; DEN starts at the last "/Benchmark", so
// both sides may be sub-benchmarks. It fails when median(NUM) over
// median(DEN) exceeds LIMIT.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// mapping binds one benchmark to its baseline path.
type mapping struct {
	bench string
	path  string
}

type mappingList []mapping

func (m *mappingList) String() string { return fmt.Sprint(*m) }

func (m *mappingList) Set(s string) error {
	name, path, ok := strings.Cut(s, "=")
	if !ok || name == "" || path == "" {
		return fmt.Errorf("want BenchmarkName=dotted.json.path, got %q", s)
	}
	*m = append(*m, mapping{bench: name, path: path})
	return nil
}

// ratioCheck bounds median(num)/median(den) by max.
type ratioCheck struct {
	num, den string
	max      float64
}

type ratioList []ratioCheck

func (r *ratioList) String() string { return fmt.Sprint(*r) }

func (r *ratioList) Set(s string) error {
	lhs, limit, ok := strings.Cut(s, "<=")
	i := strings.LastIndex(lhs, "/Benchmark")
	if !ok || i <= 0 {
		return fmt.Errorf("want BenchmarkA/BenchmarkB<=limit, got %q", s)
	}
	max, err := strconv.ParseFloat(strings.TrimSpace(limit), 64)
	if err != nil || max <= 0 {
		return fmt.Errorf("bad ratio limit in %q", s)
	}
	*r = append(*r, ratioCheck{num: strings.TrimSpace(lhs[:i]), den: strings.TrimSpace(lhs[i+1:]), max: max})
	return nil
}

func main() {
	var (
		baseline = flag.String("baseline", "", "pinned baseline JSON file")
		maxRatio = flag.Float64("max-ratio", 2, "fail when measured/baseline exceeds this")
		maps     mappingList
		ratios   ratioList
	)
	flag.Var(&maps, "m", "BenchmarkName=dotted.json.path (repeatable)")
	flag.Var(&ratios, "ratio", "BenchmarkA/BenchmarkB<=limit: same-run ratio bound (repeatable)")
	flag.Parse()
	in := io.Reader(os.Stdin)
	if flag.NArg() == 1 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchguard: %v\n", err)
			os.Exit(2)
		}
		defer f.Close()
		in = f
	}
	if err := run(in, os.Stdout, *baseline, *maxRatio, maps, ratios); err != nil {
		fmt.Fprintf(os.Stderr, "benchguard: %v\n", err)
		os.Exit(1)
	}
}

func run(in io.Reader, out io.Writer, baselineFile string, maxRatio float64,
	maps mappingList, ratios ratioList) error {
	if (baselineFile == "") != (len(maps) == 0) || len(maps)+len(ratios) == 0 {
		return fmt.Errorf("usage: benchguard [-baseline FILE -m Bench=path ...] [-ratio A/B<=x ...] [bench-output]")
	}
	var doc map[string]any
	if baselineFile != "" {
		raw, err := os.ReadFile(baselineFile)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(raw, &doc); err != nil {
			return fmt.Errorf("%s: %w", baselineFile, err)
		}
	}
	results, err := parseBench(in)
	if err != nil {
		return err
	}
	var failures []string
	for _, r := range ratios {
		num, den := results[r.num], results[r.den]
		for name, samples := range map[string][]float64{r.num: num, r.den: den} {
			if len(samples) == 0 {
				return fmt.Errorf("benchmark %s not found in input (did it run?)", name)
			}
		}
		ratio := median(num) / median(den)
		verdict := "ok"
		if ratio > r.max {
			verdict = "REGRESSION"
			failures = append(failures, r.num+"/"+r.den)
		}
		fmt.Fprintf(out, "%-44s ratio %5.2f over %s (limit %g)  %s\n",
			r.num, ratio, r.den, r.max, verdict)
	}
	for _, m := range maps {
		base, err := resolvePath(doc, m.path)
		if err != nil {
			return fmt.Errorf("%s: %w", baselineFile, err)
		}
		samples := results[m.bench]
		if len(samples) == 0 {
			return fmt.Errorf("benchmark %s not found in input (did it run?)", m.bench)
		}
		cur := median(samples)
		ratio := cur / base
		verdict := "ok"
		switch {
		case ratio > maxRatio:
			verdict = "REGRESSION"
			failures = append(failures, m.bench)
		case ratio < 1/maxRatio:
			verdict = "improved (re-pin baseline?)"
		}
		fmt.Fprintf(out, "%-44s %12.0f ns/op  baseline %12.0f  ratio %5.2f  %s\n",
			m.bench, cur, base, ratio, verdict)
	}
	if len(failures) > 0 {
		return fmt.Errorf("%d benchmark(s) regressed beyond their bound: %s",
			len(failures), strings.Join(failures, ", "))
	}
	return nil
}

// benchLine matches `BenchmarkName-8   100   162383 ns/op ...` (the -N
// CPU suffix is optional and stripped).
var benchLine = regexp.MustCompile(`^(Benchmark[^\s]+?)(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op`)

// parseBench collects every ns/op sample per benchmark name from go
// test -bench output (repeated -count runs yield multiple samples).
func parseBench(r io.Reader) (map[string][]float64, error) {
	out := make(map[string][]float64)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		v, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			continue
		}
		out[m[1]] = append(out[m[1]], v)
	}
	return out, sc.Err()
}

// resolvePath walks a dotted path through nested JSON objects to a
// number.
func resolvePath(doc map[string]any, path string) (float64, error) {
	cur := any(doc)
	for _, part := range strings.Split(path, ".") {
		obj, ok := cur.(map[string]any)
		if !ok {
			return 0, fmt.Errorf("path %q: %q is not an object", path, part)
		}
		cur, ok = obj[part]
		if !ok {
			return 0, fmt.Errorf("path %q: key %q not found", path, part)
		}
	}
	v, ok := cur.(float64)
	if !ok {
		return 0, fmt.Errorf("path %q: not a number (%T)", path, cur)
	}
	return v, nil
}

// median of samples (middle of the sorted slice; noise-resistant
// compared to the mean on shared CI runners).
func median(s []float64) float64 {
	s = append([]float64(nil), s...)
	sort.Float64s(s)
	return s[len(s)/2]
}
