package main

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// minBeyond is the percentile rule: a percentile is reported only when
// at least this many samples lie strictly beyond its rank.
const minBeyond = 10

// samplesBeyond is how many of n samples lie beyond the nearest-rank
// p-th percentile (rank ceil(p/100*n), 1-based).
func samplesBeyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return n - rank
}

// minSamples is the smallest sample count at which the p-th percentile
// satisfies the percentile rule.
func minSamples(p float64) int {
	n := 1
	for samplesBeyond(n, p) < minBeyond {
		n++
	}
	return n
}

// percentile returns the nearest-rank p-th percentile of xs, or an error
// when the percentile rule does not hold. xs need not be sorted.
func percentile(xs []float64, p float64) (float64, error) {
	if samplesBeyond(len(xs), p) < minBeyond {
		return 0, fmt.Errorf("p%g needs %d samples, have %d", p, minSamples(p), len(xs))
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1], nil
}

// median is the middle value of xs (mean of the two middles for even
// n), without the percentile rule; 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// samples collects latency samples per class from concurrent clients.
type samples struct {
	mu sync.Mutex
	by map[string][]float64
}

func newSamples() *samples { return &samples{by: make(map[string][]float64)} }

func (s *samples) add(class string, v float64) {
	s.mu.Lock()
	s.by[class] = append(s.by[class], v)
	s.mu.Unlock()
}

func (s *samples) get(class string) []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]float64(nil), s.by[class]...)
}

func (s *samples) count(class string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.by[class])
}

// need is one percentile a run must be able to report.
type need struct {
	class string
	p     float64
}

// satisfied reports whether every need has enough samples.
func (s *samples) satisfied(needs []need) bool {
	for _, n := range needs {
		if samplesBeyond(s.count(n.class), n.p) < minBeyond {
			return false
		}
	}
	return true
}

// ledger counts operations attempted and failed. An operation fails when
// its response is not OK, its output differs from the reference, or its
// session was lost; a failed operation is never retried or skipped.
type ledger struct {
	attempted atomic.Int64
	failed    atomic.Int64

	mu    sync.Mutex
	first []string // the first few failure descriptions
}

// op records one operation; why describes a failure ("" = success).
func (l *ledger) op(why string) {
	l.attempted.Add(1)
	if why == "" {
		return
	}
	l.failed.Add(1)
	l.mu.Lock()
	if len(l.first) < 5 {
		l.first = append(l.first, why)
	}
	l.mu.Unlock()
}

// failures returns the first recorded failure descriptions.
func (l *ledger) failures() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.first...)
}
