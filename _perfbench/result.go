package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints: the contract's
// correctness flag, the attempted/failed operation counts and the
// metrics of this run (end-to-end untraced, per-layer traced).
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects a run's output: gated metrics for the JSON line, plus
// informational lines (the issue-level metric names, sample counts,
// environment) printed before it.
type report struct {
	res    result
	info   []string
	checks []string // failed output checks, one line each
}

func newReport() *report {
	return &report{res: result{Correct: true, Metrics: map[string]metric{}}}
}

// set records a gated metric.
func (r *report) set(name string, v float64, unit string) {
	r.res.Metrics[name] = metric{Value: v, Unit: unit}
}

// note records an informational line.
func (r *report) note(format string, args ...any) {
	r.info = append(r.info, fmt.Sprintf(format, args...))
}

// fail records a failed output check; the run then reports
// correct=false and exits non-zero.
func (r *report) fail(format string, args ...any) {
	r.res.Correct = false
	r.checks = append(r.checks, fmt.Sprintf(format, args...))
}

// count adds attempted and failed operations.
func (r *report) count(attempted, failed int64) {
	r.res.Attempted += attempted
	r.res.Failed += failed
}

// write prints the informational lines, the failed checks and, last,
// the JSON result line.
func (r *report) write(w io.Writer) error {
	for _, l := range r.info {
		fmt.Fprintln(w, l)
	}
	for _, c := range r.checks {
		fmt.Fprintln(w, "CHECK FAILED:", c)
	}
	for name, m := range r.res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is not a finite number", name)
		}
	}
	b, err := json.Marshal(r.res)
	if err != nil {
		return fmt.Errorf("encoding result: %w", err)
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

// minBeyond is how many samples must lie beyond a percentile for it to
// be reported: a p99 needs at least 1000 samples.
const minBeyond = 10

// pct is one percentile of a sample set, with the evidence behind it.
type pct struct {
	Q      float64
	Value  float64
	N      int // samples in the set
	Beyond int // samples strictly above the percentile's rank
}

// OK reports whether the percentile has enough samples beyond it.
func (p pct) OK() bool { return p.Beyond >= minBeyond }

// String renders the percentile with its sample count.
func (p pct) String() string {
	if !p.OK() {
		return fmt.Sprintf("p%s unreported (n=%d, %d beyond < %d)", qName(p.Q), p.N, p.Beyond, minBeyond)
	}
	return fmt.Sprintf("p%s=%.1f (n=%d, %d beyond)", qName(p.Q), p.Value, p.N, p.Beyond)
}

func qName(q float64) string {
	return strings.TrimSuffix(strings.TrimRight(fmt.Sprintf("%.2f", q*100), "0"), ".")
}

// percentile returns the nearest-rank q-quantile of sorted values.
func percentile(sorted []float64, q float64) pct {
	n := len(sorted)
	p := pct{Q: q, N: n}
	if n == 0 {
		return p
	}
	idx := int(math.Ceil(q*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	p.Value = sorted[idx]
	p.Beyond = n - 1 - idx
	return p
}

// samples is a set of measurements in one unit.
type samples []float64

// sorted returns the values in ascending order (sorting in place).
func (s samples) sorted() []float64 {
	sort.Float64s(s)
	return s
}

// median returns the middle value of vals (the mean of the two middle
// values for an even count); NaN when empty.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	c := append([]float64(nil), vals...)
	sort.Float64s(c)
	m := len(c) / 2
	if len(c)%2 == 1 {
		return c[m]
	}
	return (c[m-1] + c[m]) / 2
}

// windowWidth is the window a live run's rate and percentiles are taken
// over: the gated figure is the median over the run's windows, so a
// burst of interference from outside the benchmark that spoils one or
// two windows does not move it.
const windowWidth = time.Second

// byWindow splits values into n windows of width w by the offset at
// which each completed; offsets past the last window fold into it.
func byWindow(at []time.Duration, vals []float64, w time.Duration, n int) []samples {
	n = max(n, 1)
	out := make([]samples, n)
	for i, a := range at {
		k := min(max(int(a/w), 0), n-1)
		out[k] = append(out[k], vals[i])
	}
	return out
}

// windowPct returns the median over windows of each window's
// q-percentile, and fails the run when a window's percentile lacks the
// samples beyond it that the reporting rule needs.
func (r *report) windowPct(name string, wins []samples, q float64) float64 {
	var vals []float64
	for _, w := range wins {
		p := percentile(w.sorted(), q)
		if !p.OK() {
			r.fail("%s: a window's %s", name, p)
		}
		vals = append(vals, p.Value)
	}
	return median(vals)
}

// pick returns the elements of xs named by idx.
func pick[T any](xs []T, idx []int) []T {
	out := make([]T, len(idx))
	for i, k := range idx {
		out[i] = xs[k]
	}
	return out
}

// windowRate returns the median over windows of completions per second.
func windowRate(wins []samples, w time.Duration) float64 {
	var rates []float64
	for _, x := range wins {
		rates = append(rates, float64(len(x))/w.Seconds())
	}
	return median(rates)
}
