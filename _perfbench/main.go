// Command perfbench is the repository's benchmark. It runs one named
// workload for a fixed time on inputs generated from a seed, checks the
// program's outputs, and prints its metrics; the last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage (from the repository root; run.sh builds the binary first):
//
//	bash _perfbench/run.sh --workload unary_small --seed 1 --seconds 40 --trace 0
//
// Workloads: unary_small (closed-loop small unary calls on the live
// stack), fleet_mix (open-loop fleet call mix on the live stack) and
// fleet_study (the simulator and analysis pipeline). With --trace 0 the
// metrics are the end-to-end ones; with --trace 1 the workload runs
// untraced and then traced, and the metrics are the per-layer ones plus
// the tracing overhead on each end-to-end metric. README.md describes
// every metric.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"
)

// workloadFunc runs one workload for rc.seconds and fills rc's report.
type workloadFunc func(rc *runCtx) error

var workloads = map[string]workloadFunc{
	"unary_small": runUnarySmall,
	"fleet_mix":   runFleetMix,
	"fleet_study": runFleetStudy,
}

// runCtx is one pass of a workload.
type runCtx struct {
	seed    uint64
	seconds float64
	traced  bool
	rep     *report
	rec     *recorder // span recorder; nil when untraced
	layers  map[string]metric
}

// layer records a per-layer metric (traced passes only).
func (rc *runCtx) layer(name string, v float64, unit string) {
	if rc.layers != nil {
		rc.layers[name] = metric{Value: v, Unit: unit}
	}
}

func main() {
	if os.Getenv(envRole) == roleServer {
		if err := serveChild(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	var (
		name    = flag.String("workload", "", "workload: unary_small, fleet_mix or fleet_study")
		seed    = flag.Uint64("seed", 1, "input seed")
		seconds = flag.Float64("seconds", 15, "measured seconds per pass")
		traced  = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced pass")
	)
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (unary_small, fleet_mix, fleet_study), --seconds > 0, --trace 0|1\n")
		os.Exit(2)
	}
	rep, err := execute(*name, run, *seed, *seconds, *traced == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := rep.write(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !rep.res.Correct || rep.res.Failed > 0 {
		os.Exit(1)
	}
}

// execute runs the workload untraced and, for a traced run, a second
// time traced, and assembles the report.
func execute(name string, run workloadFunc, seed uint64, seconds float64, traced bool) (*report, error) {
	rep := newReport()
	rep.note("perfbench workload=%s seed=%d seconds=%g trace=%v nproc=%d GOMAXPROCS=%d go=%s commit=%s",
		name, seed, seconds, traced, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit())
	rep.note("timer floor: %s", timerFloor())

	base := &runCtx{seed: seed, seconds: seconds, rep: newReport()}
	if err := run(base); err != nil {
		return nil, err
	}
	merge(rep, base.rep, "untraced: ")
	if !traced {
		rep.res.Metrics = base.rep.res.Metrics
		return rep, nil
	}

	tr := &runCtx{seed: seed, seconds: seconds, traced: true, rep: newReport(),
		rec: newRecorder(), layers: map[string]metric{}}
	if err := run(tr); err != nil {
		return nil, err
	}
	merge(rep, tr.rep, "traced: ")
	for _, l := range layerMetrics {
		m, ok := tr.layers[l.Name]
		switch in := exercises(name, l.Name); {
		case !ok && in:
			rep.fail("layer %s: %s exercises it, but the traced pass did not measure it", l.Name, name)
			m = metric{Value: 0, Unit: l.Unit}
		case !ok:
			rep.note("layer %s: not exercised by %s, reported as 0", l.Name, name)
			m = metric{Value: 0, Unit: l.Unit}
		case !in:
			return nil, fmt.Errorf("layer metric %s is outside %s's layer scope", l.Name, name)
		}
		if m.Unit != l.Unit {
			return nil, fmt.Errorf("layer metric %s has unit %s, declared %s", l.Name, m.Unit, l.Unit)
		}
		rep.set(l.Name, m.Value, m.Unit)
	}
	for _, e := range endToEnd {
		b, t := base.rep.res.Metrics[e.Name], tr.rep.res.Metrics[e.Name]
		rep.set("overhead."+e.Name, t.Value-b.Value, e.Unit)
		rep.note("tracing overhead %s: untraced %.4g, traced %.4g %s", e.Name, b.Value, t.Value, e.Unit)
	}
	path, err := tr.rec.dump(name, seed)
	if err != nil {
		return nil, err
	}
	rep.note("spans: %d written to %s", tr.rec.len(), path)
	for _, l := range tr.rec.selfTimes() {
		rep.note("self time %-28s %10.3f ms over %d spans", l.name, l.self.Seconds()*1e3, l.count)
	}
	if missing := missingLayers(tr.layers); len(missing) > 0 {
		return nil, fmt.Errorf("traced pass set undeclared layer metrics: %s", strings.Join(missing, ", "))
	}
	return rep, nil
}

// merge folds a pass's counts, notes and checks into the run's report.
func merge(dst, src *report, prefix string) {
	dst.count(src.res.Attempted, src.res.Failed)
	for _, l := range src.info {
		dst.info = append(dst.info, prefix+l)
	}
	for _, c := range src.checks {
		dst.fail("%s%s", prefix, c)
	}
}

// missingLayers lists per-layer metric names a pass set that the
// declared table lacks.
func missingLayers(set map[string]metric) []string {
	declared := map[string]bool{}
	for _, l := range layerMetrics {
		declared[l.Name] = true
	}
	var out []string
	for n := range set {
		if !declared[n] {
			out = append(out, n)
		}
	}
	return out
}

// commit names the source revision run.sh recorded: the git commit, or
// a digest of the sources outside a git checkout.
func commit() string {
	if v := os.Getenv("PERFBENCH_COMMIT"); v != "" {
		return v
	}
	return "unknown"
}

// timerFloor measures how far time.Sleep overshoots short sleeps on this
// machine: the floor under any open-loop lateness figure.
func timerFloor() string {
	var parts []string
	for _, d := range []time.Duration{20 * time.Microsecond, 200 * time.Microsecond, 2 * time.Millisecond} {
		var over time.Duration
		const n = 20
		for i := 0; i < n; i++ {
			t0 := time.Now()
			time.Sleep(d)
			over += time.Since(t0) - d
		}
		parts = append(parts, fmt.Sprintf("sleep %v overshoots %v", d, over/n))
	}
	return strings.Join(parts, ", ")
}
