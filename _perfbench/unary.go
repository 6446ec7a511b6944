package main

import (
	"context"
	"runtime"
	"sync"
	"time"
)

// unaryCallers is the concurrency of unary_small's latency phase: two
// callers sharing one connection.
const unaryCallers = 2

// unarySatCallers is the concurrency of unary_small's throughput phase,
// on the same connection. With two callers the processes idle between
// calls, and the rate follows how fast the host wakes an idle vCPU: over
// ten runs it spread by 0.26-0.36 while p50 and CPU per call spread by
// under 0.08. With enough calls in flight to keep both processes busy,
// the rate follows the stack's CPU cost per call instead.
const unarySatCallers = 16

// satShare is the share of the run the throughput phase takes.
//
// The phase's gated figure is the capacity the stack shows there: calls
// per CPU-second of the client and the server together, times the
// unaryVCPUs they run on. The wall-clock rate is printed but not gated.
// Keeping both vCPUs busy is what exposes a run to the host: when
// another guest wants the same cores, the hypervisor steals from the
// busy vCPUs, and a stall on either end of the one connection idles the
// other. In ten 40 s runs, two had a fifth of their CPU time stolen for
// the whole phase and their rate fell from 45000-51000 to 27000 calls/s,
// while CPU per call in the 2-caller phase, which leaves the vCPUs idle
// part of the time, stayed within 47-58 us in all ten.
const satShare = 2.0 / 3

// minClean is the fewest windows with little steal that unary_small's
// p50 is taken over (see clean).
const minClean = 5

// unaryProcs is GOMAXPROCS in both of unary_small's processes, so each
// runs on one vCPU of the two. With GOMAXPROCS 2 in each, a call's
// goroutine handoffs wake idle threads across vCPUs, and what that costs
// moves with the host: in interleaved runs on a quiet host, p50 read
// 93-130 us and CPU per call 77-97 us, against 60-62 us and 49-52 us
// with one P per process. The calls stay on the inline path either way.
const unaryProcs = 1

// unaryVCPUs is how many vCPUs unary_small's two processes can keep busy.
const unaryVCPUs = 2 * unaryProcs

// unaryTraceEvery is the traced pass's head sampling: one call in this
// many keeps its plane span and its benchmark span.
const unaryTraceEvery = 8

// satIDBase offsets the throughput phase's call IDs past the latency
// phase's, so a traced call's ID names one call.
const satIDBase = 1 << 40

// runUnarySmall is the closed-loop small-call workload: callers on one
// connection issue unary calls with sizes from the seeded catalog, every
// sealed frame at most 4 KiB, random payloads, no compression and
// (untraced) no telemetry plane. The first third of the run times calls
// with two callers; the rest measures throughput with unarySatCallers.
func runUnarySmall(rc *runCtx) (err error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(unaryProcs))
	cfg := stackConfig{Workload: "unary_small", Seed: rc.seed, Traced: rc.traced, SampleEvery: unaryTraceEvery}
	var specs []callSpec
	var catalogMs float64
	st, setup, err := setupLive(cfg, func() (*payloads, []callSpec) {
		t0 := time.Now()
		cat := liveCatalog()
		catalogMs = time.Since(t0).Seconds() * 1e3
		specs = smallSpecs(cat, rc.seed, 1<<14)
		return newPayloads(rc.seed, smallMax), specs[:500]
	})
	if err != nil {
		return err
	}
	defer func() {
		if cerr := st.close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	rc.layer("fleet.catalog_build_ms", catalogMs, "ms")

	before, err := st.mark()
	if err != nil {
		return err
	}
	total := time.Duration(rc.seconds * float64(time.Second))
	satDur := time.Duration(float64(total) * satShare).Truncate(windowWidth)
	lat, err := closedLoop(st, specs, loopConfig{callers: unaryCallers, dur: total - satDur, latencies: true, rec: rc.rec})
	if err != nil {
		return err
	}
	mid, err := st.mark()
	if err != nil {
		return err
	}
	sat, err := closedLoop(st, specs, loopConfig{callers: unarySatCallers, dur: satDur, idBase: satIDBase})
	if err != nil {
		return err
	}
	after, err := st.mark()
	if err != nil {
		return err
	}
	win, satWin, all := mid.since(before), after.since(mid), after.since(before)

	for _, r := range []loopResult{lat, sat} {
		rc.rep.count(r.attempted, r.failed)
		for _, e := range r.errs {
			rc.rep.fail("call: %v", e)
		}
	}
	checkWindow(rc, all, "unary_small")
	attempted, failed := lat.attempted+sat.attempted, lat.failed+sat.failed
	if all.served != uint64(attempted) {
		rc.rep.fail("server child served %d calls, client attempted %d", all.served, attempted)
	}
	done := lat.done()
	if done == 0 || sat.done() == 0 {
		rc.rep.fail("no call completed")
		return nil
	}
	sorted := make(samples, 0, done)
	for _, w := range lat.wins {
		sorted = append(sorted, w...)
	}
	sorted.sorted()
	p50, p99 := percentile(sorted, 0.5), percentile(sorted, 0.99)
	rss, err := rssMiB(st, after.client)
	if err != nil {
		return err
	}
	cpu := us(win.client.CPU+win.server.CPU) / float64(done)

	rc.rep.set("setup_s", setup, "s")
	satCPU := satWin.client.CPU + satWin.server.CPU
	if satCPU <= 0 {
		rc.rep.fail("throughput phase: client and server used no CPU time")
		return nil
	}
	capacity := unaryVCPUs * float64(sat.done()) / satCPU.Seconds()
	rc.rep.set("ops_per_s", capacity, "1/s")
	latClean := lat.clean()
	w50 := rc.rep.windowPct("p50_us", pick(lat.wins, latClean), 0.5)
	w99 := rc.rep.windowPct("p99_us", pick(lat.wins, latClean), 0.99)
	rc.rep.set("p50_us", w50, "us")
	rc.rep.set("cpu_us_per_op", cpu, "us")
	rc.rep.set("rss_peak_MiB", rss, "MiB")

	rc.rep.note("GOMAXPROCS %d in the client and in the server child", unaryProcs)
	rc.rep.note("setup_s %.4f s (median of %d: child spawn, dial, warmup, catalog)", setup, setupRuns)
	lo, hi := sat.windowRange()
	rc.rep.note("capacity_cps %.1f calls/s (%d calls per %.3f CPU-seconds of client + server, times %d vCPUs; %d callers, 1 connection; the processes kept %.0f%% of the vCPUs busy)",
		capacity, sat.done(), satCPU.Seconds(), unaryVCPUs, unarySatCallers, 100*satCPU.Seconds()/(unaryVCPUs*sat.elapsed.Seconds()))
	rc.rep.note("calls_per_s %.1f calls/s (not gated; median of %d of %d windows of %v, which ranged %d-%d calls; %s)",
		sat.rate(), len(sat.clean()), len(sat.counts), windowWidth, lo, hi, stealNote(sat.steal))
	lo, hi = lat.windowRange()
	rc.rep.note("closed-loop rate %.1f calls/s with %d callers (not gated; median of the same %d of %d windows, which ranged %d-%d calls)",
		lat.rate(), unaryCallers, len(latClean), len(lat.counts), lo, hi)
	rc.rep.note("p50_us %.1f us (median of %d of %d window p50s, %d callers; %s); whole phase %s",
		w50, len(latClean), len(lat.counts), unaryCallers, stealNote(lat.steal), p50)
	rc.rep.note("p99_us %.1f us (median of the same window p99s); whole phase %s", w99, p99)
	rc.rep.note("fail_ratio %.6f ratio (%d of %d)", float64(failed)/float64(max(attempted, 1)), failed, attempted)
	rc.rep.note("cpu_us_per_call %.3f us (client %.3f + server %.3f; %d callers)",
		cpu, us(win.client.CPU)/float64(done), us(win.server.CPU)/float64(done), unaryCallers)
	rc.rep.note("rss_peak_MiB %.1f MiB (client + server child)", rss)

	if rc.traced {
		// Only a traced pass has a plane to count codec jobs: none may
		// run, or the workload is not the inline-path control it claims.
		if all.codecJobs != 0 {
			rc.rep.fail("unary_small: %d frames went to the codec worker pool, want 0", all.codecJobs)
		}
		var bulk int64 // unary_small never reaches the bulk threshold
		liveLayers(rc, st, win, done, bulk)
		if err := replayLayers(rc, st.pays, specs); err != nil {
			return err
		}
	}
	return nil
}

// loopResult is one closed-loop phase: the calls each window completed
// and, when asked for, their latencies. Each caller files latencies
// straight into windows by completion time, so the phase keeps one copy
// of them.
type loopResult struct {
	counts    []int
	wins      []samples // nil unless latencies were asked for
	attempted int64
	failed    int64
	errs      []error
	elapsed   time.Duration
	steal     []float64 // each window's steal share
}

func (r loopResult) done() int64 {
	var n int64
	for _, c := range r.counts {
		n += int64(c)
	}
	return n
}

func (r loopResult) clean() []int { return clean(r.steal, minClean) }

// rate is the median over clean windows of calls completed per second.
func (r loopResult) rate() float64 {
	var rates []float64
	for _, k := range r.clean() {
		rates = append(rates, float64(r.counts[k])/windowWidth.Seconds())
	}
	return median(rates)
}

// windowRange returns the fewest and most calls any window completed.
func (r loopResult) windowRange() (lo, hi int) {
	lo = r.counts[0]
	for _, c := range r.counts {
		lo, hi = min(lo, c), max(hi, c)
	}
	return lo, hi
}

// loopConfig is one closed-loop phase: callers issue calls for dur, call
// i with spec i and ID idBase+i+1. latencies keeps every call's latency
// (the throughput phase keeps counts only, so memory does not grow with
// its rate). With rec set, each call carries its ID as trace ID and one
// in unaryTraceEvery is recorded as a stubby.call span.
type loopConfig struct {
	callers   int
	dur       time.Duration
	idBase    uint64
	latencies bool
	rec       *recorder
}

// closedLoop runs cfg.callers callers that each issue their next call as
// soon as the last one returns, and reads the steal time at each window
// boundary.
func closedLoop(st *liveStack, specs []callSpec, cfg loopConfig) (loopResult, error) {
	nwin := max(int(cfg.dur/windowWidth), 1)
	results := make([]loopResult, cfg.callers)
	start := time.Now()
	deadline := start.Add(cfg.dur)
	var marks []cpuTimes
	var stealErr error
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		marks, stealErr = stealMarks(start, nwin)
	}()
	var wg sync.WaitGroup
	for w := 0; w < cfg.callers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			res := &results[w]
			res.counts = make([]int, nwin)
			if cfg.latencies {
				res.wins = make([]samples, nwin)
			}
			var buf []byte
			for i := w; ; i += cfg.callers {
				t0 := time.Now()
				if !t0.Before(deadline) {
					return
				}
				id := cfg.idBase + uint64(i) + 1
				ctx := context.Background()
				if cfg.rec != nil {
					ctx = withTrace(ctx, id)
				}
				var err error
				buf, err = st.call(ctx, buf, id, specs[i%len(specs)])
				t1 := time.Now()
				res.attempted++
				if err != nil {
					res.failed++
					if len(res.errs) < 3 {
						res.errs = append(res.errs, err)
					}
					continue
				}
				k := min(int(t1.Sub(start)/windowWidth), nwin-1)
				res.counts[k]++
				if cfg.latencies {
					res.wins[k] = append(res.wins[k], us(t1.Sub(t0)))
				}
				if cfg.rec != nil && id%unaryTraceEvery == 0 {
					cfg.rec.add("stubby.call", t0, t1, 0, id)
				}
			}
		}(w)
	}
	wg.Wait()
	sampler.Wait()
	if stealErr != nil {
		return loopResult{}, stealErr
	}
	out := loopResult{counts: make([]int, nwin), elapsed: time.Since(start), steal: make([]float64, nwin)}
	for k := range out.steal {
		out.steal[k] = marks[k+1].stealShare(marks[k])
	}
	if cfg.latencies {
		out.wins = make([]samples, nwin)
	}
	for _, r := range results {
		for k, c := range r.counts {
			out.counts[k] += c
			if cfg.latencies {
				out.wins[k] = append(out.wins[k], r.wins[k]...)
			}
		}
		out.attempted += r.attempted
		out.failed += r.failed
		out.errs = append(out.errs, r.errs...)
	}
	return out, nil
}

// stealMarks reads /proc/stat at start and at each of the nwin window
// boundaries after it.
func stealMarks(start time.Time, nwin int) ([]cpuTimes, error) {
	marks := make([]cpuTimes, 0, nwin+1)
	for k := 0; k <= nwin; k++ {
		time.Sleep(time.Until(start.Add(time.Duration(k) * windowWidth)))
		c, err := readCPUTimes()
		if err != nil {
			return nil, err
		}
		marks = append(marks, c)
	}
	return marks, nil
}
