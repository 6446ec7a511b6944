package main

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"rpcscale/internal/fleet"
)

// fleet_mix's fixed operating points, measured on the reference machine
// (README.md): nominal is about 0.2 of the baseline max_rate_cps, low
// enough that a slower host does not push it into the knee; peak is
// about 0.65 of it.
const (
	mixNominalRate = 1200.0 // calls/s
	mixPeakRate    = 4000.0 // calls/s
	// mixP99Limit is the latency limit a max-rate step must meet. The
	// low-load p99 of this mix is already 7-20 ms (its 0.4% of calls
	// above 1 MiB), so the limit sits where queueing makes p99 climb
	// steeply with rate.
	mixP99Limit = 50 * time.Millisecond
	// mixLateLimit is the generator lateness (p99) beyond which a step
	// does not count: the generator, not the stack, fell behind.
	mixLateLimit = 50 * time.Millisecond
	// mixFailLimit is the failed-or-refused share a step may have.
	mixFailLimit = 0.001
	// mixCallDeadline bounds every call, so a phase always drains.
	mixCallDeadline = 5 * time.Second
	// mixMaxInflight and mixMaxInflightBytes bound the backlog an
	// overloaded step may build before arrivals are refused.
	mixMaxInflight      = 4096
	mixMaxInflightBytes = 128 << 20
	// The max-rate search starts at mixSearchStart times the measured
	// saturation throughput; each passing step raises the rate by
	// mixSearchGrowth until one fails, and the remaining steps bisect
	// (geometrically) between pass and fail.
	mixSearchStart  = 0.5
	mixSearchGrowth = 1.25
	mixSearchSteps  = 5
	// mixSaturationWindow is how many calls the saturation phase keeps
	// in flight.
	mixSaturationWindow = 32
	// minStepCalls is the expected arrivals a step needs so that its
	// p99 has at least minBeyond samples beyond it, with margin.
	minStepCalls = 1200
)

// Shares of the run's --seconds given to each fleet_mix phase.
const (
	mixNominalShare    = 0.5
	mixPeakShare       = 0.15
	mixSaturationShare = 0.15
	mixSearchShare     = 0.2
)

// mixWindow is the window nominal's percentiles are taken over. It is
// wider than windowWidth: at 1200 calls/s a one-second window's p99
// would rest on 12 calls, and which large calls fall into it would
// decide its value.
const mixWindow = 5 * time.Second

// phaseResult is one open-loop phase at a fixed offered rate.
type phaseResult struct {
	label     string
	dur       time.Duration
	attempted int64
	failed    int64 // failed calls, including failed output checks
	refused   int64 // arrivals not sent because the backlog bound was hit
	lat       samples
	at        []time.Duration // completion offsets from the phase start, parallel to lat
	late      samples
	bulk      int64
	eligible  int64 // calls the stack may compress (inline, >= 512 B)
	inflight  int64 // most calls in flight at once
	growing   bool
	errs      []error
}

// failRatio is the failed-or-refused share of the phase's arrivals.
func (p *phaseResult) failRatio() float64 {
	return float64(p.failed+p.refused) / float64(max(p.attempted+p.refused, 1))
}

// verdict reports whether a max-rate step sustained its offered rate:
// p99 within the limit, few failures, no growing backlog and a generator
// that kept up.
func (p *phaseResult) verdict() (bool, string) {
	p99 := percentile(p.lat.sorted(), 0.99)
	late := percentile(p.late.sorted(), 0.99)
	switch {
	case p.failRatio() > mixFailLimit:
		return false, fmt.Sprintf("fail ratio %.4f", p.failRatio())
	case p.growing:
		return false, "backlog growing"
	case !p99.OK():
		return false, p99.String()
	case p99.Value > us(mixP99Limit):
		return false, fmt.Sprintf("p99 %.0f us over limit", p99.Value)
	case late.Value > us(mixLateLimit):
		return false, fmt.Sprintf("generator late p99 %.0f us", late.Value)
	}
	return true, "sustained"
}

// openLoop issues scheduled calls on a live stack, each from its own
// goroutine, timing each from the instant it was due.
type openLoop struct {
	call   callFunc
	rec    *recorder // nil unless spans are recorded
	ids    atomic.Uint64
	bufs   sync.Pool // *[]byte request buffers
	mu     sync.Mutex
	result *phaseResult
	start  time.Time // the current phase's start
}

// run drives one phase: at each wakeup it sends every arrival already
// due, then sleeps until the next one is due.
func (o *openLoop) run(sched *schedule, label string, rate float64, dur time.Duration) *phaseResult {
	res := &phaseResult{label: label, dur: dur}
	start := time.Now()
	o.result, o.start = res, start
	var inflight, inflightBytes atomic.Int64
	var wg sync.WaitGroup
	// Backlog samples: in-flight count at each wakeup, split into the
	// first and last third of the phase.
	var firstSum, lastSum, firstN, lastN int64

	a := sched.next()
	for a.Due < dur {
		now := time.Since(start)
		for a.Due <= now && a.Due < dur {
			if inflight.Load() >= mixMaxInflight || inflightBytes.Load() >= mixMaxInflightBytes {
				res.refused++
				res.growing = true
				a = sched.next()
				continue
			}
			size := int64(a.Req + a.Resp)
			n := inflight.Add(1)
			inflightBytes.Add(size)
			if n > res.inflight {
				res.inflight = n
			}
			wg.Add(1)
			go func(a arrival, id uint64) {
				defer wg.Done()
				o.issue(start.Add(a.Due), a.callSpec, id)
				inflight.Add(-1)
				inflightBytes.Add(-size)
			}(a, o.ids.Add(1))
			a = sched.next()
		}
		switch n := inflight.Load(); {
		case now < dur/3:
			firstSum, firstN = firstSum+n, firstN+1
		case now > 2*dur/3:
			lastSum, lastN = lastSum+n, lastN+1
		}
		if wait := a.Due - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
	}
	wg.Wait()
	if firstN > 0 && lastN > 0 {
		first, last := float64(firstSum)/float64(firstN), float64(lastSum)/float64(lastN)
		if last > 2*first+8 {
			res.growing = true
		}
	}
	return res
}

// issue sends one call that was due at due and records its outcome.
func (o *openLoop) issue(due time.Time, a callSpec, id uint64) {
	t0 := time.Now()
	ctx, cancel := context.WithDeadline(context.Background(), due.Add(mixCallDeadline))
	defer cancel()
	if o.rec != nil {
		ctx = withTrace(ctx, id)
	}
	bp, _ := o.bufs.Get().(*[]byte)
	if bp == nil {
		bp = new([]byte)
	}
	var err error
	*bp, err = o.call(ctx, *bp, id, a)
	t1 := time.Now()
	o.bufs.Put(bp)

	o.mu.Lock()
	defer o.mu.Unlock()
	r := o.result
	r.attempted++
	if a.Req >= bulkThreshold || a.Resp >= bulkThreshold {
		r.bulk++
	} else if a.Req >= 512 {
		r.eligible++
	}
	r.late = append(r.late, us(t0.Sub(due)))
	if err != nil {
		r.failed++
		if len(r.errs) < 3 {
			r.errs = append(r.errs, err)
		}
		return
	}
	r.lat = append(r.lat, us(t1.Sub(due)))
	r.at = append(r.at, t1.Sub(o.start))
	if o.rec != nil {
		parent := o.rec.add("loadgen.call", due, t1, 0, id)
		o.rec.add("stubby.call", t0, t1, parent, id)
	}
}

// searchStep is one max-rate step and its verdict.
type searchStep struct {
	rate   float64
	ok     bool
	reason string
	p99    pct
}

// callFunc issues one call with request buffer buf (reused across
// calls) and checks its reply; liveStack.call is the real one.
type callFunc func(ctx context.Context, buf []byte, id uint64, c callSpec) ([]byte, error)

// maxRate finds the highest offered rate the endpoint sustains, in
// mixSearchSteps steps of at least stepDur each, starting at start.
func (o *openLoop) maxRate(cat *fleet.Catalog, seed uint64, start float64, stepDur time.Duration) (float64, []searchStep) {
	var steps []searchStep
	lo, hi := 0.0, 0.0
	rate := start
	for i := 0; i < mixSearchSteps; i++ {
		if hi > 0 {
			rate = math.Sqrt(lo * hi)
			if lo == 0 {
				rate = hi / 2
			}
		}
		// A step lasts long enough to give its p99 the samples beyond
		// it that the reporting rule needs.
		dur := max(stepDur, time.Duration(minStepCalls/rate*float64(time.Second)))
		sched := newSchedule(cat, seed, fmt.Sprintf("step%d", i), rate)
		res := o.run(sched, fmt.Sprintf("step%d", i), rate, dur)
		ok, why := res.verdict()
		steps = append(steps, searchStep{rate: rate, ok: ok, reason: why, p99: percentile(res.lat.sorted(), 0.99)})
		switch {
		case ok:
			lo = rate
			if hi == 0 {
				rate *= mixSearchGrowth
			}
		default:
			hi = rate
		}
		time.Sleep(50 * time.Millisecond)
	}
	return lo, steps
}

// saturate keeps mixSaturationWindow calls from the schedule in flight
// for dur, ignoring due times, and returns the completion rate: the
// throughput the stack reaches when offered more than it can take.
func (o *openLoop) saturate(sched *schedule, dur time.Duration) (float64, *phaseResult) {
	res := &phaseResult{label: "saturation", dur: dur}
	start := time.Now()
	o.result, o.start = res, start
	var mu sync.Mutex
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for w := 0; w < mixSaturationWindow; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				mu.Lock()
				a := sched.next()
				mu.Unlock()
				// Due now: saturation latency is from issue to reply.
				o.issue(time.Now(), a.callSpec, o.ids.Add(1))
			}
		}()
	}
	wg.Wait()
	return windowRate(byWindow(res.at, res.lat, windowWidth, int(dur/windowWidth)), windowWidth), res
}

// runFleetMix is the open-loop fleet call mix: Poisson arrivals at the
// fixed nominal and peak rates, then a step search for max_rate_cps.
// Methods and sizes come from the seeded catalog (tail up to 4 MiB);
// a seeded half of the methods send compressible text; flate with
// adaptive compression and the telemetry plane are on at both ends.
func runFleetMix(rc *runCtx) (err error) {
	cfg := stackConfig{Workload: "fleet_mix", Seed: rc.seed, Traced: rc.traced}
	var cat *fleet.Catalog
	var catalogMs float64
	st, setup, err := setupLive(cfg, func() (*payloads, []callSpec) {
		t0 := time.Now()
		cat = liveCatalog()
		catalogMs = time.Since(t0).Seconds() * 1e3
		warm := newSchedule(cat, rc.seed, "warmup", 1)
		specs := make([]callSpec, 200)
		for i := range specs {
			specs[i] = warm.next().callSpec
		}
		return newPayloads(rc.seed, mixMax), specs
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

	total := time.Duration(rc.seconds * float64(time.Second))
	o := &openLoop{call: st.call}
	o.ids.Store(1 << 40) // above the warmup's call IDs

	// Nominal: the measured window for latency, CPU and the layers.
	before, err := st.mark()
	if err != nil {
		return err
	}
	if rc.traced {
		o.rec = rc.rec
	}
	nominal := o.run(newSchedule(cat, rc.seed, "nominal", mixNominalRate), "nominal", mixNominalRate,
		time.Duration(mixNominalShare*float64(total)))
	o.rec = nil
	after, err := st.mark()
	if err != nil {
		return err
	}
	win := after.since(before)
	checkWindow(rc, win, "fleet_mix nominal")
	if win.served != uint64(nominal.attempted) {
		rc.rep.fail("server child served %d calls at nominal, client attempted %d", win.served, nominal.attempted)
	}

	peak := o.run(newSchedule(cat, rc.seed, "peak", mixPeakRate), "peak", mixPeakRate,
		time.Duration(mixPeakShare*float64(total)))
	satCPS, sat := o.saturate(newSchedule(cat, rc.seed, "saturation", 1), time.Duration(mixSaturationShare*float64(total)))
	maxCPS, steps := o.maxRate(cat, rc.seed, mixSearchStart*satCPS, time.Duration(mixSearchShare*float64(total)/mixSearchSteps))

	for _, p := range []*phaseResult{nominal, peak, sat} {
		rc.rep.count(p.attempted+p.refused, p.failed+p.refused)
		for _, e := range p.errs {
			rc.rep.fail("%s call: %v", p.label, e)
		}
		if p.refused > 0 {
			rc.rep.fail("%s: %d arrivals refused at the backlog bound", p.label, p.refused)
		}
	}
	for i, s := range steps {
		rc.rep.note("max-rate step %d: offered %.0f calls/s: %s (%s), %s", i, s.rate, map[bool]string{true: "pass", false: "fail"}[s.ok], s.reason, s.p99)
	}
	if maxCPS == 0 {
		rc.rep.fail("max_rate_cps: no step sustained its rate (lowest %.0f calls/s)", steps[len(steps)-1].rate)
	}

	done := int64(len(nominal.lat))
	if done == 0 {
		rc.rep.fail("no call completed at nominal")
		return nil
	}
	wins := byWindow(nominal.at, nominal.lat, mixWindow, int(nominal.dur/mixWindow))
	nomSorted := append(samples(nil), nominal.lat...).sorted()
	p50, p99 := percentile(nomSorted, 0.5), percentile(nomSorted, 0.99)
	peakP99 := percentile(peak.lat.sorted(), 0.99)
	late := nominal.late.sorted()
	rss, err := rssMiB(st, after.client)
	if err != nil {
		return err
	}
	cpu := us(win.client.CPU+win.server.CPU) / float64(done)

	rc.rep.set("setup_s", setup, "s")
	rc.rep.set("ops_per_s", satCPS, "1/s")
	w50 := rc.rep.windowPct("p50_us", wins, 0.5)
	w99 := rc.rep.windowPct("p99_us", wins, 0.99)
	rc.rep.set("p50_us", w50, "us")
	rc.rep.set("cpu_us_per_op", cpu, "us")
	rc.rep.set("rss_peak_MiB", rss, "MiB")

	rc.rep.note("setup_s %.4f s (median of %d: child spawn, dial, warmup, catalog, payload pools)", setup, setupRuns)
	rc.rep.note("saturation_cps %.1f calls/s (median of %v windows; %d calls kept in flight)", satCPS, windowWidth, mixSaturationWindow)
	rc.rep.note("max_rate_cps %.1f calls/s (p99 <= %v, fail_ratio <= %g, no growing backlog)", maxCPS, mixP99Limit, mixFailLimit)
	rc.rep.note("p50_us %.1f us (median of %d window p50s) at nominal %.0f calls/s, timed from due; whole phase %s", w50, len(wins), mixNominalRate, p50)
	rc.rep.note("p99_us %.1f us (median of %d window p99s) at nominal %.0f calls/s, timed from due; whole phase %s", w99, len(wins), mixNominalRate, p99)
	rc.rep.note("p99_us_peak %s us at peak %.0f calls/s, timed from due", peakP99, mixPeakRate)
	rc.rep.note("fail_ratio %.6f ratio at nominal, %.6f at peak", nominal.failRatio(), peak.failRatio())
	rc.rep.note("cpu_us_per_call %.3f us at nominal (client %.3f + server %.3f)", cpu, us(win.client.CPU)/float64(done), us(win.server.CPU)/float64(done))
	rc.rep.note("rss_peak_MiB %.1f MiB (client + server child)", rss)
	rc.rep.note("loadgen nominal: late %s, in flight max %d, achieved/offered %.4f",
		percentile(late, 0.99), nominal.inflight, float64(done)/(mixNominalRate*nominal.dur.Seconds()))
	if !peakP99.OK() {
		rc.rep.fail("p99_us_peak: %s", peakP99)
	}

	if rc.traced {
		lp50, lp99 := percentile(late, 0.5), percentile(late, 0.99)
		rc.layer("loadgen.late_p50_us", lp50.Value, "us")
		rc.layer("loadgen.late_p99_us", lp99.Value, "us")
		rc.layer("loadgen.inflight_max", float64(nominal.inflight), "count")
		rc.layer("loadgen.achieved_over_offered", float64(done)/(mixNominalRate*nominal.dur.Seconds()), "ratio")
		rc.layer("compressor.ratio", win.compressRatio(), "ratio")
		if nominal.eligible > 0 {
			rc.layer("compressor.skip_share", float64(win.compressSkips)/float64(nominal.eligible), "ratio")
		}
		liveLayers(rc, st, win, done, nominal.bulk)
		replay := newSchedule(cat, rc.seed, "nominal", mixNominalRate)
		specs := make([]callSpec, 4096)
		for i := range specs {
			specs[i] = replay.next().callSpec
		}
		if err := replayLayers(rc, st.pays, specs); err != nil {
			return err
		}
	}
	return nil
}
