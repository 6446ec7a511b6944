package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"rpcscale/internal/core"
	"rpcscale/internal/fleet"
	"rpcscale/internal/gwp"
	"rpcscale/internal/sim"
	"rpcscale/internal/trace"
	"rpcscale/internal/workload"
)

// studyMethods and studyRun size one fleet_study pass: about a second of
// generation on the reference machine, with every motif pack applied.
const studyMethods = 1000

var studyRun = workload.RunConfig{
	MethodSamples:  10,
	StudiedSamples: 300,
	VolumeRoots:    20000,
	Trees:          200,
	MaxDepth:       8,
	TreeBudget:     3000,
}

// studyMinPasses is the fewest passes a run makes: the report digest is
// compared across passes.
const studyMinPasses = 2

// studySetupRuns is how many times fleet_study builds its inputs; the
// build takes a few tens of milliseconds, so more repeats steady the
// median.
const studySetupRuns = 9

// studyMinClean is the fewest passes with little steal that the gated
// rate and p50 are taken over (see clean).
const studyMinClean = 3

// studyInputs is one seed's catalog and topology.
type studyInputs struct {
	cat  *fleet.Catalog
	topo *sim.Topology
}

// buildStudy builds the topology and catalog with every motif pack, as
// fleetgen does, from catalogSeed; the run's seed drives generation.
func buildStudy() (studyInputs, error) {
	topo := sim.NewTopology(sim.TopologyConfig{
		Regions: 6, DatacentersPer: 2, ClustersPerDC: 3, MachinesPerCluster: 16, Seed: catalogSeed,
	})
	cat := fleet.New(fleet.Config{Methods: studyMethods, Clusters: len(topo.Clusters), Seed: catalogSeed})
	packs, err := fleet.ParseMotifs("all")
	if err != nil {
		return studyInputs{}, err
	}
	fleet.ApplyMotifs(cat, packs, catalogSeed)
	return studyInputs{cat: cat, topo: topo}, nil
}

// studySink is one generation shard's sink: it feeds the shard's
// ReportSink, writes every span to the shared dump, and times the gap
// between consecutive call graphs. Traced, it also times its calls into
// the ReportSink and the writer.
type studySink struct {
	rep    *core.ReportSink
	w      *trace.SpanWriter
	traced bool

	graphs    int
	last      time.Time // previous graph boundary; zero after a volume span
	graphLat  samples   // µs to generate and sink one call graph
	inTree    bool      // a materialized tree's spans arrived since the last graph
	sinkTime  time.Duration
	writeTime time.Duration
	err       error

	// Counts from the generator's graph summaries: all graphs, and the
	// materialized trees (whose every span reaches the dump).
	fanIn, motifs         uint64
	treeFanIn, treeMotifs uint64
	// The same counts over the spans written.
	spanFanIn, spanMotifs uint64
}

func (k *studySink) span(s *trace.Span, fold func(*trace.Span)) {
	var t0 time.Time
	if k.traced {
		t0 = time.Now()
	}
	fold(s)
	var t1 time.Time
	if k.traced {
		t1 = time.Now()
		k.sinkTime += t1.Sub(t0)
	}
	if err := k.w.Write(s); err != nil && k.err == nil {
		k.err = err
	}
	if k.traced {
		k.writeTime += time.Since(t1)
	}
	k.spanFanIn += uint64(len(s.LinkedParents))
	if s.Motif != 0 {
		k.spanMotifs++
	}
}

func (k *studySink) timed(fn func()) {
	if !k.traced {
		fn()
		return
	}
	t0 := time.Now()
	fn()
	k.sinkTime += time.Since(t0)
}

func (k *studySink) MethodSpan(s *trace.Span) { k.span(s, k.rep.MethodSpan) }

func (k *studySink) VolumeSpan(s *trace.Span) {
	k.span(s, k.rep.VolumeSpan)
	k.last = time.Time{} // volume roots carry no graph summary
}

func (k *studySink) TreeSpan(s *trace.Span) {
	k.span(s, k.rep.TreeSpan)
	k.inTree = true
}

func (k *studySink) TreeShape(method string, descendants, ancestors int) {
	k.timed(func() { k.rep.TreeShape(method, descendants, ancestors) })
}

func (k *studySink) GraphShape(g workload.GraphStat) {
	now := time.Now()
	k.graphs++
	if !k.last.IsZero() {
		k.graphLat = append(k.graphLat, us(now.Sub(k.last)))
	}
	k.last = now
	var motifs uint64
	for m := 1; m < trace.NumMotifs; m++ {
		motifs += uint64(g.Motifs[m])
	}
	k.fanIn += uint64(g.FanInEdges)
	k.motifs += motifs
	if k.inTree {
		k.treeFanIn += uint64(g.FanInEdges)
		k.treeMotifs += motifs
		k.inTree = false
	}
	k.timed(func() { k.rep.GraphShape(g) })
}

func (k *studySink) ExoSample(method string, s *trace.Span, exo sim.Exo) {
	k.timed(func() { k.rep.ExoSample(method, s, exo) })
}

// studyPass is one pass's outcome.
type studyPass struct {
	spans                 uint64
	graphs                int // call graphs summarized (stratified and tree roots)
	genDigest, scanDigest [32]byte
	run, merge, render    time.Duration
	flush                 time.Duration
	scan                  time.Duration // read back, scan, sink and render
	wall                  time.Duration
	graphLat              samples
	sinkTime, writeTime   time.Duration
	dumpBytes             int64
	fanIn, motifs         uint64
	treeFanIn, treeMotifs uint64
	spanFanIn, spanMotifs uint64
	scanned               uint64
	scanFanIn, scanMotifs uint64
	// scanTreeMotifs counts motif spans with a parent: only materialized
	// trees put non-root spans in the dump.
	scanTreeMotifs uint64
	steal          float64 // share of the pass's CPU time stolen
}

// studyShards is the generation parallelism: at most nproc, and fixed
// for a machine so a seed's report is the same on every pass.
func studyShards() int { return min(2, runtime.NumCPU()) }

// dumpPaths names one span dump per shard. Each shard writes its own, so
// reading them back in shard order sees the same span order every pass
// (the read-back report depends on that order).
func dumpPaths(prefix string) []string {
	out := make([]string, studyShards())
	for i := range out {
		out[i] = fmt.Sprintf("%s-shard%d.jsonl", prefix, i)
	}
	return out
}

// runStudyPass generates the seeded study, streams it into per-shard
// report sinks and span dumps, merges and renders the report, then reads
// the dumps back into a fresh sink and renders again.
func runStudyPass(rc *runCtx, in studyInputs, dumps []string) (*studyPass, error) {
	p := &studyPass{}
	passStart := time.Now()
	cpu0, err := readCPUTimes()
	if err != nil {
		return nil, err
	}
	cfg := studyRun
	cfg.Seed = rc.seed
	cfg.Shards = len(dumps)
	files := make([]*os.File, len(dumps))
	sinks := make([]*studySink, len(dumps))
	closeAll := func() {
		for _, f := range files {
			if f != nil {
				f.Close()
			}
		}
	}
	for i, path := range dumps {
		f, err := os.Create(path)
		if err != nil {
			closeAll()
			return nil, fmt.Errorf("study dump: %w", err)
		}
		files[i] = f
		sinks[i] = &studySink{rep: core.NewReportSink(), w: trace.NewSpanWriter(f), traced: rc.traced}
	}
	t0 := time.Now()
	prof, _ := workload.Run(context.Background(), in.cat, in.topo, cfg, func(shard int) workload.SpanSink {
		return sinks[shard]
	})
	t1 := time.Now()
	for i, k := range sinks {
		if err := k.w.Flush(); err != nil {
			closeAll()
			return nil, fmt.Errorf("study dump: %w", err)
		}
		err := files[i].Close()
		files[i] = nil
		if err != nil {
			closeAll()
			return nil, fmt.Errorf("study dump: %w", err)
		}
		p.spans += k.w.Count()
	}
	t2 := time.Now()
	root := core.NewReportSink()
	for _, k := range sinks {
		if k.err != nil {
			return nil, fmt.Errorf("study dump: %w", k.err)
		}
		root.Merge(k.rep)
		p.graphs += k.graphs
		p.graphLat = append(p.graphLat, k.graphLat...)
		p.sinkTime += k.sinkTime
		p.writeTime += k.writeTime
		p.fanIn += k.fanIn
		p.motifs += k.motifs
		p.treeFanIn += k.treeFanIn
		p.treeMotifs += k.treeMotifs
		p.spanFanIn += k.spanFanIn
		p.spanMotifs += k.spanMotifs
	}
	t3 := time.Now()
	p.genDigest = sha256.Sum256([]byte(core.ReportFromSink(root, prof, core.ReportOptions{})))
	t4 := time.Now()
	p.run, p.flush, p.merge, p.render = t1.Sub(t0), t2.Sub(t1), t3.Sub(t2), t4.Sub(t3)

	if err := scanDumps(p, dumps); err != nil {
		return nil, err
	}
	p.scan = time.Since(t4)
	p.wall = time.Since(passStart)
	cpu1, err := readCPUTimes()
	if err != nil {
		return nil, err
	}
	p.steal = cpu1.stealShare(cpu0)
	for _, path := range dumps {
		if st, err := os.Stat(path); err == nil {
			p.dumpBytes += st.Size()
		}
	}
	if rc.rec != nil {
		pass := rc.rec.add("study.pass", passStart, passStart.Add(p.wall), 0, 0)
		rc.rec.add("workload.run", t0, t1, pass, 0)
		rc.rec.add("trace.flush", t1, t2, pass, 0)
		rc.rec.add("core.merge", t2, t3, pass, 0)
		rc.rec.add("core.render", t3, t4, pass, 0)
		rc.rec.add("study.readback", t4, t4.Add(p.scan), pass, 0)
	}
	return p, nil
}

// scanDumps reads the dumps back, in shard order, through
// trace.ScanSpans into one fresh ReportSink and CPU profile, as
// rpcanalyze's streaming mode does, and renders the report.
func scanDumps(p *studyPass, dumps []string) error {
	sink := core.NewReportSink()
	prof := gwp.New()
	for _, path := range dumps {
		if err := scanDump(p, path, sink, prof); err != nil {
			return err
		}
	}
	p.scanDigest = sha256.Sum256([]byte(core.ReportFromSink(sink, prof.Snapshot(), core.ReportOptions{})))
	return nil
}

// scanDump folds one dump into sink and prof.
func scanDump(p *studyPass, path string, sink *core.ReportSink, prof *gwp.Profiler) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("study read-back: %w", err)
	}
	defer f.Close()
	err = trace.ScanSpans(f, func(s *trace.Span) error {
		p.scanned++
		p.scanFanIn += uint64(len(s.LinkedParents))
		if s.Motif != 0 {
			p.scanMotifs++
			if s.ParentID != 0 {
				p.scanTreeMotifs++
			}
		}
		sink.MethodSpan(s)
		sink.VolumeSpan(s)
		switch {
		case s.HasCPUSplit():
			for cat, cycles := range s.CPUByCategory {
				prof.Record(s.Service, s.Method, gwp.Category(cat), cycles)
			}
		case s.CPUCycles > 0:
			prof.Record(s.Service, s.Method, gwp.Application, s.CPUCycles)
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("study read-back: %w", err)
	}
	return nil
}

// runFleetStudy is the simulator and analysis workload: repeated passes
// of generate → sink → merge → render, with the spans dumped and read
// back, until the run's time is used (at least studyMinPasses passes).
func runFleetStudy(rc *runCtx) error {
	var setups []float64
	var in studyInputs
	var catalogMs float64
	for i := 0; i < studySetupRuns; i++ {
		t0 := time.Now()
		var err error
		if in, err = buildStudy(); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i == 0 {
			catalogMs = setups[0] * 1e3
		}
	}
	setup := median(setups)

	dir, err := outDir()
	if err != nil {
		return fmt.Errorf("study dump: %w", err)
	}
	dumps := dumpPaths(filepath.Join(dir, fmt.Sprintf("study-%d-%d", rc.seed, os.Getpid())))
	defer func() {
		for _, path := range dumps {
			os.Remove(path)
		}
	}()

	before, err := selfUsage()
	if err != nil {
		return err
	}
	start := time.Now()
	deadline := start.Add(time.Duration(rc.seconds * float64(time.Second)))
	var passes []*studyPass
	for len(passes) < studyMinPasses || time.Now().Before(deadline) {
		// Each pass after the first gets inputs built afresh, so the
		// digest check also covers the catalog and topology builds.
		if len(passes) > 0 {
			if in, err = buildStudy(); err != nil {
				return err
			}
		}
		p, err := runStudyPass(rc, in, dumps)
		if err != nil {
			return err
		}
		passes = append(passes, p)
	}
	after, err := selfUsage()
	if err != nil {
		return err
	}
	win := after.sub(before)

	var lat samples
	var wins []samples // each pass is one window
	var graphs int
	var rates, genRates, scanRates, studyS, steal []float64
	for i, p := range passes {
		rc.rep.count(int64(p.spans), 0)
		lat = append(lat, p.graphLat...)
		wins = append(wins, p.graphLat)
		graphs += p.graphs
		rates = append(rates, float64(p.graphs)/p.wall.Seconds())
		gen := p.run + p.flush + p.merge + p.render
		studyS = append(studyS, gen.Seconds())
		genRates = append(genRates, float64(p.spans)/gen.Seconds())
		scanRates = append(scanRates, float64(p.scanned)/p.scan.Seconds())
		steal = append(steal, p.steal)
		checkStudyPass(rc, i, p, passes[0])
	}
	sorted := append(samples(nil), lat...).sorted()
	p50, p99 := percentile(sorted, 0.5), percentile(sorted, 0.99)
	cpu := us(win.CPU) / float64(graphs)
	rss := float64(after.HWMKiB) / 1024

	rc.rep.set("setup_s", setup, "s")
	idx := clean(steal, studyMinClean)
	rate := median(pick(rates, idx))
	rc.rep.set("ops_per_s", rate, "1/s")
	w50 := rc.rep.windowPct("p50_us", pick(wins, idx), 0.5)
	w99 := rc.rep.windowPct("p99_us", pick(wins, idx), 0.99)
	rc.rep.set("p50_us", w50, "us")
	rc.rep.set("cpu_us_per_op", cpu, "us")
	rc.rep.set("rss_peak_MiB", rss, "MiB")

	first := passes[0]
	rc.rep.note("setup_s %.4f s (median of %d: topology, catalog, motif packs)", setup, studySetupRuns)
	rc.rep.note("passes %d, %d spans each, %d shards, report digest %x", len(passes), first.spans, studyShards(), first.genDigest[:8])
	rc.rep.note("graphs_per_s %.1f graphs/s (%d call graphs per pass through generate, sink, dump, render, read back, render; median of %d of %d passes; %s)",
		rate, first.graphs, len(idx), len(passes), stealNote(steal))
	rc.rep.note("spans_per_s %.0f spans/s (generate, sink, dump, merge, render; median pass)", median(genRates))
	rc.rep.note("study_s %.4f s (catalog ready to rendered report; median pass)", median(studyS))
	rc.rep.note("scan_spans_per_s %.0f spans/s (dump read back, scanned, sunk, rendered; median pass)", median(scanRates))
	rc.rep.note("graph_p50_us %.1f us, graph_p99_us %.1f us (median over the same passes; one call graph generated and sunk); all passes %s, %s",
		w50, w99, p50, p99)
	rc.rep.note("fail_ratio 0 ratio (a failed check fails the run)")
	rc.rep.note("cpu_us_per_graph %.3f us", cpu)
	rc.rep.note("rss_peak_MiB %.1f MiB", rss)

	if rc.traced {
		if err := studyLayers(rc, in, passes, catalogMs, dumps); err != nil {
			return err
		}
	}
	return nil
}

// checkStudyPass applies fleet_study's output checks to pass i.
func checkStudyPass(rc *runCtx, i int, p, first *studyPass) {
	if p.genDigest != first.genDigest {
		rc.rep.fail("pass %d: report digest %x differs from pass 0's %x", i, p.genDigest[:8], first.genDigest[:8])
	}
	if p.scanDigest != first.scanDigest {
		rc.rep.fail("pass %d: read-back report digest %x differs from pass 0's %x", i, p.scanDigest[:8], first.scanDigest[:8])
	}
	if p.scanned != p.spans {
		rc.rep.fail("pass %d: scanned %d spans, wrote %d", i, p.scanned, p.spans)
	}
	if p.scanFanIn != p.spanFanIn || p.scanFanIn != p.treeFanIn {
		rc.rep.fail("pass %d: fan-in edges: scanned %d, written %d, generated in trees %d", i, p.scanFanIn, p.spanFanIn, p.treeFanIn)
	}
	if p.scanMotifs != p.spanMotifs {
		rc.rep.fail("pass %d: motif nodes: scanned %d, written %d", i, p.scanMotifs, p.spanMotifs)
	}
	if i == 0 && p.scanTreeMotifs != p.treeMotifs {
		// Not a failed check: the generator's own graph census
		// (GraphStat.Spans and Motifs) counts fewer tree spans than it
		// streams to the sink, so its motif total can trail the dump's.
		rc.rep.note("motif census: %d motif spans below a root in the dump, %d in the generator's tree GraphStats",
			p.scanTreeMotifs, p.treeMotifs)
	}
}

// studyLayers records fleet_study's per-layer metrics (medians over the
// traced passes) and replays sim.ExoModel.At.
func studyLayers(rc *runCtx, in studyInputs, passes []*studyPass, catalogMs float64, dumps []string) error {
	shards := float64(len(dumps))
	var gen, sink, merge, render, write, bytesPerSpan []float64
	for _, p := range passes {
		// Generation is Run's wall time less the shards' time in the
		// sink and writer, shared over the shards running at once.
		gen = append(gen, p.run.Seconds()-(p.sinkTime+p.writeTime).Seconds()/shards)
		sink = append(sink, p.sinkTime.Seconds())
		merge = append(merge, p.merge.Seconds()*1e3)
		render = append(render, p.render.Seconds())
		write = append(write, float64(p.dumpBytes)/(p.writeTime+p.flush).Seconds()/1e6)
		bytesPerSpan = append(bytesPerSpan, float64(p.dumpBytes)/float64(p.spans))
	}
	last := passes[len(passes)-1]
	rc.layer("fleet.catalog_build_ms", catalogMs, "ms")
	rc.layer("workload.gen_s", median(gen), "s")
	rc.layer("workload.spans", float64(last.spans), "count")
	rc.layer("workload.fanin_edges", float64(last.fanIn), "count")
	rc.layer("workload.motif_nodes", float64(last.motifs), "count")
	rc.layer("core.sink_s", median(sink), "s")
	rc.layer("core.merge_ms", median(merge), "ms")
	rc.layer("core.render_s", median(render), "s")
	rc.layer("trace.write_MBps", median(write), "MB/s")
	rc.layer("trace.dump_bytes_per_span", median(bytesPerSpan), "B")

	// trace read side alone: decode with a no-op callback.
	t0 := time.Now()
	for _, path := range dumps {
		f, err := os.Open(path)
		if err != nil {
			return fmt.Errorf("study decode: %w", err)
		}
		err = trace.ScanSpans(f, func(*trace.Span) error { return nil })
		f.Close()
		if err != nil {
			return fmt.Errorf("study decode: %w", err)
		}
	}
	rc.layer("trace.decode_s", time.Since(t0).Seconds(), "s")
	rc.rec.add("trace.decode", t0, time.Now(), 0, 0)

	// sim: ExoModel.At over a one-minute grid of a day, every cluster.
	t0 = time.Now()
	n, util := 0, 0.0
	for _, c := range in.topo.Clusters {
		for m := 0; m < 24*60; m++ {
			util += c.Exo.At(time.Duration(m) * time.Minute).CPUUtil
			n++
		}
	}
	rc.layer("sim.exo_at_ns", float64(time.Since(t0).Nanoseconds())/float64(n), "ns")
	rc.rec.add("sim.exo_replay", t0, time.Now(), 0, 0)
	rc.rep.note("sim: mean exogenous CPU utilization %.3f over %d cluster-minutes", util/float64(n), n)
	return nil
}
