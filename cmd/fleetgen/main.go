// Command fleetgen generates a synthetic fleet dataset and writes it to
// disk as JSON lines (one span per line, schema trace.SpanRecord), for
// inspection with external tools or replay through cmd/tracequery and
// cmd/rpcanalyze -in.
//
// Spans stream from the generation shards straight to the writer: the
// dataset is never materialized, so memory stays bounded no matter how
// large -volume is. Records interleave across shards, so dump order
// varies run to run, but the set of records is deterministic for a fixed
// seed. The report rpcanalyze renders from a dump depends on record
// order: two dumps of one seed can render different reports when their
// shards interleaved differently. A fixed record order — one dump per
// shard, as the repository benchmark writes, or a sorted dump — gives a
// reproducible report.
//
// Usage:
//
//	fleetgen [-methods N] [-volume N] [-trees N] [-seed N] -o spans.jsonl
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"rpcscale/internal/fleet"
	"rpcscale/internal/sim"
	"rpcscale/internal/trace"
	"rpcscale/internal/workload"
)

// streamSink streams every span to a SpanWriter as shards produce them.
// One instance is shared by all shards: the writer serializes records,
// and the only other state is atomic. The first write error is kept and
// reported after the run (sink callbacks cannot return errors).
type streamSink struct {
	w     *trace.SpanWriter
	roots atomic.Uint64
	fanIn atomic.Uint64 // fan-in edges across all graphs
	motif atomic.Uint64 // motif-tagged nodes across all graphs

	mu  sync.Mutex
	err error
}

func (s *streamSink) write(sp *trace.Span) {
	if err := s.w.Write(sp); err != nil {
		s.mu.Lock()
		if s.err == nil {
			s.err = err
		}
		s.mu.Unlock()
	}
}

func (s *streamSink) MethodSpan(sp *trace.Span) { s.write(sp) }
func (s *streamSink) VolumeSpan(sp *trace.Span) { s.write(sp) }
func (s *streamSink) TreeSpan(sp *trace.Span) {
	if sp.ParentID == 0 {
		s.roots.Add(1)
	}
	s.write(sp)
}
func (s *streamSink) TreeShape(string, int, int) {}
func (s *streamSink) GraphShape(g workload.GraphStat) {
	s.fanIn.Add(uint64(g.FanInEdges))
	var nodes uint64
	for m := 1; m < trace.NumMotifs; m++ {
		nodes += uint64(g.Motifs[m])
	}
	s.motif.Add(nodes)
}
func (s *streamSink) ExoSample(string, *trace.Span, sim.Exo) {}

func main() {
	var (
		methods    = flag.Int("methods", 2000, "catalog size (paper: 10000)")
		volume     = flag.Int("volume", 200000, "popularity-weighted call samples")
		trees      = flag.Int("trees", 1000, "materialized call trees")
		samples    = flag.Int("samples", 150, "stratified samples per method")
		motifs     = flag.String("motifs", "", "DAG motif packs to apply: comma list of fanin,cache,sidecar,replica, or 'all'")
		seed       = flag.Uint64("seed", 1, "master seed")
		out        = flag.String("o", "spans.jsonl", "output path ('-' for stdout)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file at exit")
		memstats   = flag.Bool("memstats", false, "print heap statistics to stderr at exit")
	)
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	topo := sim.NewTopology(sim.TopologyConfig{
		Regions: 6, DatacentersPer: 2, ClustersPerDC: 3,
		MachinesPerCluster: 16, Seed: *seed,
	})
	cat := fleet.New(fleet.Config{Methods: *methods, Clusters: len(topo.Clusters), Seed: *seed})
	packs, err := fleet.ParseMotifs(*motifs)
	if err != nil {
		fatal(err)
	}
	if len(packs) > 0 {
		counts := fleet.ApplyMotifs(cat, packs, *seed)
		for _, p := range packs {
			fmt.Fprintf(os.Stderr, "motif %s: %d methods\n", p.Name(), counts[p.Name()])
		}
	}
	// Ctrl-C stops generation at the next sample boundary; everything
	// streamed so far is already on its way to the writer.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	var w *os.File
	if *out == "-" {
		w = os.Stdout
	} else {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}

	start := time.Now()
	sink := &streamSink{w: trace.NewSpanWriter(w)}
	workload.Run(ctx, cat, topo, workload.RunConfig{
		Seed:          *seed,
		MethodSamples: *samples,
		VolumeRoots:   *volume,
		Trees:         *trees,
	}, func(int) workload.SpanSink { return sink })
	if err := sink.w.Flush(); err != nil && sink.err == nil {
		sink.err = err
	}
	if sink.err != nil {
		fatal(sink.err)
	}
	elapsed := time.Since(start)
	rate := float64(sink.w.Count()) / elapsed.Seconds()
	fmt.Fprintf(os.Stderr, "wrote %d spans (%d trees, %d methods) in %v\n",
		sink.w.Count(), sink.roots.Load(), len(cat.Methods), elapsed.Round(time.Millisecond))
	fmt.Fprintf(os.Stderr, "rate: spans_per_sec=%.0f fanin_edges=%d motif_nodes=%d\n",
		rate, sink.fanIn.Load(), sink.motif.Load())

	if *memstats {
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		fmt.Fprintf(os.Stderr, "memstats: heap_sys_bytes=%d heap_alloc_bytes=%d total_alloc_bytes=%d\n",
			m.HeapSys, m.HeapAlloc, m.TotalAlloc)
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
