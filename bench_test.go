package rpcscale

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (see DESIGN.md §3 for the index), plus the ablation benches
// DESIGN.md §5 calls out and real-stack microbenchmarks.
//
// Each Fig/Tab benchmark regenerates its figure from a shared simulated
// dataset; run with -v-style inspection via cmd/rpcanalyze instead when
// you want the rendered output. Benchmarks report domain metrics (shares,
// ratios) through b.ReportMetric so the shape results are visible in the
// bench output itself.

import (
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"rpcscale/internal/compressor"
	"rpcscale/internal/core"
	"rpcscale/internal/fleet"
	"rpcscale/internal/loadbalance"
	"rpcscale/internal/monarch"
	"rpcscale/internal/sim"
	"rpcscale/internal/stubby"
	"rpcscale/internal/trace"
	"rpcscale/internal/workload"
)

var (
	fixtureOnce sync.Once
	fxTopo      *sim.Topology
	fxCat       *fleet.Catalog
	fxDS        *workload.Dataset
	fxLatency   *core.PerMethodResult
)

// fixture builds the shared dataset once per bench binary run.
func fixture(b *testing.B) (*sim.Topology, *fleet.Catalog, *workload.Dataset) {
	b.Helper()
	fixtureOnce.Do(func() {
		fxTopo = sim.NewTopology(sim.DefaultTopology())
		fxCat = fleet.New(fleet.Config{Methods: 600, Clusters: len(fxTopo.Clusters), Seed: 5})
		fxDS = workload.Generate(context.Background(), fxCat, fxTopo, workload.RunConfig{
			Seed: 5, MethodSamples: 110, StudiedSamples: 1000,
			VolumeRoots: 30000, Trees: 200, MaxDepth: 8, TreeBudget: 1200,
		})
		fxLatency = core.LatencyByMethod(fxDS)
	})
	return fxTopo, fxCat, fxDS
}

func BenchmarkFig01Growth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		db := monarch.New(24*time.Hour, 0)
		if err := workload.DeclareMetrics(db); err != nil {
			b.Fatal(err)
		}
		if err := workload.WriteGrowthHistory(db, workload.GrowthConfig{Days: 700, Seed: uint64(i + 1)}); err != nil {
			b.Fatal(err)
		}
		res, err := core.GrowthAnalysis(db)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.AnnualGrowth*100, "annual-growth-%")
		}
	}
}

func BenchmarkFig02LatencyHeatmap(b *testing.B) {
	_, _, ds := fixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := core.LatencyByMethod(ds)
		if i == 0 {
			a := res.Anchors()
			b.ReportMetric(a.FracMedianOver10ms*100, "median>=10.7ms-%")
		}
	}
}

func BenchmarkFig03Popularity(b *testing.B) {
	_, _, ds := fixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := core.PopularityAnalysis(ds, fxLatency)
		if i == 0 {
			b.ReportMetric(res.Top10Share*100, "top10-share-%")
		}
	}
}

func BenchmarkFig04Descendants(b *testing.B) {
	_, _, ds := fixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := core.TreeShapeAnalysis(ds)
		if i == 0 {
			b.ReportMetric(res.FracMedianDescUnder13*100, "median-desc<=13-%")
		}
	}
}

func BenchmarkFig05Ancestors(b *testing.B) {
	_, _, ds := fixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := core.TreeShapeAnalysis(ds)
		if i == 0 {
			b.ReportMetric(res.FracAncP99Under10*100, "anc-P99<10-%")
		}
	}
}

func BenchmarkFig06RequestSize(b *testing.B) {
	_, _, ds := fixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.RequestSizeByMethod(ds)
	}
}

func BenchmarkFig07SizeRatio(b *testing.B) {
	_, _, ds := fixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.SizeRatioByMethod(ds)
	}
}

func BenchmarkFig08ServiceShares(b *testing.B) {
	_, _, ds := fixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := core.ServiceShareAnalysis(ds)
		if i == 0 {
			b.ReportMetric(res.Row("networkdisk").CallShare*100, "networkdisk-calls-%")
		}
	}
}

func BenchmarkTab01Services(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if core.RenderEightServices() == "" {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkFig10LatencyTax(b *testing.B) {
	_, _, ds := fixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := core.TaxAnalysis(ds)
		if i == 0 {
			b.ReportMetric(res.MeanTaxShare*100, "mean-tax-%")
		}
	}
}

func BenchmarkFig11TaxRatio(b *testing.B) {
	_, _, ds := fixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := core.TaxRatioByMethod(ds)
		if i == 0 {
			b.ReportMetric(res.TopDecileMedian*100, "top-decile-tax-%")
		}
	}
}

func BenchmarkFig12NetworkLatency(b *testing.B) {
	_, _, ds := fixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := core.TaxComponents(ds)
		if i == 0 {
			b.ReportMetric(float64(res.FastHalfWireP99)/1e6, "fast-half-P99-ms")
		}
	}
}

func BenchmarkFig13Queuing(b *testing.B) {
	_, _, ds := fixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := core.TaxComponents(ds)
		if i == 0 {
			b.ReportMetric(float64(res.TopQueueP99)/1e6, "top-decile-queue-P99-ms")
		}
	}
}

func BenchmarkFig14ServiceCDF(b *testing.B) {
	_, _, ds := fixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range fleet.EightServices() {
			core.ServiceBreakdown(ds, s.Method)
		}
	}
}

func BenchmarkFig15WhatIf(b *testing.B) {
	_, _, ds := fixture(b)
	var methods []string
	for _, s := range fleet.EightServices() {
		methods = append(methods, s.Method)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.WhatIf(ds, methods)
	}
}

func BenchmarkFig16ClusterVariation(b *testing.B) {
	_, _, ds := fixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := core.ClusterVariation(ds, "bigtable/SearchValue", 0)
		if i == 0 && res.Spread > 0 {
			b.ReportMetric(res.Spread, "P95-spread-x")
		}
	}
}

func BenchmarkFig17Exogenous(b *testing.B) {
	_, _, ds := fixture(b)
	methods := []string{"bigtable/SearchValue", "kvstore/Search", "videometadata/GetMetadata"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.ExogenousAnalysis(ds, methods)
	}
}

func BenchmarkFig18Diurnal(b *testing.B) {
	topo, cat, _ := fixture(b)
	for i := 0; i < b.N; i++ {
		db := monarch.New(30*time.Minute, 0)
		if err := workload.DeclareMetrics(db); err != nil {
			b.Fatal(err)
		}
		gen := workload.NewGenerator(cat, topo, nil, uint64(i+11))
		if err := workload.WriteDiurnalDay(db, gen, "bigtable/SearchValue", topo.Clusters[0], 25); err != nil {
			b.Fatal(err)
		}
		if _, err := core.DiurnalAnalysis(db, "bigtable/SearchValue", topo.Clusters[0].Name); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig19CrossCluster(b *testing.B) {
	topo, cat, _ := fixture(b)
	m := cat.MethodByName("spanner/ReadRows")
	server := topo.Clusters[m.HomeClusters[0]]
	for i := 0; i < b.N; i++ {
		gen := workload.NewGenerator(cat, topo, nil, uint64(i+17))
		res, err := core.CrossClusterAnalysis(gen, "spanner/ReadRows", server, 20)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			last := res.Rows[len(res.Rows)-1]
			b.ReportMetric(float64(last.Median)/1e6, "farthest-median-ms")
		}
	}
}

func BenchmarkFig20CycleTax(b *testing.B) {
	_, _, ds := fixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := core.CycleTax(ds)
		if i == 0 {
			b.ReportMetric(res.TaxShare*100, "cycle-tax-%")
		}
	}
}

func BenchmarkFig21CPUCycles(b *testing.B) {
	_, _, ds := fixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.CPUByMethod(ds)
		core.CPUCorrelationAnalysis(ds)
	}
}

func BenchmarkFig22LoadBalance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := loadbalance.DefaultConfig()
		cfg.Clusters, cfg.MachinesPerCluster = 8, 8
		cfg.Duration = 500 * time.Millisecond
		cfg.Seed = uint64(i + 1)
		res := loadbalance.Run(cfg)
		if res.Served == 0 {
			b.Fatal("nothing served")
		}
	}
}

func BenchmarkFig23Errors(b *testing.B) {
	_, _, ds := fixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := core.ErrorAnalysis(ds)
		if i == 0 {
			b.ReportMetric(res.ErrorRate*100, "error-rate-%")
		}
	}
}

// --- Ablation benches (DESIGN.md §5) ---

// BenchmarkAblationHedging compares plain vs hedged calls on the real
// stack against a server with an injected straggler mode: hedging buys
// tail latency with duplicated (cancelled) work, reproducing §4.4.
func BenchmarkAblationHedging(b *testing.B) {
	var n int
	var mu sync.Mutex
	opts := stubby.Options{Workers: 16}
	srv := stubby.NewServer(opts)
	srv.Register("bench/Get", func(ctx context.Context, p []byte) ([]byte, error) {
		mu.Lock()
		n++
		slow := n%20 == 0
		mu.Unlock()
		if slow {
			select {
			case <-time.After(5 * time.Millisecond):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		return p, nil
	})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go srv.Serve(l)
	defer srv.Close()
	ch, err := stubby.Dial(l.Addr().String(), "bench", opts)
	if err != nil {
		b.Fatal(err)
	}
	defer ch.Close()
	payload := make([]byte, 128)

	b.Run("plain", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ch.Call(context.Background(), "bench/Get", payload); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("hedged", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ch.CallHedged(context.Background(), "bench/Get", payload, time.Millisecond); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationLoadBalance compares balancing policies at high load;
// power-of-two and least-loaded should report far lower P99 queue waits
// than random.
func BenchmarkAblationLoadBalance(b *testing.B) {
	policies := []loadbalance.Policy{
		&loadbalance.RoundRobin{}, loadbalance.Random{},
		loadbalance.PowerOfTwo{}, loadbalance.LeastLoaded{},
	}
	for _, p := range policies {
		b.Run(p.Name(), func(b *testing.B) {
			// Average the P99 across iterations: single-seed tails are
			// noisy at high load.
			var p99Sum float64
			for i := 0; i < b.N; i++ {
				cfg := loadbalance.DefaultConfig()
				cfg.Clusters, cfg.MachinesPerCluster = 6, 10
				cfg.OfferedLoad = 0.85
				// Uniform cluster demand isolates the intra-cluster
				// policy: with the default imbalance some clusters run
				// saturated, where no within-cluster policy can help.
				cfg.ClusterImbalance = 0
				cfg.Duration = 500 * time.Millisecond
				cfg.Policy = p
				cfg.Seed = uint64(i + 1)
				res := loadbalance.Run(cfg)
				p99Sum += res.Waits.Percentile(99) / 1e6
			}
			b.ReportMetric(p99Sum/float64(b.N), "p99-wait-ms")
		})
	}
}

// BenchmarkAblationCompression measures the cycle-vs-bytes trade of the
// single largest cycle-tax component (Fig. 20): flate on a compressible
// 16 KB payload vs pass-through.
func BenchmarkAblationCompression(b *testing.B) {
	payload := make([]byte, 16*1024)
	for i := range payload {
		payload[i] = byte(i / 64) // compressible structure
	}
	for _, algo := range []compressor.Algorithm{compressor.None, compressor.Flate} {
		b.Run(algo.String(), func(b *testing.B) {
			c := compressor.New(algo, nil)
			b.SetBytes(int64(len(payload)))
			var outLen int
			for i := 0; i < b.N; i++ {
				out, err := c.Compress(payload)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := c.Decompress(out); err != nil {
					b.Fatal(err)
				}
				outLen = len(out)
			}
			b.ReportMetric(float64(outLen)/float64(len(payload)), "ratio")
		})
	}
}

// BenchmarkAblationQueue compares FIFO vs size-aware (SJF) queueing under
// an elephant-and-mice mix — the HOL-blocking discussion of §2.5.
func BenchmarkAblationQueue(b *testing.B) {
	for _, disc := range []sim.Discipline{sim.FIFO, sim.SJF} {
		b.Run(disc.String(), func(b *testing.B) {
			var meanWait float64
			for i := 0; i < b.N; i++ {
				engine := sim.NewEngine()
				srv := sim.NewServer(engine, "m", 1, disc)
				var mouseWait time.Duration
				var mice int
				for j := 0; j < 400; j++ {
					svc := 100 * time.Microsecond // mouse
					if j%20 == 0 {
						svc = 10 * time.Millisecond // elephant
					}
					isMouse := svc < time.Millisecond
					srv.Submit(&sim.Job{Service: svc, Done: func(w time.Duration) {
						if isMouse {
							mouseWait += w
							mice++
						}
					}})
					engine.RunUntil(engine.Now() + 150*time.Microsecond)
				}
				engine.Run()
				meanWait = float64(mouseWait.Microseconds()) / float64(mice)
			}
			b.ReportMetric(meanWait, "mouse-wait-us")
		})
	}
}

// --- Real-stack microbenchmarks ---

// BenchmarkStubbyUnary measures end-to-end unary call latency on the real
// stack over loopback TCP with full encryption.
func BenchmarkStubbyUnary(b *testing.B) {
	for _, size := range []int{128, 1530, 16 * 1024} {
		b.Run(byteLabel(size), func(b *testing.B) {
			opts := stubby.Options{Workers: 8}
			srv := stubby.NewServer(opts)
			srv.Register("bench/Echo", func(ctx context.Context, p []byte) ([]byte, error) {
				return p, nil
			})
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			go srv.Serve(l)
			defer srv.Close()
			ch, err := stubby.Dial(l.Addr().String(), "bench", opts)
			if err != nil {
				b.Fatal(err)
			}
			defer ch.Close()
			payload := make([]byte, size)
			b.SetBytes(int64(size))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ch.Call(context.Background(), "bench/Echo", payload); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStubbyUnaryParallel is the client fan-in variant: RunParallel
// drives concurrent callers over one channel, so a `-cpu 1,2,4` sweep
// shows how envelope-lane throughput scales with cores once callers and
// the batching writer run on separate cores.
func BenchmarkStubbyUnaryParallel(b *testing.B) {
	for _, size := range []int{128, 16 * 1024} {
		b.Run(byteLabel(size), func(b *testing.B) {
			opts := stubby.Options{Workers: 8}
			srv := stubby.NewServer(opts)
			srv.Register("bench/Echo", func(ctx context.Context, p []byte) ([]byte, error) {
				return p, nil
			})
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			go srv.Serve(l)
			defer srv.Close()
			ch, err := stubby.Dial(l.Addr().String(), "bench", opts)
			if err != nil {
				b.Fatal(err)
			}
			defer ch.Close()
			payload := make([]byte, size)
			b.SetBytes(int64(size))
			b.SetParallelism(8)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					if _, err := ch.Call(context.Background(), "bench/Echo", payload); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}

// BenchmarkStubbyBulkUnaryStriped is the connection-striping variant of
// the bulk download bench: the channel opens 2 TCP connections and
// round-robins bulk calls across them (DESIGN.md §16), so the `-cpu`
// sweep exposes whether a second stripe buys throughput once one
// connection's seal/open work saturates a core.
func BenchmarkStubbyBulkUnaryStriped(b *testing.B) {
	const size = 256 * 1024
	opts := stubby.Options{Workers: 8, ConnStripes: 2}
	srv := stubby.NewServer(opts)
	blob := make([]byte, size)
	srv.Register("bench/Get", func(ctx context.Context, p []byte) ([]byte, error) {
		return blob, nil
	})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go srv.Serve(l)
	defer srv.Close()
	ch, err := stubby.Dial(l.Addr().String(), "bench", opts)
	if err != nil {
		b.Fatal(err)
	}
	defer ch.Close()
	req := make([]byte, 16)
	b.SetBytes(size)
	b.SetParallelism(16)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			out, err := ch.Call(context.Background(), "bench/Get", req)
			if err != nil {
				b.Fatal(err)
			}
			stubby.FreeResponse(out)
		}
	})
}

func byteLabel(n int) string {
	switch {
	case n >= 1024:
		return itoa(n/1024) + "KB"
	default:
		return itoa(n) + "B"
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// BenchmarkSpanGeneration measures the simulator's span production rate
// (the cost driver for paper-scale dataset generation).
func BenchmarkSpanGeneration(b *testing.B) {
	topo, cat, _ := fixture(b)
	gen := workload.NewGenerator(cat, topo, nil, 23)
	m := cat.MethodByName("networkdisk/Write")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		obs := gen.Call(m, workload.CallOptions{At: time.Duration(i) * time.Millisecond})
		if obs.Span == nil {
			b.Fatal("no span")
		}
	}
}

// BenchmarkTreeReconstruction measures Dapper-style tree building.
func BenchmarkTreeReconstruction(b *testing.B) {
	_, _, ds := fixture(b)
	spans := ds.TreeSpans
	if len(spans) == 0 {
		b.Skip("no tree spans")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if trees := trace.BuildTrees(spans); len(trees) == 0 {
			b.Fatal("no trees")
		}
	}
}

// BenchmarkAblationColocation quantifies the §5.2 co-location what-if:
// tree root latency with and without cluster-manager co-location.
func BenchmarkAblationColocation(b *testing.B) {
	topo, cat, _ := fixture(b)
	for i := 0; i < b.N; i++ {
		res := core.ColocationStudy(func() *workload.Generator {
			return workload.NewGeneratorShard(cat, topo, nil, uint64(i+3), 1)
		}, 80)
		if i == 0 {
			b.ReportMetric(res.CrossRateWithout-res.CrossRateWith, "cross-rate-saved")
		}
	}
}

// BenchmarkOffloadCoverage regenerates the §2.5 Zerializer-style
// accelerator coverage numbers.
func BenchmarkOffloadCoverage(b *testing.B) {
	_, _, ds := fixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := core.OffloadCoverage(ds, 1500)
		if i == 0 {
			b.ReportMetric(res.MessageCoverage*100, "msg-coverage-%")
			b.ReportMetric(res.ByteCoverage*100, "byte-coverage-%")
		}
	}
}

// --- Streaming accumulator benches ---

// BenchmarkAccumObserve measures the steady-state cost of folding one
// volume span into the report accumulators. After warm-up the observe
// path allocates only on histogram bucket growth and periodic bottom-k
// prunes, so allocs/op should sit near zero — the property that keeps
// StreamReport's memory bounded at any volume.
func BenchmarkAccumObserve(b *testing.B) {
	_, _, ds := fixture(b)
	spans := ds.VolumeSpans
	if len(spans) == 0 {
		b.Skip("no volume spans")
	}
	sink := core.NewReportSink()
	for _, s := range spans {
		sink.VolumeSpan(s)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i, j := 0, 0; i < b.N; i++ {
		sink.VolumeSpan(spans[j])
		j++
		if j == len(spans) {
			j = 0
		}
	}
}

// BenchmarkAccumReplay measures replaying the materialized dataset
// through per-shard accumulators and merging them in shard order — the
// one-time cost FullReport pays before rendering.
func BenchmarkAccumReplay(b *testing.B) {
	_, _, ds := fixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if core.SinkFromDataset(ds) == nil {
			b.Fatal("nil sink")
		}
	}
}

// BenchmarkStubbyStream measures server-streaming throughput on the real
// stack: 64 x 32KB chunks per stream.
func BenchmarkStubbyStream(b *testing.B) {
	opts := stubby.Options{Workers: 8}
	srv := stubby.NewServer(opts)
	chunk := make([]byte, 32*1024)
	srv.RegisterBidi("bench/Read", func(ctx context.Context, st *stubby.Stream) error {
		for i := 0; i < 64; i++ {
			if err := st.Send(chunk); err != nil {
				return err
			}
		}
		return nil
	})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go srv.Serve(l)
	defer srv.Close()
	ch, err := stubby.Dial(l.Addr().String(), "bench", opts)
	if err != nil {
		b.Fatal(err)
	}
	defer ch.Close()
	b.SetBytes(64 * 32 * 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := ch.OpenStream(context.Background(), "bench/Read")
		if err != nil {
			b.Fatal(err)
		}
		if err := st.CloseSend(); err != nil {
			b.Fatal(err)
		}
		for {
			if _, err := st.Recv(); err != nil {
				break
			}
		}
	}
}

// BenchmarkStubbyBulkUnary measures unary download throughput through the
// zero-copy bulk lane: a small request fetches a size-B response, which
// rides back as scatter-gather chunk frames (see DESIGN.md §12). Each
// response buffer is recycled with FreeResponse so the receive path stays
// allocation-free, and calls pipeline so the batch writer coalesces
// frames — the configuration the ≥1 GB/s loopback target in
// BENCH_stubby.json uses.
func BenchmarkStubbyBulkUnary(b *testing.B) {
	for _, size := range []int{16 * 1024, 64 * 1024, 256 * 1024} {
		b.Run(byteLabel(size), func(b *testing.B) {
			opts := stubby.Options{Workers: 8}
			srv := stubby.NewServer(opts)
			blob := make([]byte, size)
			srv.Register("bench/Get", func(ctx context.Context, p []byte) ([]byte, error) {
				return blob, nil
			})
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			go srv.Serve(l)
			defer srv.Close()
			ch, err := stubby.Dial(l.Addr().String(), "bench", opts)
			if err != nil {
				b.Fatal(err)
			}
			defer ch.Close()
			req := make([]byte, 16)
			b.SetBytes(int64(size))
			// Pipeline calls even on one core: in-flight calls keep the
			// batch writer coalescing frames so syscall costs amortize.
			b.SetParallelism(16)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					out, err := ch.Call(context.Background(), "bench/Get", req)
					if err != nil {
						b.Fatal(err)
					}
					stubby.FreeResponse(out)
				}
			})
		})
	}
}

// BenchmarkStubbyStream100 measures a 100-item bidirectional stream over
// the symmetric OpenStream API with per-item credit grants; ReportAllocs
// feeds the stream_allocs_per_op series in BENCH_stubby.json (target:
// ≤100 allocs for the whole 100-item stream).
func BenchmarkStubbyStream100(b *testing.B) {
	const items, itemSize = 100, 1024
	opts := stubby.Options{Workers: 8}
	srv := stubby.NewServer(opts)
	srv.RegisterBidi("bench/Items", func(ctx context.Context, st *stubby.Stream) error {
		item := make([]byte, itemSize)
		for i := 0; i < items; i++ {
			if err := st.Send(item); err != nil {
				return err
			}
		}
		return nil
	})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go srv.Serve(l)
	defer srv.Close()
	ch, err := stubby.Dial(l.Addr().String(), "bench", opts)
	if err != nil {
		b.Fatal(err)
	}
	defer ch.Close()
	b.SetBytes(items * itemSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := ch.OpenStream(context.Background(), "bench/Items")
		if err != nil {
			b.Fatal(err)
		}
		if err := st.CloseSend(); err != nil {
			b.Fatal(err)
		}
		for {
			if _, err := st.Recv(); err != nil {
				break
			}
		}
		st.Close()
	}
}

// BenchmarkPoolCall measures pooled unary calls (4 connections).
func BenchmarkPoolCall(b *testing.B) {
	opts := stubby.Options{Workers: 8}
	srv := stubby.NewServer(opts)
	srv.Register("bench/Echo", func(ctx context.Context, p []byte) ([]byte, error) { return p, nil })
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go srv.Serve(l)
	defer srv.Close()
	pool, err := stubby.NewPool(l.Addr().String(), "bench", 4, opts)
	if err != nil {
		b.Fatal(err)
	}
	defer pool.Close()
	payload := make([]byte, 512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pool.Call(context.Background(), "bench/Echo", payload); err != nil {
			b.Fatal(err)
		}
	}
}
