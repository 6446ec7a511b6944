package main

import (
	"context"
	"fmt"
	"time"

	"rpcscale/internal/stubby"
	"rpcscale/internal/trace"
)

// setupRuns is how many times a run sets up; setup_s is their median.
const setupRuns = 5

// setupLive builds the client's inputs with prepare, starts the server
// child, dials it and runs the warmup calls, setupRuns times, timing
// each from start to the end of its warmup. It keeps the last stack and
// returns it with the median set-up time in seconds.
func setupLive(cfg stackConfig, prepare func() (*payloads, []callSpec)) (*liveStack, float64, error) {
	var times []float64
	for {
		t0 := time.Now()
		st, err := startWarm(cfg, prepare)
		if err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		if len(times) == setupRuns {
			if st.plane != nil {
				st.plane.Reset() // drop the warmup from the plane
			}
			return st, median(times), nil
		}
		if err := st.close(); err != nil {
			return nil, 0, err
		}
	}
}

// startWarm runs one set-up: inputs, server child, dial, warmup calls.
func startWarm(cfg stackConfig, prepare func() (*payloads, []callSpec)) (*liveStack, error) {
	pays, warm := prepare()
	st, err := startStack(cfg, pays)
	if err != nil {
		return nil, err
	}
	var buf []byte
	for j, c := range warm {
		if buf, err = st.call(context.Background(), buf, uint64(j)+1, c); err != nil {
			st.close()
			return nil, fmt.Errorf("warmup call %d: %w", j, err)
		}
	}
	return st, nil
}

// window is the client's and the server child's counter deltas over a
// measured interval.
type window struct {
	client, server usage
	served         uint64
	badReq         uint64
	codecJobs      uint64 // client plane codec jobs, when a plane is attached
	compressSkips  uint64
	sealedBytes    uint64
	compIn         uint64 // client bytes fed to the compressor
	compOut        uint64
}

// compressRatio is the client's compressed/uncompressed byte ratio over
// the window (1 when nothing was compressed).
func (w window) compressRatio() float64 {
	if w.compIn == 0 {
		return 1
	}
	return float64(w.compOut) / float64(w.compIn)
}

// mark is the counters at one instant.
type mark struct {
	client  usage
	server  childStat
	codec   uint64
	skips   uint64
	sealed  uint64
	compIn  uint64
	compOut uint64
}

func (s *liveStack) mark() (mark, error) {
	var m mark
	var err error
	if m.client, err = selfUsage(); err != nil {
		return m, err
	}
	if m.server, err = s.stat(); err != nil {
		return m, err
	}
	if s.plane != nil {
		m.codec = s.plane.CodecJobs()
		m.skips = s.plane.CompressSkips()
		m.sealed = s.plane.EncryptionStats().BytesEncrypted.Load()
		m.compIn = s.plane.CompressorStats().BytesIn.Load()
		m.compOut = s.plane.CompressorStats().BytesOut.Load()
	}
	return m, nil
}

func (b mark) since(a mark) window {
	return window{
		client: b.client.sub(a.client), server: b.server.Usage.sub(a.server.Usage),
		served: b.server.Served - a.server.Served, badReq: b.server.BadReq - a.server.BadReq,
		codecJobs: b.codec - a.codec, compressSkips: b.skips - a.skips, sealedBytes: b.sealed - a.sealed,
		compIn: b.compIn - a.compIn, compOut: b.compOut - a.compOut,
	}
}

// checkWindow applies the output checks every live window must pass:
// the server saw no malformed request, and the client's buffer pool got
// back every buffer it handed out (within the few a reader keeps).
func checkWindow(rc *runCtx, w window, label string) {
	if w.badReq > 0 {
		rc.rep.fail("%s: server child rejected %d requests that did not match their call IDs", label, w.badReq)
	}
	if un := w.client.PoolGets - w.client.PoolPuts; un > maxUnreturned || un < -maxUnreturned {
		rc.rep.fail("%s: wire buffer pool: %d buffers not returned (gets %d, puts %d)",
			label, un, w.client.PoolGets, w.client.PoolPuts)
	}
}

// maxUnreturned is how many pooled buffers may be out at the end of a
// quiesced window: buffers a connection's reader legitimately holds.
const maxUnreturned = 16

// liveLayers records the per-layer metrics of a traced live-stack window
// over calls completed calls (bulk of which rode the bulk lane).
func liveLayers(rc *runCtx, st *liveStack, w window, calls, bulk int64) {
	n := float64(calls)
	rc.layer("stubby.bulk_call_share", float64(bulk)/n, "ratio")
	rc.layer("stubby.codec_jobs_per_call", float64(w.codecJobs)/n, "1/call")

	rc.layer("wire.write_syscalls_per_call.client", float64(w.client.IO.SyscW)/n, "1/call")
	rc.layer("wire.write_syscalls_per_call.server", float64(w.server.IO.SyscW)/n, "1/call")
	rc.layer("wire.read_syscalls_per_call.client", float64(w.client.IO.SyscR)/n, "1/call")
	rc.layer("wire.read_syscalls_per_call.server", float64(w.server.IO.SyscR)/n, "1/call")
	if writes := w.client.IO.SyscW + w.server.IO.SyscW; writes > 0 {
		rc.layer("wire.bytes_per_write", float64(w.client.IO.WChar+w.server.IO.WChar)/float64(writes), "B")
	}
	rc.layer("wire.pool_gets_per_call", float64(w.client.PoolGets)/n, "1/call")
	rc.layer("wire.pool_unreturned", float64(w.client.PoolGets-w.client.PoolPuts), "count")
	rc.layer("secure.sealed_bytes_per_call", float64(w.sealedBytes)/n, "B")

	rc.layer("process.cpu_us_per_call.client", us(w.client.CPU)/n, "us")
	rc.layer("process.cpu_us_per_call.server", us(w.server.CPU)/n, "us")
	rc.layer("process.allocs_per_call", float64(w.client.Allocs+w.server.Allocs)/n, "1/call")
	if tot := w.client.TotalCPU + w.server.TotalCPU; tot > 0 {
		rc.layer("process.gc_cpu_share", (w.client.GCCPU+w.server.GCCPU)/tot, "ratio")
	}
	rc.layer("process.ctx_switches_per_call", float64(w.client.CtxSwitch+w.server.CtxSwitch)/n, "1/call")

	if st.plane == nil {
		return
	}
	var snaps []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		st.plane.Snapshot()
		snaps = append(snaps, time.Since(t0).Seconds()*1e3)
	}
	rc.layer("telemetry.snapshot_ms", median(snaps), "ms")
	rc.layer("trace.collector_overflow", float64(st.plane.Collector().Overflow()), "count")
	breakdownLayers(rc, st.plane.Collector().Spans())
}

// breakdownLayers matches the plane's retained client spans to the
// benchmark's stubby.call spans by trace ID (the benchmark sets the
// trace ID to its call ID), reports the nine components' percentiles and
// records each component as a child span of its call.
func breakdownLayers(rc *runCtx, spans []*trace.Span) {
	calls := rc.rec.byReq("stubby.call")
	comp := make([]samples, trace.NumComponents)
	var wire samples
	matched := 0
	for _, s := range spans {
		parent, ok := calls[uint64(s.TraceID)]
		if !ok || s.Err.IsError() {
			continue
		}
		matched++
		for c, d := range s.Breakdown {
			comp[c] = append(comp[c], us(d))
		}
		wire = append(wire, us(s.Breakdown.Wire()))
		rc.rec.addBreakdown(parent, &s.Breakdown)
	}
	rc.rep.note("breakdown: %d of %d retained plane spans matched %d traced calls", matched, len(spans), len(calls))
	if matched == 0 {
		rc.rep.fail("breakdown: no plane span matched a traced call by trace ID")
	}
	put := func(name string, vals samples, qs ...float64) {
		sorted := vals.sorted()
		for _, q := range qs {
			p := percentile(sorted, q)
			rc.rep.note("%s %s", name, p)
			if p.OK() {
				rc.layer(fmt.Sprintf("%s.p%s", name, qName(q)), p.Value, "us")
			}
		}
	}
	put("stubby.client_send_queue_us", comp[trace.ClientSendQueue], 0.5, 0.99)
	put("stubby.req_proc_stack_us", comp[trace.ReqProcStack], 0.5, 0.99)
	put("stubby.server_recv_queue_us", comp[trace.ServerRecvQueue], 0.5, 0.99)
	put("stubby.server_app_us", comp[trace.ServerApp], 0.5)
	put("stubby.server_send_queue_us", comp[trace.ServerSendQueue], 0.5, 0.99)
	put("stubby.resp_proc_stack_us", comp[trace.RespProcStack], 0.5, 0.99)
	put("stubby.client_recv_queue_us", comp[trace.ClientRecvQueue], 0.5, 0.99)
	put("stubby.wire_us", wire, 0.5, 0.99)

	var call samples
	for _, s := range calls {
		call = append(call, us(s.End-s.Start))
	}
	put("stubby.call_us", call, 0.5, 0.99)
}

// withTrace tags a call with the benchmark's call ID as its trace ID, so
// the plane's span for it can be found again.
func withTrace(ctx context.Context, id uint64) context.Context {
	return stubby.ContextWithTrace(ctx, stubby.TraceContext{TraceID: trace.TraceID(id)})
}

// us converts a duration to microseconds.
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// rssMiB sums the peak resident set of the client and the server child.
func rssMiB(st *liveStack, client usage) (float64, error) {
	ps, err := readProcStatus(st.pid())
	if err != nil {
		return 0, fmt.Errorf("server child status: %w", err)
	}
	return float64(client.HWMKiB+ps.VmHWMKiB) / 1024, nil
}
