package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"os"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSpecsDeterministicPerSeed(t *testing.T) {
	cat := liveCatalog()
	a, b := smallSpecs(cat, 7, 2000), smallSpecs(liveCatalog(), 7, 2000)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("smallSpecs differs between two builds with the same seed")
	}
	for i, c := range a {
		if !smallFrame(c.Method, int64(c.Req), int64(c.Resp)) || c.Req < headerLen || c.Kind != kindRandom {
			t.Fatalf("spec %d = %+v: outside unary_small's bounds", i, c)
		}
	}
	if reflect.DeepEqual(a, smallSpecs(cat, 8, 2000)) {
		t.Fatal("smallSpecs is the same for seeds 7 and 8")
	}
}

func TestScheduleDeterministicPerSeed(t *testing.T) {
	cat := liveCatalog()
	draw := func(seed uint64) []arrival {
		s := newSchedule(cat, seed, "nominal", 1000)
		out := make([]arrival, 5000)
		for i := range out {
			out[i] = s.next()
		}
		return out
	}
	a, b := draw(3), draw(3)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("schedule differs between two draws with the same seed")
	}
	if reflect.DeepEqual(a, draw(4)) {
		t.Fatal("schedule is the same for seeds 3 and 4")
	}
	var text, big int
	for i, x := range a {
		if i > 0 && x.Due < a[i-1].Due {
			t.Fatalf("arrival %d due %v before arrival %d at %v", i, x.Due, i-1, a[i-1].Due)
		}
		if x.Req > mixMax || x.Resp > mixMax {
			t.Fatalf("arrival %d = %+v exceeds the 4 MiB cap", i, x.callSpec)
		}
		if x.Kind == kindText {
			text++
		}
		if x.Req >= bulkThreshold || x.Resp >= bulkThreshold {
			big++
		}
	}
	// Offered rate: 5000 Poisson arrivals at 1000/s take about 5 s.
	if end := a[len(a)-1].Due.Seconds(); end < 4.5 || end > 5.5 {
		t.Errorf("5000 arrivals at 1000/s end at %.2f s", end)
	}
	if text == 0 || text == len(a) {
		t.Errorf("%d of %d arrivals compressible; want a mix", text, len(a))
	}
	if big == 0 {
		t.Error("no arrival reaches the bulk lane")
	}
}

func TestPayloadsRoundTrip(t *testing.T) {
	p, q := newPayloads(11, 64<<10), newPayloads(11, 64<<10)
	if !bytes.Equal(p.random, q.random) || !bytes.Equal(p.text, q.text) {
		t.Fatal("payload pools differ between two builds with the same seed")
	}
	if bytes.Equal(p.random, newPayloads(12, 64<<10).random) {
		t.Fatal("payload pools are the same for seeds 11 and 12")
	}
	for _, kind := range []byte{kindRandom, kindText} {
		req := p.request(nil, 42, 3000, 1234, kind)
		id, respLen, k, err := q.parseRequest(req)
		if err != nil || id != 42 || respLen != 1234 || k != kind {
			t.Fatalf("parseRequest = %d, %d, %d, %v", id, respLen, k, err)
		}
		resp := q.response(id, respLen, k)
		if err := p.checkResponse(resp, 42, 1234, kind); err != nil {
			t.Fatal(err)
		}
		bad := append([]byte(nil), resp...)
		bad[len(bad)/2] ^= 1
		if p.checkResponse(bad, 42, 1234, kind) == nil {
			t.Fatal("checkResponse accepted a corrupted reply")
		}
		if p.checkResponse(resp[:len(resp)-1], 42, 1234, kind) == nil {
			t.Fatal("checkResponse accepted a short reply")
		}
		if p.checkResponse(q.response(43, respLen, k), 42, 1234, kind) == nil {
			t.Fatal("checkResponse accepted another call's reply")
		}
		req[headerLen+5] ^= 1
		if _, _, _, err := q.parseRequest(req); !errors.Is(err, errBadRequest) {
			t.Fatalf("parseRequest of a corrupted request: %v", err)
		}
	}
}

func TestPercentileRule(t *testing.T) {
	vals := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(i + 1)
		}
		return out
	}
	cases := []struct {
		n      int
		q      float64
		value  float64
		beyond int
		ok     bool
	}{
		{1000, 0.99, 990, 10, true},
		{999, 0.99, 990, 9, false},
		{20, 0.5, 10, 10, true},
		{19, 0.5, 10, 9, false},
		{1, 0.5, 1, 0, false},
	}
	for _, c := range cases {
		p := percentile(vals(c.n), c.q)
		if p.Value != c.value || p.Beyond != c.beyond || p.OK() != c.ok || p.N != c.n {
			t.Errorf("percentile(n=%d, q=%g) = %+v ok=%v; want value %g, %d beyond, ok=%v",
				c.n, c.q, p, p.OK(), c.value, c.beyond, c.ok)
		}
		s := p.String()
		if c.ok && (!strings.Contains(s, "beyond") || !strings.Contains(s, "n=")) {
			t.Errorf("String() = %q: want the sample count", s)
		}
		if !c.ok && !strings.Contains(s, "unreported") {
			t.Errorf("String() = %q: want it marked unreported", s)
		}
	}

	// A window's percentile without enough samples fails the run.
	r := newReport()
	if v := r.windowPct("p99_us", []samples{vals(2000), vals(2000)}, 0.99); v != 1980 || !r.res.Correct {
		t.Errorf("windowPct = %g, correct=%v; want 1980, true", v, r.res.Correct)
	}
	r.windowPct("p99_us", []samples{vals(2000), vals(500)}, 0.99)
	if r.res.Correct {
		t.Error("windowPct accepted a window whose p99 has 5 samples beyond it")
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median = %g, want 2", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %g, want 2.5", m)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing is not NaN")
	}
}

// fakeEndpoint is a single server with a fixed service time: calls queue
// on a virtual timeline, so its capacity is exactly 1/service however
// late the sleeps wake.
type fakeEndpoint struct {
	service time.Duration
	mu      sync.Mutex
	free    time.Time
}

func (f *fakeEndpoint) call(ctx context.Context, buf []byte, _ uint64, _ callSpec) ([]byte, error) {
	f.mu.Lock()
	now := time.Now()
	start := f.free
	if start.Before(now) {
		start = now
	}
	f.free = start.Add(f.service)
	done := f.free
	f.mu.Unlock()
	select {
	case <-time.After(time.Until(done)):
		return buf, nil
	case <-ctx.Done():
		return buf, ctx.Err()
	}
}

func TestMaxRateAgainstKnownCapacity(t *testing.T) {
	if testing.Short() {
		t.Skip("drives a fake endpoint for several seconds")
	}
	const capacity = 4000.0 // calls/s
	f := &fakeEndpoint{service: time.Duration(float64(time.Second) / capacity)}
	o := &openLoop{call: f.call}
	got, steps := o.maxRate(liveCatalog(), 1, capacity/2, 100*time.Millisecond)
	for _, s := range steps {
		t.Logf("offered %.0f: ok=%v (%s) %s", s.rate, s.ok, s.reason, s.p99)
	}
	// Below capacity the queue stays short (p99 well under the limit);
	// above it the backlog grows without bound. The search must land in
	// between, within its step resolution.
	if got < 0.6*capacity || got > 1.05*capacity {
		t.Fatalf("maxRate = %.0f calls/s, want about %.0f", got, capacity)
	}
	for _, s := range steps {
		if s.rate > 1.2*capacity && s.ok {
			t.Errorf("step at %.0f calls/s (capacity %.0f) passed", s.rate, capacity)
		}
	}
}

func TestParseProcIO(t *testing.T) {
	in := "rchar: 1234\nwchar: 5678\nsyscr: 12\nsyscw: 34\nread_bytes: 0\nwrite_bytes: 4096\ncancelled_write_bytes: 0\n"
	got, err := parseProcIO(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if want := (procIO{SyscR: 12, SyscW: 34, RChar: 1234, WChar: 5678}); got != want {
		t.Fatalf("parseProcIO = %+v, want %+v", got, want)
	}
	if _, err := parseProcIO(strings.NewReader("rchar: 1\nwchar: 2\n")); err == nil {
		t.Error("parseProcIO accepted input without syscr/syscw")
	}
	if _, err := parseProcIO(strings.NewReader("rchar: x\nwchar: 2\nsyscr: 1\nsyscw: 1\n")); err == nil {
		t.Error("parseProcIO accepted a non-numeric value")
	}
}

func TestParseProcStatus(t *testing.T) {
	in := "Name:\tperfbench\nVmPeak:\t  100 kB\nVmHWM:\t   2048 kB\nVmRSS:\t   1024 kB\nThreads:\t5\n"
	got, err := parseProcStatus(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if want := (procStatus{VmHWMKiB: 2048}); got != want {
		t.Fatalf("parseProcStatus = %+v, want %+v", got, want)
	}
	if _, err := parseProcStatus(strings.NewReader("VmRSS:\t 1 kB\n")); err == nil {
		t.Error("parseProcStatus accepted input without VmHWM")
	}
	if _, err := parseProcStatus(strings.NewReader("VmHWM:\t 1 MB\n")); err == nil {
		t.Error("parseProcStatus accepted a unit other than kB")
	}
}

func TestParseProcStat(t *testing.T) {
	in := "cpu  100 5 50 800 10 1 4 30 7 0\ncpu0 50 2 25 400 5 0 2 15 3 0\nintr 1 2 3\n"
	got, err := parseProcStat(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if want := (cpuTimes{Total: 1000, Steal: 30}); got != want {
		t.Fatalf("parseProcStat = %+v, want %+v", got, want)
	}
	if s := (cpuTimes{Total: 1200, Steal: 80}).stealShare(got); s != 0.25 {
		t.Errorf("stealShare = %v, want 0.25", s)
	}
	if s := got.stealShare(got); s != 0 {
		t.Errorf("stealShare over no ticks = %v, want 0", s)
	}
	for _, bad := range []string{"cpu0 1 2 3 4 5 6 7 8\n", "cpu 1 2 3\n", "cpu 1 2 3 4 5 6 7 x\n", ""} {
		if _, err := parseProcStat(strings.NewReader(bad)); err == nil {
			t.Errorf("parseProcStat accepted %q", bad)
		}
	}
}

func TestCleanWindows(t *testing.T) {
	steal := []float64{0, 0.05, maxSteal, 0.2}
	if got := clean(steal, 2); !reflect.DeepEqual(got, []int{0, 2}) {
		t.Errorf("clean(least 2) = %v, want [0 2]", got)
	}
	if got := clean(steal, 3); !reflect.DeepEqual(got, []int{0, 1, 2, 3}) {
		t.Errorf("clean(least 3) = %v, want every window", got)
	}
	if got := pick([]string{"a", "b", "c", "d"}, []int{0, 2}); !reflect.DeepEqual(got, []string{"a", "c"}) {
		t.Errorf("pick = %v", got)
	}
}

func TestProcReadersLive(t *testing.T) {
	u, err := selfUsage()
	if err != nil {
		t.Skipf("no /proc here: %v", err)
	}
	f, err := os.CreateTemp(t.TempDir(), "io")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := f.Write([]byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	f.Close()
	v, err := selfUsage()
	if err != nil {
		t.Fatal(err)
	}
	d := v.sub(u)
	if d.IO.SyscW < 10 || d.IO.WChar < 10 {
		t.Errorf("10 one-byte writes moved syscw by %d, wchar by %d", d.IO.SyscW, d.IO.WChar)
	}
	if v.HWMKiB <= 0 {
		t.Errorf("VmHWM = %d KiB", v.HWMKiB)
	}
	c, err := readCPUTimes()
	if err != nil {
		t.Fatal(err)
	}
	if c.Total <= 0 || c.Steal < 0 || c.Steal > c.Total {
		t.Errorf("/proc/stat cpu times = %+v", c)
	}
}

func TestSelfTimes(t *testing.T) {
	r := newRecorder()
	parent := r.addAt("call", 0, 100, 0, 1)
	r.addAt("a", 10, 30, parent, 1)
	r.addAt("b", 20, 50, parent, 1)  // overlaps a: counted once
	r.addAt("c", 90, 120, parent, 1) // clipped at the parent's end
	got := map[string]time.Duration{}
	for _, s := range r.selfTimes() {
		got[s.name] = s.self
	}
	if got["call"] != 100-40-10 {
		t.Errorf("self time of call = %v, want 50ns", got["call"])
	}
	if got["a"] != 20 || got["c"] != 30 {
		t.Errorf("self times = %v", got)
	}
}

// benchmarkJSON is the part of BENCHMARK.json the program must agree with.
type benchmarkJSON struct {
	Command   []string `json:"command"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("BENCHMARK.json: %v", err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	for _, w := range bj.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not in the program", w.Name)
		}
	}
	var e2e []declared
	for _, m := range bj.EndToEnd {
		e2e = append(e2e, declared{m.Name, m.Unit})
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end_to_end = %v, program prints %v", e2e, endToEnd)
	}
	want := append([]declared(nil), layerMetrics...)
	for _, e := range endToEnd {
		want = append(want, declared{"overhead." + e.Name, e.Unit})
	}
	var got []declared
	for _, m := range bj.PerLayer {
		got = append(got, declared{m.Name, m.Unit})
	}
	byName := func(d []declared) { sort.Slice(d, func(i, j int) bool { return d[i].Name < d[j].Name }) }
	byName(want)
	byName(got)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("per_layer = %v\nprogram prints %v", got, want)
	}
}

func TestLayerScope(t *testing.T) {
	for w := range workloads {
		if len(layerScope[w]) == 0 {
			t.Errorf("workload %s has no layer scope", w)
		}
	}
	for _, l := range layerMetrics {
		n := 0
		for w := range workloads {
			if exercises(w, l.Name) {
				n++
			}
		}
		if n == 0 {
			t.Errorf("layer metric %s is exercised by no workload", l.Name)
		}
	}
	if exercises("unary_small", "compressor.ratio") || !exercises("fleet_mix", "compressor.ratio") {
		t.Error("compressor.ratio: scope should be fleet_mix only")
	}
}
