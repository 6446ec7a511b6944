package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"rpcscale/internal/trace"
)

// span is one interval the traced pass records at a layer boundary, from
// the benchmark's own code. Spans of one request share Req.
type span struct {
	ID     int64         `json:"id"`
	Parent int64         `json:"parent,omitempty"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"` // since the recorder started
	End    time.Duration `json:"end_ns"`
	Req    uint64        `json:"req,omitempty"`
}

// recorder keeps a traced pass's spans in memory until the run ends.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// add records a span between two wall-clock instants and returns its ID.
func (r *recorder) add(name string, start, end time.Time, parent int64, req uint64) int64 {
	return r.addAt(name, start.Sub(r.t0), end.Sub(r.t0), parent, req)
}

// addAt records a span at offsets from the recorder's start.
func (r *recorder) addAt(name string, start, end time.Duration, parent int64, req uint64) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := int64(len(r.spans) + 1)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Start: start, End: end, Req: req})
	return id
}

func (r *recorder) len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// componentSpanNames name the child spans built from a call's
// nine-component breakdown, in trace.Component order.
var componentSpanNames = [trace.NumComponents]string{
	"stubby.client_send_queue",
	"stubby.req_proc_stack",
	"stubby.req_wire",
	"stubby.server_recv_queue",
	"stubby.server_app",
	"stubby.server_send_queue",
	"stubby.resp_proc_stack",
	"stubby.resp_wire",
	"stubby.client_recv_queue",
}

// addBreakdown lays a call's nine components end to end inside its
// span, clipped to the span's end, as child spans.
func (r *recorder) addBreakdown(parent span, b *trace.Breakdown) {
	at := parent.Start
	for c, d := range b {
		if d <= 0 {
			continue
		}
		end := min(at+d, parent.End)
		if end <= at {
			break
		}
		r.addAt(componentSpanNames[c], at, end, parent.ID, parent.Req)
		at = end
	}
}

// byReq returns the recorded spans named name, keyed by request ID.
func (r *recorder) byReq(name string) map[uint64]span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := map[uint64]span{}
	for _, s := range r.spans {
		if s.Name == name {
			out[s.Req] = s
		}
	}
	return out
}

// selfTime is one span name's total self time.
type selfTime struct {
	name  string
	self  time.Duration
	count int
}

// selfTimes returns, per span name, the sum over its spans of the span's
// duration minus the part of it that its children cover.
func (r *recorder) selfTimes() []selfTime {
	r.mu.Lock()
	defer r.mu.Unlock()
	children := map[int64][]span{}
	for _, s := range r.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	agg := map[string]*selfTime{}
	for _, s := range r.spans {
		a := agg[s.Name]
		if a == nil {
			a = &selfTime{name: s.Name}
			agg[s.Name] = a
		}
		a.count++
		a.self += s.End - s.Start - covered(s, children[s.ID])
	}
	out := make([]selfTime, 0, len(agg))
	for _, a := range agg {
		out = append(out, *a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// covered returns how much of parent's interval the children cover,
// counting overlapping children once.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if e > s {
			iv = append(iv, [2]time.Duration{s, e})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curS, curE time.Duration
	for i, x := range iv {
		if i == 0 || x[0] > curE {
			total += curE - curS
			curS, curE = x[0], x[1]
			continue
		}
		curE = max(curE, x[1])
	}
	if len(iv) > 0 {
		total += curE - curS
	}
	return total
}

// outDir is where the benchmark writes its files: the directory of its
// own binary, which run.sh builds under .bench_build/ in the checkout.
func outDir() (string, error) {
	self, err := os.Executable()
	if err != nil {
		return "", fmt.Errorf("locating own binary: %w", err)
	}
	return filepath.Dir(self), nil
}

// dump writes the spans as JSON lines and returns the file's path.
func (r *recorder) dump(workload string, seed uint64) (string, error) {
	dir, err := outDir()
	if err != nil {
		return "", fmt.Errorf("span dump: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("span dump: %w", err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			f.Close()
			return "", fmt.Errorf("span dump: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", fmt.Errorf("span dump: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("span dump: %w", err)
	}
	return path, nil
}
