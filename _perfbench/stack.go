package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"rpcscale/internal/compressor"
	"rpcscale/internal/stubby"
	"rpcscale/internal/telemetry"
)

// The server child is this binary re-executed with these variables set;
// it never sees the benchmark's flags.
const (
	envRole     = "PERFBENCH_ROLE"
	envSeed     = "PERFBENCH_SEED"
	envWorkload = "PERFBENCH_WORKLOAD"
	envTraced   = "PERFBENCH_TRACED"
	roleServer  = "server"
)

// stackConfig is what both ends of a live-stack workload agree on.
type stackConfig struct {
	Workload string
	Seed     uint64
	Traced   bool
	// SampleEvery head-samples the client plane's span store (0 or 1
	// keeps every span).
	SampleEvery uint64
}

// fleetMix reports whether the stack runs the fleet_mix configuration:
// flate with adaptive compression, and the telemetry plane at both ends.
func (c stackConfig) fleetMix() bool { return c.Workload == "fleet_mix" }

// maxSize is the largest body either side sends.
func (c stackConfig) maxSize() int {
	if c.fleetMix() {
		return mixMax
	}
	return smallMax
}

// options builds the stubby options one end uses, attaching plane when
// non-nil. Stripes, codec workers and queue sizes stay at their
// defaults.
func (c stackConfig) options(plane *telemetry.Plane) stubby.Options {
	var o stubby.Options
	if c.fleetMix() {
		o.Compression = compressor.Flate
		o.AdaptiveCompression = true
	}
	if plane != nil {
		o = plane.Apply(o)
	}
	return o
}

// wantsPlane reports whether an end attaches a telemetry plane: fleet_mix
// always does, as rpcbench does; unary_small only when traced.
func (c stackConfig) wantsPlane() bool { return c.fleetMix() || c.Traced }

// childStat is the server child's answer to a STAT request.
type childStat struct {
	Usage  usage  `json:"usage"`
	Served uint64 `json:"served"`
	BadReq uint64 `json:"bad_requests"`
}

// serveChild runs the server role: it builds the same catalog and
// payload pools as the parent, serves every catalog method on a loopback
// listener, prints "READY <addr>", answers "STAT" lines on stdin with a
// "STAT <json>" line, and exits when stdin closes.
func serveChild() error {
	seed, err := strconv.ParseUint(os.Getenv(envSeed), 10, 64)
	if err != nil {
		return fmt.Errorf("server child: %s: %w", envSeed, err)
	}
	cfg := stackConfig{Workload: os.Getenv(envWorkload), Seed: seed, Traced: os.Getenv(envTraced) == "1"}
	if cfg.Workload == "unary_small" {
		runtime.GOMAXPROCS(unaryProcs)
	}
	pays := newPayloads(cfg.Seed, cfg.maxSize())
	cat := liveCatalog()

	var plane *telemetry.Plane
	if cfg.wantsPlane() {
		plane = telemetry.New(telemetry.WithSpanCapacity(spanCapacity))
	}
	srv := stubby.NewServer(cfg.options(plane))
	var served, bad atomic.Uint64
	handler := func(_ context.Context, req []byte) ([]byte, error) {
		served.Add(1)
		id, respLen, kind, err := pays.parseRequest(req)
		if err != nil {
			bad.Add(1)
			return nil, err
		}
		return pays.response(id, respLen, kind), nil
	}
	for _, m := range cat.Methods {
		srv.Register(m.Name, handler)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("server child: listen: %w", err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(l) }()
	defer func() {
		srv.Close()
		<-serveErr
	}()

	out := bufio.NewWriter(os.Stdout)
	fmt.Fprintf(out, "READY %s\n", l.Addr())
	if err := out.Flush(); err != nil {
		return fmt.Errorf("server child: %w", err)
	}
	in := bufio.NewScanner(os.Stdin)
	for in.Scan() {
		if in.Text() != "STAT" {
			return fmt.Errorf("server child: unknown command %q", in.Text())
		}
		u, err := selfUsage()
		if err != nil {
			return fmt.Errorf("server child: %w", err)
		}
		b, err := json.Marshal(childStat{Usage: u, Served: served.Load(), BadReq: bad.Load()})
		if err != nil {
			return fmt.Errorf("server child: %w", err)
		}
		fmt.Fprintf(out, "STAT %s\n", b)
		if err := out.Flush(); err != nil {
			return fmt.Errorf("server child: %w", err)
		}
	}
	return in.Err()
}

// spanCapacity bounds the spans a plane retains, so a long run holds
// memory flat; spans past it count as collector overflow.
const spanCapacity = 1 << 17

// liveStack is one running server child and the client channel to it.
type liveStack struct {
	cmd   *exec.Cmd
	stdin interface{ Close() error }
	lines *bufio.Scanner
	ask   *bufio.Writer
	ch    *stubby.Channel
	plane *telemetry.Plane // client-side plane, nil when not attached
	pays  *payloads
	exit  chan error
}

// startStack spawns the server child, waits for READY and dials it.
// pays is the client's copy of the payload pools.
func startStack(cfg stackConfig, pays *payloads) (*liveStack, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("locating own binary: %w", err)
	}
	cmd := exec.Command(self)
	traced := "0"
	if cfg.Traced {
		traced = "1"
	}
	cmd.Env = append(os.Environ(),
		envRole+"="+roleServer,
		envSeed+"="+strconv.FormatUint(cfg.Seed, 10),
		envWorkload+"="+cfg.Workload,
		envTraced+"="+traced,
	)
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, fmt.Errorf("server child: %w", err)
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, fmt.Errorf("server child: %w", err)
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting server child: %w", err)
	}
	s := &liveStack{
		cmd: cmd, stdin: stdin,
		lines: bufio.NewScanner(stdout), ask: bufio.NewWriter(stdin),
		pays: pays, exit: make(chan error, 1),
	}
	ready := make(chan string, 1)
	go func() {
		if s.lines.Scan() {
			ready <- s.lines.Text()
		}
		close(ready)
	}()
	var line string
	select {
	case line = <-ready:
	case <-time.After(30 * time.Second):
	}
	addr, ok := strings.CutPrefix(line, "READY ")
	if !ok {
		s.kill()
		return nil, fmt.Errorf("server child did not announce READY (got %q)", line)
	}
	if cfg.wantsPlane() {
		s.plane = telemetry.New(telemetry.WithSpanCapacity(spanCapacity), telemetry.WithSampleEvery(max(cfg.SampleEvery, 1)))
	}
	s.ch, err = stubby.Dial(addr, "loopback", cfg.options(s.plane))
	if err != nil {
		s.kill()
		return nil, fmt.Errorf("dialing server child: %w", err)
	}
	return s, nil
}

// call issues one call and checks its reply; it returns the reply
// length on success.
func (s *liveStack) call(ctx context.Context, buf []byte, id uint64, c callSpec) ([]byte, error) {
	req := s.pays.request(buf, id, c.Req, c.Resp, c.Kind)
	resp, err := s.ch.Call(ctx, c.Method, req)
	if err != nil {
		return req, err
	}
	err = s.pays.checkResponse(resp, id, c.Resp, c.Kind)
	if len(resp) >= bulkThreshold {
		// Bulk-lane replies arrive in a pooled buffer the caller owns.
		stubby.FreeResponse(resp)
	}
	return req, err
}

// bulkThreshold mirrors the stack's default bulk-lane threshold: replies
// at least this large ride the bulk lane.
const bulkThreshold = 16 << 10

// stat asks the server child for its counters.
func (s *liveStack) stat() (childStat, error) {
	var st childStat
	if _, err := s.ask.WriteString("STAT\n"); err != nil {
		return st, fmt.Errorf("asking server child: %w", err)
	}
	if err := s.ask.Flush(); err != nil {
		return st, fmt.Errorf("asking server child: %w", err)
	}
	if !s.lines.Scan() {
		return st, fmt.Errorf("server child closed its output: %v", s.lines.Err())
	}
	b, ok := strings.CutPrefix(s.lines.Text(), "STAT ")
	if !ok {
		return st, fmt.Errorf("server child: unexpected line %q", s.lines.Text())
	}
	if err := json.Unmarshal([]byte(b), &st); err != nil {
		return st, fmt.Errorf("server child stat: %w", err)
	}
	return st, nil
}

// pid returns the server child's process ID.
func (s *liveStack) pid() int { return s.cmd.Process.Pid }

// close shuts the channel, lets the child drain and exit, and waits for
// it; a child that does not exit in time is killed.
func (s *liveStack) close() error {
	var errs []error
	if s.ch != nil {
		if err := s.ch.Close(); err != nil && !errors.Is(err, net.ErrClosed) {
			errs = append(errs, fmt.Errorf("closing channel: %w", err))
		}
	}
	s.stdin.Close()
	go func() { s.exit <- s.cmd.Wait() }()
	select {
	case err := <-s.exit:
		if err != nil {
			errs = append(errs, fmt.Errorf("server child: %w", err))
		}
	case <-time.After(20 * time.Second):
		s.cmd.Process.Kill()
		<-s.exit
		errs = append(errs, errors.New("server child did not exit; killed"))
	}
	return errors.Join(errs...)
}

// kill stops a child that never became usable.
func (s *liveStack) kill() {
	s.stdin.Close()
	s.cmd.Process.Kill()
	s.cmd.Wait()
}
