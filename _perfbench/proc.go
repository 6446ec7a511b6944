package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"

	"rpcscale/internal/wire"
)

// procIO is the part of /proc/<pid>/io the benchmark uses: read and
// write system calls and the bytes they moved, summed over the
// process's threads.
type procIO struct {
	SyscR, SyscW int64
	RChar, WChar int64
}

// parseProcIO parses the "key: value" lines of /proc/<pid>/io.
func parseProcIO(r io.Reader) (procIO, error) {
	var p procIO
	seen := 0
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		key, val, ok := strings.Cut(sc.Text(), ":")
		if !ok {
			continue
		}
		n, err := strconv.ParseInt(strings.TrimSpace(val), 10, 64)
		if err != nil {
			return p, fmt.Errorf("proc io %s: %w", key, err)
		}
		switch key {
		case "syscr":
			p.SyscR, seen = n, seen+1
		case "syscw":
			p.SyscW, seen = n, seen+1
		case "rchar":
			p.RChar, seen = n, seen+1
		case "wchar":
			p.WChar, seen = n, seen+1
		}
	}
	if err := sc.Err(); err != nil {
		return p, fmt.Errorf("reading proc io: %w", err)
	}
	if seen != 4 {
		return p, fmt.Errorf("proc io: found %d of rchar, wchar, syscr, syscw", seen)
	}
	return p, nil
}

// procStatus is the part of /proc/<pid>/status the benchmark uses.
type procStatus struct {
	VmHWMKiB int64 // peak resident set size
}

// parseProcStatus parses the VmHWM line of /proc/<pid>/status.
func parseProcStatus(r io.Reader) (procStatus, error) {
	var p procStatus
	found := false
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		key, val, ok := strings.Cut(sc.Text(), ":")
		if !ok || key != "VmHWM" {
			continue
		}
		fields := strings.Fields(val)
		if len(fields) != 2 || fields[1] != "kB" {
			return p, fmt.Errorf("proc status %s: unexpected value %q", key, val)
		}
		n, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return p, fmt.Errorf("proc status %s: %w", key, err)
		}
		p.VmHWMKiB, found = n, true
	}
	if err := sc.Err(); err != nil {
		return p, fmt.Errorf("reading proc status: %w", err)
	}
	if !found {
		return p, fmt.Errorf("proc status: no VmHWM line")
	}
	return p, nil
}

func readProcIO(pid int) (procIO, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/io", pid))
	if err != nil {
		return procIO{}, err
	}
	defer f.Close()
	return parseProcIO(f)
}

func readProcStatus(pid int) (procStatus, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return procStatus{}, err
	}
	defer f.Close()
	return parseProcStatus(f)
}

// usage is one process's resource counters at an instant. A process
// reports its own usage (getrusage covers every thread, with microsecond
// CPU times), so the server child sends it to the parent on request.
type usage struct {
	CPU       time.Duration `json:"cpu_ns"` // user + system
	CtxSwitch int64         `json:"ctx_switches"`
	Allocs    uint64        `json:"allocs"`    // heap objects allocated
	GCCPU     float64       `json:"gc_cpu_s"`  // runtime estimate of GC CPU
	TotalCPU  float64       `json:"total_cpu"` // runtime estimate of all CPU, for the GC share
	IO        procIO        `json:"io"`
	HWMKiB    int64         `json:"hwm_kib"`
	PoolGets  int64         `json:"pool_gets"`
	PoolPuts  int64         `json:"pool_puts"`
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

// selfUsage samples this process's counters.
func selfUsage() (usage, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return usage{}, fmt.Errorf("getrusage: %w", err)
	}
	u := usage{
		CPU:       time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		CtxSwitch: ru.Nvcsw + ru.Nivcsw,
	}
	s := make([]metrics.Sample, len(runtimeSamples))
	copy(s, runtimeSamples)
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindUint64 {
		u.Allocs = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		u.GCCPU = s[1].Value.Float64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64 {
		u.TotalCPU = s[2].Value.Float64()
	}
	pid := os.Getpid()
	var err error
	if u.IO, err = readProcIO(pid); err != nil {
		return u, err
	}
	st, err := readProcStatus(pid)
	if err != nil {
		return u, err
	}
	u.HWMKiB = st.VmHWMKiB
	u.PoolGets, u.PoolPuts = wire.PoolCounters()
	return u, nil
}

// sub returns the change in the cumulative counters from a to u; the
// peak RSS keeps u's value.
func (u usage) sub(a usage) usage {
	return usage{
		CPU:       u.CPU - a.CPU,
		CtxSwitch: u.CtxSwitch - a.CtxSwitch,
		Allocs:    u.Allocs - a.Allocs,
		GCCPU:     u.GCCPU - a.GCCPU,
		TotalCPU:  u.TotalCPU - a.TotalCPU,
		IO: procIO{
			SyscR: u.IO.SyscR - a.IO.SyscR, SyscW: u.IO.SyscW - a.IO.SyscW,
			RChar: u.IO.RChar - a.IO.RChar, WChar: u.IO.WChar - a.IO.WChar,
		},
		HWMKiB:   u.HWMKiB,
		PoolGets: u.PoolGets - a.PoolGets,
		PoolPuts: u.PoolPuts - a.PoolPuts,
	}
}

// cpuTimes is the machine-wide "cpu" line of /proc/stat, in clock ticks:
// all the time the machine's CPUs counted, and the part of it the
// hypervisor ran other guests instead (steal).
type cpuTimes struct {
	Total, Steal int64
}

// parseProcStat parses the first line of /proc/stat. Total sums user,
// nice, system, idle, iowait, irq, softirq and steal; guest time is
// already inside user and nice.
func parseProcStat(r io.Reader) (cpuTimes, error) {
	line, err := bufio.NewReader(r).ReadString('\n')
	if err != nil && line == "" {
		return cpuTimes{}, fmt.Errorf("reading proc stat: %w", err)
	}
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuTimes{}, fmt.Errorf("proc stat: unexpected first line %q", line)
	}
	var c cpuTimes
	for i, f := range fields[1:9] {
		n, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return cpuTimes{}, fmt.Errorf("proc stat field %d: %w", i+1, err)
		}
		c.Total += n
		if i == 7 {
			c.Steal = n
		}
	}
	return c, nil
}

func readCPUTimes() (cpuTimes, error) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return cpuTimes{}, err
	}
	defer f.Close()
	return parseProcStat(f)
}

// stealShare returns the share of the CPU time between a and c that the
// hypervisor gave to other guests; 0 when no tick passed.
func (c cpuTimes) stealShare(a cpuTimes) float64 {
	if c.Total <= a.Total {
		return 0
	}
	return float64(c.Steal-a.Steal) / float64(c.Total-a.Total)
}

// maxSteal is the most of a window's CPU time the hypervisor may have
// given to other guests for the window to count toward a gated rate or
// p50. A load that keeps the VM's vCPUs busy loses far more than the
// stolen share: in unary_small runs with a third of CPU time stolen, the
// rate fell by more than half and p50 rose by half.
const maxSteal = 0.03

// clean returns the indices of the windows whose steal share is at most
// maxSteal, or of every window when fewer than least are: the gated
// figures are medians over the windows the host left alone.
func clean(steal []float64, least int) []int {
	var idx, all []int
	for k, sh := range steal {
		all = append(all, k)
		if sh <= maxSteal {
			idx = append(idx, k)
		}
	}
	if len(idx) < least {
		return all
	}
	return idx
}

// stealNote describes the windows' steal for the report.
func stealNote(steal []float64) string {
	n := 0
	for _, sh := range steal {
		if sh > maxSteal {
			n++
		}
	}
	return fmt.Sprintf("%d of %d windows had more than %.0f%% of CPU time stolen, median %.1f%%", n, len(steal), 100*maxSteal, 100*median(steal))
}
