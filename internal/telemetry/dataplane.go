package telemetry

import (
	"rpcscale/internal/stubby"
)

// The Plane implements stubby.DataPlaneObserver, so the data plane
// (DESIGN.md §16) reports adaptive compression skips into the same
// Monarch DB as the call metrics. Plane.Apply wires it in.
var _ stubby.DataPlaneObserver = (*Plane)(nil)

// CompressSkipped records one payload the adaptive compression gate sent
// uncompressed for method — compression-tax cycles not spent.
func (p *Plane) CompressSkipped(method string, bytes int) {
	p.compressSkips.Add(1)
	p.compressSkippedBytes.Add(uint64(bytes))
	p.record(aggKey{kind: kindCompressSkip, method: method}, false, 0)
}

// CodecJobs always returns 0: every frame is sealed and opened inline on
// its connection's send and receive loops (DESIGN.md §16). It is kept
// because the repository benchmark's unary_small check reads it.
func (p *Plane) CodecJobs() uint64 { return 0 }

// CompressSkips returns the total payloads adaptive compression skipped.
func (p *Plane) CompressSkips() uint64 { return p.compressSkips.Load() }

// CompressSkippedBytes returns the total payload bytes those skips
// covered.
func (p *Plane) CompressSkippedBytes() uint64 { return p.compressSkippedBytes.Load() }
