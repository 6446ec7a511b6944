package stubby

import (
	"time"

	"rpcscale/internal/compressor"
	"rpcscale/internal/faultplane"
	"rpcscale/internal/secure"
	"rpcscale/internal/trace"
)

// SpanObserver receives every span the stack produces. It must be safe
// for concurrent use; the caller may be any client goroutine.
// *telemetry.Plane is the canonical implementation.
type SpanObserver interface {
	Observe(*trace.Span)
}

// RobustnessObserver receives the robustness layer's events: retries the
// budget admitted or refused, circuit-breaker state transitions, and
// calls the server shed under load. It must be safe for concurrent use;
// *telemetry.Plane is the canonical implementation (the counters behind
// rpcbench's chaos report).
type RobustnessObserver interface {
	RetryAttempt(method string)
	RetrySuppressed(method string)
	BreakerTransition(method string, from, to BreakerState)
	CallShed(method string)
}

// NopRobustnessObserver ignores every robustness event. Set it on
// Options.Robustness to keep telemetry.Plane.Apply from installing the
// plane there.
type NopRobustnessObserver struct{}

func (NopRobustnessObserver) RetryAttempt(string)                                  {}
func (NopRobustnessObserver) RetrySuppressed(string)                               {}
func (NopRobustnessObserver) BreakerTransition(string, BreakerState, BreakerState) {}
func (NopRobustnessObserver) CallShed(string)                                      {}

// DataPlaneObserver receives the data plane's adaptive-compression
// decisions. It must be safe for concurrent use; *telemetry.Plane is the
// canonical implementation.
type DataPlaneObserver interface {
	// CompressSkipped reports a payload the adaptive estimator sent
	// uncompressed: bytes is the payload size the compression tax was
	// spared on.
	CompressSkipped(method string, bytes int)
}

// Options configures a Channel or Server. The zero value is usable; New*
// functions fill in defaults.
type Options struct {
	// Secret is the pre-shared transport secret. Both ends of a
	// connection must agree. Defaults to a process-wide development
	// secret; production would use a real handshake.
	Secret []byte

	// Compression selects payload compression. Payloads below
	// CompressThreshold bytes are sent uncompressed regardless, since
	// small RPCs (the fleet's majority) lose more cycles than bytes.
	Compression       compressor.Algorithm
	CompressThreshold int
	CompressorStats   *compressor.Stats
	EncryptionStats   *secure.Stats

	// Collector receives a trace.Span for every completed call (client
	// side) and every served request (server side). Nil disables tracing.
	Collector *trace.Collector

	// Telemetry is the observability plane's hook: it receives every
	// span the stack produces, after the Collector. This is the single
	// option through which internal/telemetry plugs Monarch export, GWP
	// cycle attribution, and Dapper span retention into the stack; the
	// stack itself stays ignorant of those systems. Nil disables it.
	Telemetry SpanObserver

	// ClusterName labels spans with the placement of this endpoint.
	ClusterName string

	// SendQueueLen and RecvQueueLen bound the client send queue and the
	// server receive queue. Queue depth is where the paper's queuing
	// latency lives; undersized queues convert queuing into NoResource
	// errors, as in production overload.
	SendQueueLen int
	RecvQueueLen int

	// Workers is the server handler pool size.
	Workers int

	// DefaultDeadline applies to calls whose context has none.
	DefaultDeadline time.Duration

	// Faults attaches a deterministic fault injector to this endpoint:
	// channels consult it with ScopeClient before each attempt, servers
	// with ScopeServer before each handled request. Nil disables
	// injection (the default; production paths never pay for it).
	Faults *faultplane.Injector

	// Retry, when non-nil, makes the channel retry transient failures
	// itself per the policy — the managed-service placement of retry
	// logic, instead of every caller hand-rolling it. Give the policy a
	// Budget to cap retry amplification under overload.
	Retry *RetryPolicy

	// Breaker, when non-nil, gives the channel a circuit breaker with
	// this configuration, tracking state per (channel, method). The
	// breaker sits outside the retry layer: an open circuit fails fast
	// without spending any attempts.
	Breaker *BreakerConfig

	// ShedThreshold enables server-side load shedding: when the receive
	// queue holds at least this many requests, new arrivals are rejected
	// immediately with Unavailable instead of queuing toward a deadline
	// they would miss anyway. 0 disables (the default); the hard
	// queue-full NoResource rejection applies regardless.
	ShedThreshold int

	// Robustness observes retry, breaker, and shedding events. Nil
	// disables (telemetry.Plane.Apply installs itself here).
	Robustness RobustnessObserver

	// StreamWindow is the initial per-direction credit window of every
	// stream opened on this endpoint, in bytes: the peer may have at most
	// this many unconsumed payload bytes in flight per stream, and a
	// single stream message may not exceed it. 0 selects the 256 KiB
	// default; WithStreamWindow overrides per stream.
	StreamWindow int

	// BulkThreshold routes unary payloads of at least this many bytes
	// through the zero-copy bulk lane (chunked, scatter-gather writes,
	// no compression) instead of the inline envelope. 0 selects the
	// 16 KiB default; negative disables the bulk lane. WithBulkThreshold
	// and WithBulkLane override per call on the client side.
	BulkThreshold int

	// ConnStripes makes Dial open this many TCP connections and stripe
	// streams and bulk transfers across them, so one client:server pair
	// is no longer serialized on a single socket's send/recv loops.
	// Unary envelope traffic and each individual call or stream keep
	// per-connection affinity, preserving frame order. 0 and 1 mean one
	// connection (the default). NewChannel ignores it: a channel built
	// over an existing conn cannot dial more.
	ConnStripes int

	// AdaptiveCompression lets the endpoint skip configured compression
	// per method when live telemetry (an entropy probe on the first
	// bytes plus a windowed observed-ratio estimator) says the payloads
	// do not compress — the paper's compression tax is pure waste there.
	AdaptiveCompression bool

	// DataPlane observes adaptive-compression events. Nil disables
	// (telemetry.Plane.Apply installs itself here).
	DataPlane DataPlaneObserver

	// PoolPicker, when non-nil, replaces a Pool's round-robin channel
	// selection: it is called with the live members (never empty, not
	// retained) and returns the channel for one call. It must be safe for
	// concurrent use. Channel.InFlight and Channel.ServerLoad are the load
	// signals a picker typically consults.
	PoolPicker func(channels []*Channel) *Channel
}

var defaultSecret = []byte("rpcscale-development-psk")

func (o *Options) withDefaults() Options {
	out := *o
	if out.Secret == nil {
		out.Secret = defaultSecret
	}
	if out.CompressThreshold == 0 {
		out.CompressThreshold = 512
	}
	if out.SendQueueLen == 0 {
		out.SendQueueLen = 1024
	}
	if out.RecvQueueLen == 0 {
		out.RecvQueueLen = 1024
	}
	if out.Workers == 0 {
		out.Workers = 8
	}
	if out.DefaultDeadline == 0 {
		out.DefaultDeadline = 30 * time.Second
	}
	if out.StreamWindow == 0 {
		out.StreamWindow = defaultStreamWindow
	}
	if out.BulkThreshold == 0 {
		out.BulkThreshold = defaultBulkThreshold
	}
	return out
}

// defaultStreamWindow is the default per-direction stream credit window:
// large enough that a steady stream of the fleet's P99-sized messages
// keeps the pipe full, small enough to bound per-stream receiver memory.
const defaultStreamWindow = 256 << 10

// defaultBulkThreshold is the payload size at which unary calls switch to
// the bulk lane. 16 KiB sits just above the fleet's P99 request (Fig. 6):
// the envelope path keeps the common case, the bulk lane takes the tail.
const defaultBulkThreshold = 16 << 10
