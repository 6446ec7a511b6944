package stubby

import (
	"context"
	"errors"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rpcscale/internal/compressor"
	"rpcscale/internal/faultplane"
	"rpcscale/internal/secure"
	"rpcscale/internal/trace"
	"rpcscale/internal/wire"
)

// Channel is a client connection to one server: it owns a send queue
// drained by a sender goroutine (ClientSendQueue), a reader goroutine
// that dispatches responses to waiting calls (ClientRecvQueue), and the
// per-call instrumentation that assembles the nine-component breakdown.
type Channel struct {
	opts          Options
	serverCluster string
	tr            *transport
	comp          *compressor.Compressor
	// gate is the adaptive-compression decision state, owned by the
	// sendLoop goroutine; nil when Options.AdaptiveCompression is off.
	gate *compressGate
	// epoch anchors the channel's monotonic per-call timestamps: every
	// instrumentation point records time.Since(epoch) nanoseconds in an
	// atomic int64 instead of boxing a *time.Time per event.
	epoch time.Time

	// invoke is the configured call path: the raw attempt wrapped by the
	// retry layer (Options.Retry) and the circuit breaker
	// (Options.Breaker), when enabled. Call goes through it.
	invoke  CallFunc
	breaker *Breaker

	sendQ      chan *clientCall
	nextStream atomic.Uint64

	// serverLoad caches the most recent load report the server piggybacked
	// on a response envelope (see DESIGN.md §13); balancing policies read
	// it through Pool.Load without any extra wire traffic.
	serverLoad atomic.Int64

	mu      sync.Mutex
	pending map[uint64]*clientCall
	streams map[uint64]*Stream

	pingMu   sync.Mutex
	pingCh   chan time.Time
	lastPing time.Time

	closed    chan struct{}
	closeOnce sync.Once
	err       atomic.Pointer[channelError] // error that killed the channel
	loops     sync.WaitGroup

	// Connection striping (DESIGN.md §16): when Dial opened K stripes,
	// stripes lists them all (this channel is stripes[0]) and bulk calls
	// and streams round-robin across them with per-call affinity. Unary
	// envelope traffic stays on stripe 0. onFail, when set, replaces
	// failLocal so any stripe's death condemns the whole striped channel.
	stripes    []*Channel
	stripeCtr  atomic.Uint32
	stripeOnce sync.Once
	onFail     func(error)
}

// clientCall tracks one in-flight RPC. Timestamps are nanoseconds since
// the channel epoch; 0 means "not reached".
type clientCall struct {
	req      request
	streamID uint64
	dropped  bool // fault plane: swallow the request instead of sending
	// bulk routes this call through the zero-copy bulk lane: the payload
	// leaves as chunk frames after a FrameBulkRequest envelope instead of
	// riding inside it. bulkPayload is set by prepareCall.
	bulk        bool
	bulkPayload []byte
	enqueuedNs  int64 // entered the send queue
	// deqNs and sentNs are written by the sender goroutine while the
	// calling goroutine may be timing out concurrently, so they are
	// published atomically.
	deqNs    atomic.Int64 // sender dequeued (end of ClientSendQueue)
	sentNs   atomic.Int64 // frame written (end of ReqProcStack)
	resultCh chan *callResult
}

// channelError boxes the error that killed a channel so it can live in an
// atomic.Pointer regardless of its dynamic type.
type channelError struct{ err error }

// callResult is what the reader delivers to a waiting call. resp.Payload
// aliases buf, a pooled recv buffer the waiting call returns with
// wire.PutBuf after copying the payload out. For bulk-lane responses
// (bulk set), buf is a dedicated assembly buffer handed to the caller
// outright — no copy-out, no PutBuf (DESIGN.md §12).
type callResult struct {
	resp   response
	buf    []byte
	bulk   bool
	rxAtNs int64 // response frame fully read + decoded
	netErr error
}

// clientBulk assembles one bulk-lane response: the envelope arrives as a
// FrameBulkResponse, the payload as chunk frames on the same stream ID.
type clientBulk struct {
	resp response
	//rpclint:owns pooled chunk assembly; handed to the caller via
	// deliverBulk, who releases it with FreeResponse.
	data []byte
}

// sinceEpoch returns the channel-relative monotonic timestamp, always > 0
// so 0 can mean "not recorded".
func (c *Channel) sinceEpoch() int64 { return int64(time.Since(c.epoch)) + 1 }

// Dial connects to addr over TCP and returns a channel. serverCluster
// labels spans with the callee's placement (a real stack learns it from
// the handshake). With Options.ConnStripes > 1 it opens that many
// connections and stripes bulk calls and streams across them.
func Dial(addr, serverCluster string, opts Options) (*Channel, error) {
	if opts.ConnStripes > 1 {
		return dialStriped(addr, serverCluster, opts)
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		// Status-code the failure: a refused/unroutable backend is the
		// same Unavailable the paper's taxonomy records for dead peers.
		return nil, Errorf(trace.Unavailable, "dial %s: %v", addr, err)
	}
	return NewChannel(conn, serverCluster, opts)
}

// dialStriped opens Options.ConnStripes connections to addr and welds
// them into one logical channel: stripes[0] (the returned channel)
// carries all unary envelope traffic and the robustness layers; bulk
// calls and streams round-robin across every stripe. Any stripe failure
// fails them all — the striped channel is one logical connection.
func dialStriped(addr, serverCluster string, opts Options) (*Channel, error) {
	n := opts.ConnStripes
	chans := make([]*Channel, 0, n)
	teardown := func() {
		for _, s := range chans {
			s.failLocal(ErrUnavailable)
			s.tr.close()
		}
	}
	for i := 0; i < n; i++ {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			teardown()
			return nil, Errorf(trace.Unavailable, "dial %s (stripe %d): %v", addr, i, err)
		}
		so := opts
		if i > 0 {
			// The robustness layers wrap the parent's invoke chain; extra
			// stripes are pure data-plane connections.
			so.Retry, so.Breaker = nil, nil
		}
		s, err := newChannelNoLoops(conn, serverCluster, so.withDefaults())
		if err != nil {
			teardown()
			return nil, err
		}
		chans = append(chans, s)
	}
	parent := chans[0]
	parent.stripes = chans
	for _, s := range chans {
		s.onFail = parent.stripeFail
	}
	for _, s := range chans {
		s.start()
	}
	return parent, nil
}

// stripeFail condemns every stripe of a striped channel exactly once.
func (c *Channel) stripeFail(err error) {
	c.stripeOnce.Do(func() {
		for _, s := range c.stripes {
			s.failLocal(err)
		}
	})
}

// stripeFor picks the stripe one call or stream rides: unary envelope
// traffic keeps stripe 0, bulk transfers and streams round-robin. The
// whole call/stream stays on its stripe (per-call affinity), so frame
// order within it is preserved.
func (c *Channel) stripeFor(bulk bool) *Channel {
	if !bulk || len(c.stripes) == 0 {
		return c
	}
	return c.stripes[int(c.stripeCtr.Add(1))%len(c.stripes)]
}

// NewChannel builds a channel over an existing connection (e.g. net.Pipe
// in tests). Options.ConnStripes is ignored here: a channel built over
// one existing conn cannot dial more.
func NewChannel(conn net.Conn, serverCluster string, opts Options) (*Channel, error) {
	c, err := newChannelNoLoops(conn, serverCluster, opts.withDefaults())
	if err != nil {
		return nil, err
	}
	c.start()
	return c, nil
}

// newChannelNoLoops builds a channel without starting its goroutines, so
// a striped dial can finish wiring cross-stripe state first. o must
// already have defaults applied.
func newChannelNoLoops(conn net.Conn, serverCluster string, o Options) (*Channel, error) {
	tr, err := newTransport(conn, o.Secret, "c2s", "s2c", o.EncryptionStats)
	if err != nil {
		conn.Close()
		return nil, Errorf(trace.Internal, "transport setup: %v", err)
	}
	c := &Channel{
		opts:          o,
		serverCluster: serverCluster,
		tr:            tr,
		comp:          compressor.New(o.Compression, o.CompressorStats),
		epoch:         time.Now(),
		sendQ:         make(chan *clientCall, o.SendQueueLen),
		pending:       make(map[uint64]*clientCall),
		closed:        make(chan struct{}),
	}
	c.gate = newCompressGate(o.AdaptiveCompression && o.Compression != compressor.None,
		o.DataPlane, c.comp.Stats())
	c.invoke = func(ctx context.Context, method string, payload []byte) ([]byte, error) {
		return c.call(ctx, method, payload, false)
	}
	if o.Retry != nil {
		policy, obs, inner := *o.Retry, o.Robustness, c.invoke
		c.invoke = func(ctx context.Context, method string, payload []byte) ([]byte, error) {
			return retryCall(ctx, method, payload, policy, obs, inner)
		}
	}
	if o.Breaker != nil {
		// Breaker outside retry: an open circuit spends no attempts.
		c.breaker = NewBreaker(*o.Breaker, o.Robustness)
		c.invoke = c.breaker.Wrap(c.invoke)
	}
	return c, nil
}

// start launches the channel's connection goroutines.
func (c *Channel) start() {
	c.loops.Add(2)
	go c.sendLoop()
	go c.readLoop()
}

// Call issues a unary RPC and blocks for the response, the context's
// cancellation, or the deadline. When the channel was configured with
// Options.Retry or Options.Breaker, Call goes through those layers;
// CallHedged and hand-built interceptor chains bypass them. Per-call
// options (WithBulkLane, WithBulkThreshold) travel through the context so
// the CallFunc chain stays oblivious to them.
func (c *Channel) Call(ctx context.Context, method string, payload []byte, opts ...CallOption) ([]byte, error) {
	if len(opts) > 0 {
		ctx = ContextWithCallOptions(ctx, opts...)
	}
	return c.invoke(ctx, method, payload)
}

// Breaker returns the channel's circuit breaker, nil unless
// Options.Breaker was set.
func (c *Channel) Breaker() *Breaker { return c.breaker }

func (c *Channel) call(ctx context.Context, method string, payload []byte, hedged bool) ([]byte, error) {
	// Resolve tracing state: child span of the caller, or a new root.
	parent, ok := TraceFromContext(ctx)
	tc := TraceContext{SpanID: nextSpanID()}
	var parentSpan trace.SpanID
	if ok {
		tc.TraceID = parent.TraceID
		parentSpan = parent.SpanID
	} else {
		tc.TraceID = nextTraceID()
	}

	// Identify the attempt for the fault plane and server-side retry
	// accounting: the driver-assigned call ID (if any) plus the retry
	// attempt number, with hedged legs marked so they draw independent
	// fault decisions.
	attempt := attemptFromContext(ctx)
	if hedged {
		attempt |= hedgeAttemptBit
	}
	callID, haveID := CallIDFromContext(ctx)

	var dec faultplane.Decision
	if c.opts.Faults != nil {
		dec = c.opts.Faults.Decide(faultplane.ScopeClient, method,
			faultplane.Key{Seq: callID, Have: haveID, Attempt: attempt})
		if dec.Reject != trace.OK {
			return nil, c.finish(nil, method, tc, parentSpan, payload, nil, dec.Reject, hedged)
		}
		if dec.Delay > 0 {
			// The injected delay runs in the caller's goroutine (not the
			// sender's) so concurrent calls do not serialize behind it.
			t := time.NewTimer(dec.Delay)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return nil, c.finish(nil, method, tc, parentSpan, payload, nil, cancelCode(ctx), hedged)
			case <-c.closed:
				t.Stop()
				return nil, c.finish(nil, method, tc, parentSpan, payload, nil, trace.Unavailable, hedged)
			}
		}
		if dec.Corrupt {
			// Mangle a copy; the caller's buffer may be reused.
			payload = append([]byte(nil), payload...)
			faultplane.CorruptPayload(payload)
		}
	}

	deadline := c.opts.DefaultDeadline
	if dl, has := ctx.Deadline(); has {
		deadline = time.Until(dl)
	}
	if deadline <= 0 {
		return nil, c.finish(nil, method, tc, parentSpan, payload, nil, trace.DeadlineExceeded, hedged)
	}

	var callSeq uint64
	if haveID {
		callSeq = callID + 1
	}
	call := &clientCall{
		req: request{
			Method:     method,
			TraceID:    tc.TraceID,
			SpanID:     tc.SpanID,
			ParentSpan: parentSpan,
			Deadline:   deadline,
			Payload:    payload,
			Hedged:     hedged,
			CallSeq:    callSeq,
			Attempt:    attempt,
		},
		dropped:    dec.Drop,
		bulk:       c.useBulkLane(resolveCallOpts(ctx, nil), len(payload)),
		enqueuedNs: c.sinceEpoch(),
		resultCh:   make(chan *callResult, 1),
	}
	// Stripe affinity: the whole call — envelope, chunks, response — rides
	// one stripe, so its frames stay ordered on one socket.
	sc := c.stripeFor(call.bulk)
	streamID := sc.nextStream.Add(1)
	call.streamID = streamID

	sc.mu.Lock()
	select {
	case <-sc.closed:
		sc.mu.Unlock()
		return nil, c.finish(nil, method, tc, parentSpan, payload, nil, trace.Unavailable, hedged)
	default:
	}
	sc.pending[streamID] = call
	sc.mu.Unlock()

	// Enqueue onto the send queue; a full queue is back-pressure, so we
	// block until space, cancellation, or channel death.
	select {
	case sc.sendQ <- call:
	case <-ctx.Done():
		sc.abandon(streamID)
		return nil, c.finish(call, method, tc, parentSpan, payload, nil, cancelCode(ctx), hedged)
	case <-sc.closed:
		sc.abandon(streamID)
		return nil, c.finish(call, method, tc, parentSpan, payload, nil, trace.Unavailable, hedged)
	}

	select {
	case res := <-call.resultCh:
		rcvdNs := c.sinceEpoch()
		if res.netErr != nil {
			return nil, c.finish(call, method, tc, parentSpan, payload, nil, trace.Unavailable, hedged)
		}
		resp := &res.resp
		var out []byte
		if res.bulk {
			// Bulk lane: the assembly buffer was built for this call alone,
			// so it transfers to the caller as-is — the zero-copy handoff
			// the lane exists for. It may drop to the GC (legal per the
			// DESIGN.md §11 ownership contract) or be recycled with
			// FreeResponse by high-throughput callers.
			out = resp.Payload
			res.buf = nil
		} else {
			// Copy the payload out of the pooled recv buffer and release
			// it: the caller owns the returned bytes outright.
			var derr error
			out, derr = c.copyOut(resp, res.buf)
			res.buf = nil
			if derr != nil {
				return nil, c.finish(call, method, tc, parentSpan, payload, nil, trace.Internal, hedged)
			}
		}
		if c.opts.Collector != nil || c.opts.Telemetry != nil {
			c.emit(c.buildSpan(call, method, tc, parentSpan, payload, out, resp, res.rxAtNs, rcvdNs, hedged))
		}
		if resp.Code != trace.OK {
			return nil, &Status{Code: resp.Code, Message: resp.Message}
		}
		return out, nil
	case <-ctx.Done():
		sc.abandon(streamID)
		_ = sc.tr.send(wire.FrameCancel, streamID, nil)
		return nil, c.finish(call, method, tc, parentSpan, payload, nil, cancelCode(ctx), hedged)
	case <-sc.closed:
		sc.abandon(streamID)
		return nil, c.finish(call, method, tc, parentSpan, payload, nil, trace.Unavailable, hedged)
	}
}

// copyOut materializes the response payload for the caller — who owns the
// returned slice outright — and releases the pooled recv buffer backing
// resp.Payload. resp.Payload must not be used after copyOut returns.
func (c *Channel) copyOut(resp *response, buf []byte) ([]byte, error) {
	out := resp.Payload
	if resp.Compressed {
		dec, err := c.comp.Decompress(out)
		if err != nil {
			wire.PutBuf(buf)
			return nil, err
		}
		if len(dec) > 0 && len(out) > 0 && &dec[0] == &out[0] {
			// Pass-through decompressor: the output still aliases the
			// pooled buffer, so it needs its own copy.
			dec = append([]byte(nil), dec...)
		}
		wire.PutBuf(buf)
		return dec, nil
	}
	var cp []byte
	if out != nil {
		cp = make([]byte, len(out))
		copy(cp, out)
	}
	wire.PutBuf(buf)
	return cp, nil
}

// FreeResponse hands a response buffer returned by Call back to the data
// plane's buffer pool. Responses that rode the bulk lane arrive in a
// pooled buffer that otherwise drops to the GC when the caller is done;
// high-throughput callers recycle it here to keep the receive path
// allocation-free. The caller must own buf outright (no live aliases)
// and must not touch it afterwards. Freeing is always optional — any
// response buffer may simply go out of scope instead.
func FreeResponse(buf []byte) {
	wire.PutBuf(buf)
}

func cancelCode(ctx context.Context) trace.ErrorCode {
	if errors.Is(ctx.Err(), context.DeadlineExceeded) {
		return trace.DeadlineExceeded
	}
	return trace.Cancelled
}

// abandon removes a pending call so a late response is dropped.
func (c *Channel) abandon(streamID uint64) {
	c.mu.Lock()
	delete(c.pending, streamID)
	c.mu.Unlock()
}

// finish emits an error span and returns the matching error.
func (c *Channel) finish(call *clientCall, method string, tc TraceContext, parentSpan trace.SpanID, reqPayload, respPayload []byte, code trace.ErrorCode, hedged bool) error {
	span := &trace.Span{
		TraceID:       tc.TraceID,
		SpanID:        tc.SpanID,
		ParentID:      parentSpan,
		Method:        method,
		Service:       ServiceOf(method),
		ClientCluster: c.opts.ClusterName,
		ServerCluster: c.serverCluster,
		RequestBytes:  int64(len(reqPayload)),
		ResponseBytes: int64(len(respPayload)),
		Err:           code,
		Hedged:        hedged,
	}
	if call != nil {
		if deq := call.deqNs.Load(); deq != 0 {
			span.Breakdown[trace.ClientSendQueue] = time.Duration(deq - call.enqueuedNs)
			if sent := call.sentNs.Load(); sent != 0 {
				span.Breakdown[trace.ReqProcStack] = time.Duration(sent - deq)
			}
		}
	}
	c.emit(span)
	switch code {
	case trace.OK:
		return nil
	case trace.Cancelled:
		return ErrCancelled
	case trace.DeadlineExceeded:
		return ErrDeadlineExceeded
	case trace.Unavailable:
		if ce := c.err.Load(); ce != nil && ce.err != nil {
			return &Status{Code: trace.Unavailable, Message: ce.err.Error()}
		}
		return ErrUnavailable
	default:
		return &Status{Code: code, Message: code.String()}
	}
}

// buildSpan assembles the full nine-component breakdown from client
// timestamps and the server-reported timings.
func (c *Channel) buildSpan(call *clientCall, method string, tc TraceContext, parentSpan trace.SpanID, reqPayload, respPayload []byte, resp *response, rxAtNs, rcvdNs int64, hedged bool) *trace.Span {
	var b trace.Breakdown
	deq, sent := call.deqNs.Load(), call.sentNs.Load()
	if deq != 0 {
		b[trace.ClientSendQueue] = time.Duration(deq - call.enqueuedNs)
		if sent != 0 {
			b[trace.ReqProcStack] = time.Duration(sent - deq)
		}
	}
	b[trace.ServerRecvQueue] = resp.Timings.RecvQueue
	b[trace.ServerApp] = resp.Timings.App
	b[trace.ServerSendQueue] = resp.Timings.SendQueue
	b[trace.RespProcStack] = resp.Timings.RespProc
	b[trace.ClientRecvQueue] = time.Duration(rcvdNs - rxAtNs)

	// Wire time is everything between the request leaving the client and
	// the response arriving, minus the server's residence time. Split it
	// between the directions in proportion to bytes moved.
	var wireTotal time.Duration
	if sent != 0 {
		wireTotal = time.Duration(rxAtNs-sent) - resp.Timings.Elapsed
	}
	if wireTotal < 0 {
		wireTotal = 0
	}
	reqB, respB := float64(len(reqPayload)+64), float64(len(respPayload)+64)
	reqFrac := reqB / (reqB + respB)
	b[trace.ReqNetworkWire] = time.Duration(float64(wireTotal) * reqFrac)
	b[trace.RespNetworkWire] = wireTotal - b[trace.ReqNetworkWire]

	return &trace.Span{
		TraceID:       tc.TraceID,
		SpanID:        tc.SpanID,
		ParentID:      parentSpan,
		Method:        method,
		Service:       ServiceOf(method),
		ClientCluster: c.opts.ClusterName,
		ServerCluster: c.serverCluster,
		Breakdown:     b,
		RequestBytes:  int64(len(reqPayload)),
		ResponseBytes: int64(len(respPayload)),
		Err:           resp.Code,
		Hedged:        hedged,
	}
}

func (c *Channel) emit(span *trace.Span) error {
	if c.opts.Collector != nil {
		c.opts.Collector.Collect(span)
	}
	if c.opts.Telemetry != nil {
		c.opts.Telemetry.Observe(span)
	}
	return nil
}

// ServiceOf extracts the service name from a fully qualified method
// ("service.Type/Method" -> "service").
func ServiceOf(method string) string {
	if i := strings.IndexAny(method, "./"); i > 0 {
		return method[:i]
	}
	return method
}

// sendBatchBytes bounds how many marshalled bytes one pass of a batching
// drain (drainBatches) accumulates before it flushes.
const sendBatchBytes = 128 << 10

// drainBatches is the batching drain shared by the client's sendLoop and
// each server connection's writeLoop, in the style of gRPC's loopyWriter:
// it blocks for the first queued item, takes further queued items without
// blocking until sendBatchBytes is reached, and then calls flush, which
// seals the batch and writes it with one syscall. add prepares one item
// and returns the batch's new size. drainBatches returns once closed is
// closed.
//
// The first time a pass finds the queue empty, it yields the processor
// once and drains again before flushing. On one P, a caller's send on the
// queue readies the parked drain into the scheduler's runnext slot, and
// the caller then blocks on its reply, so without the yield the drain
// runs before the other callers the read loop just woke and flushes one
// item per write. The yield happens before flush takes the send lock.
func drainBatches[T any](q <-chan T, closed <-chan struct{}, add func(item T, size int) int, flush func()) {
	for {
		var item T
		select {
		case item = <-q:
		case <-closed:
			return
		}
		size := add(item, 0)
		yielded := false
		for size < sendBatchBytes {
			select {
			case item = <-q:
				size = add(item, size)
				continue
			default:
			}
			if yielded {
				break
			}
			yielded = true
			runtime.Gosched()
		}
		flush()
	}
}

// sendLoop drains the send queue: compression, marshalling, encryption,
// and the write — the client side of ReqProcStack.
func (c *Channel) sendLoop() {
	defer c.loops.Done()
	batch := make([]*clientCall, 0, 32)
	envs := make([][]byte, 0, 32)
	drainBatches(c.sendQ, c.closed, func(call *clientCall, size int) int {
		batch, envs, size = c.prepareCall(call, batch, envs, size)
		return size
	}, func() {
		c.flushBatch(batch, envs)
		batch, envs = batch[:0], envs[:0]
	})
}

// prepareCall stamps the dequeue timestamp and marshals one call's
// request envelope into a pooled buffer, appending it to the batch.
func (c *Channel) prepareCall(call *clientCall, batch []*clientCall, envs [][]byte, size int) ([]*clientCall, [][]byte, int) {
	call.deqNs.Store(c.sinceEpoch())
	if call.dropped {
		// Fault plane: the request vanishes. The call stays pending until
		// its deadline expires, exactly like a packet lost past the
		// transport's visibility.
		return batch, envs, size
	}
	req := &call.req
	if call.bulk {
		// Bulk lane: the payload leaves as chunk frames sealed straight
		// from the caller's buffer (stable until the call resolves), so it
		// is never copied into the envelope — and never compressed; bulk
		// payloads are past the size where compression pays its cycles.
		if len(req.Payload) > wire.MaxFrameSize {
			c.failCall(call, wire.ErrFrameTooLarge)
			return batch, envs, size
		}
		call.bulkPayload = req.Payload
		req.Payload = nil
		req.BulkSize = uint64(len(call.bulkPayload))
		env := appendRequest(wire.GetBuf(len(req.Method)+envelopeOverhead), req)
		return append(batch, call), append(envs, env), size + len(env) + len(call.bulkPayload)
	}
	if c.opts.Compression != compressor.None && len(req.Payload) >= c.opts.CompressThreshold &&
		c.gate.shouldCompress(req.Method, req.Payload) {
		inLen := len(req.Payload)
		if compressed, err := c.comp.Compress(req.Payload); err == nil {
			c.gate.observe(req.Method, inLen, len(compressed))
			if len(compressed) < inLen {
				req.Payload = compressed
				req.Compressed = true
			}
		}
	}
	env := appendRequest(wire.GetBuf(len(req.Payload)+len(req.Method)+envelopeOverhead), req)
	if len(env)+secure.Overhead > wire.MaxFrameSize {
		wire.PutBuf(env)
		c.failCall(call, wire.ErrFrameTooLarge)
		return batch, envs, size
	}
	return append(batch, call), append(envs, env), size + len(env)
}

// flushBatch seals every prepared envelope into the transport's write
// buffer and flushes them with a single write. A bulk call's envelope
// precedes its payload chunks, the frame order the bulk protocol
// requires.
func (c *Channel) flushBatch(batch []*clientCall, envs [][]byte) {
	if len(batch) == 0 {
		return
	}
	c.mu.Lock()
	for i, call := range batch {
		if _, live := c.pending[call.streamID]; !live {
			batch[i] = nil // abandoned before send
		}
	}
	c.mu.Unlock()

	c.tr.lockSend()
	var err error
	for i, call := range batch {
		if err != nil {
			break
		}
		if call == nil {
			continue // abandoned before send
		}
		if call.bulk {
			// Envelope first, then the payload chunks on the same stream —
			// all in this batch's single vectored write. Bulk-unary chunks
			// are exempt from stream credit: the response bounds them.
			err = c.tr.appendLocked(wire.FrameBulkRequest, call.streamID, envs[i])
			if err == nil {
				err = c.tr.appendChunkedLocked(call.streamID, call.bulkPayload, 0)
			}
		} else {
			err = c.tr.appendLocked(wire.FrameRequest, call.streamID, envs[i])
		}
	}
	if err == nil {
		err = c.tr.flushLocked()
	}
	c.tr.unlockSend()
	sentNs := c.sinceEpoch()
	for i, call := range batch {
		wire.PutBuf(envs[i])
		if call == nil {
			continue
		}
		if err != nil {
			c.failCall(call, err)
		} else {
			call.sentNs.Store(sentNs)
		}
	}
}

func (c *Channel) failCall(call *clientCall, err error) {
	select {
	case call.resultCh <- &callResult{netErr: err}:
	default:
	}
}

// readLoop dispatches incoming frames to waiting calls and streams. It
// owns bulkIn, the bulk-lane response assemblies, so that path takes no
// locks beyond the pending-map lookup.
func (c *Channel) readLoop() {
	defer c.loops.Done()
	bulkIn := make(map[uint64]*clientBulk)
	defer func() {
		for _, b := range bulkIn {
			wire.PutBuf(b.data)
		}
	}()
	for {
		m, err := c.tr.recv()
		if err != nil {
			c.fail(err)
			return
		}
		if !c.dispatchFrame(m, bulkIn) {
			return
		}
	}
}

// dispatchFrame routes one decrypted inbound frame, taking ownership of
// m.plain. It returns false when the connection must come down (the
// channel is already failed by then).
func (c *Channel) dispatchFrame(m recvMsg, bulkIn map[uint64]*clientBulk) bool {
	plain := m.plain
	switch m.typ {
	case wire.FrameResponse:
		rxNs := c.sinceEpoch()
		c.mu.Lock()
		call := c.pending[m.streamID]
		delete(c.pending, m.streamID)
		c.mu.Unlock()
		if call == nil {
			wire.PutBuf(plain)
			return true // cancelled or duplicate
		}
		res := &callResult{buf: plain, rxAtNs: rxNs}
		if perr := parseResponseInto(&res.resp, plain); perr != nil {
			wire.PutBuf(plain)
			c.failCall(call, perr)
			return true
		}
		c.serverLoad.Store(int64(res.resp.Load))
		// Ownership of the pooled buffer travels with the result; the
		// waiting call releases it after copying the payload out.
		call.resultCh <- res
	case wire.FrameBulkResponse:
		// Envelope of a bulk-lane response: stash it and collect the
		// payload from the chunk frames that follow.
		b := &clientBulk{}
		if perr := parseResponseInto(&b.resp, plain); perr != nil {
			wire.PutBuf(plain)
			c.failPending(m.streamID, perr)
			return true
		}
		// Message was copied out by the parse; nothing aliases plain.
		b.resp.Payload = nil
		wire.PutBuf(plain)
		if b.resp.BulkSize == 0 {
			c.deliverBulk(m.streamID, b, nil)
			return true
		}
		bulkIn[m.streamID] = b
	case wire.FrameStreamChunk:
		if st := c.lookupStream(m.streamID); st != nil {
			st.deliverChunk(m.flags, plain)
			return true
		}
		b := bulkIn[m.streamID]
		if b == nil {
			wire.PutBuf(plain) // reset or cancelled mid-transfer
			return true
		}
		if b.data == nil && m.flags&chunkEndMsg != 0 {
			b.data = plain // single-chunk response: zero-copy handoff
		} else {
			if b.data == nil {
				b.data = wire.GetBuf(int(b.resp.BulkSize))
			}
			b.data = append(b.data, plain...)
			wire.PutBuf(plain)
		}
		if m.flags&chunkEndMsg != 0 {
			delete(bulkIn, m.streamID)
			c.deliverBulk(m.streamID, b, b.data)
		}
	case wire.FrameWindowUpdate:
		if st := c.lookupStream(m.streamID); st != nil {
			st.grantFromPeer(plain)
		}
		wire.PutBuf(plain)
	case wire.FrameReset:
		if st := c.lookupStream(m.streamID); st != nil {
			st.resetFromPeer(plain)
		}
		wire.PutBuf(plain)
	case wire.FramePong:
		wire.PutBuf(plain)
		c.pingMu.Lock()
		ch := c.pingCh
		c.pingCh = nil
		c.pingMu.Unlock()
		if ch != nil {
			ch <- time.Now()
		}
	case wire.FrameGoAway:
		wire.PutBuf(plain)
		c.fail(ErrUnavailable)
		return false
	default:
		wire.PutBuf(plain)
	}
	return true
}

// deliverBulk completes a bulk-lane response: data (the assembly buffer,
// possibly nil for an empty or error response) transfers to the waiting
// caller.
func (c *Channel) deliverBulk(streamID uint64, b *clientBulk, data []byte) {
	rxNs := c.sinceEpoch()
	c.mu.Lock()
	call := c.pending[streamID]
	delete(c.pending, streamID)
	c.mu.Unlock()
	if call == nil {
		wire.PutBuf(data)
		return
	}
	b.resp.Payload = data
	c.serverLoad.Store(int64(b.resp.Load))
	call.resultCh <- &callResult{resp: b.resp, buf: data, bulk: true, rxAtNs: rxNs}
}

// ServerLoad returns the server's most recently reported load estimate
// (receive-queue depth plus executing handlers), 0 until the first
// response arrives. It is the piggybacked signal load-aware balancing
// policies consume. On a striped channel it is the freshest report any
// stripe has seen — the maximum, since every stripe talks to one server.
func (c *Channel) ServerLoad() int {
	if len(c.stripes) == 0 {
		return int(c.serverLoad.Load())
	}
	load := int64(0)
	for _, s := range c.stripes {
		if l := s.serverLoad.Load(); l > load {
			load = l
		}
	}
	return int(load)
}

// InFlight returns how many calls on this channel await a response,
// summed across stripes.
func (c *Channel) InFlight() int {
	if len(c.stripes) == 0 {
		c.mu.Lock()
		n := len(c.pending)
		c.mu.Unlock()
		return n
	}
	n := 0
	for _, s := range c.stripes {
		s.mu.Lock()
		n += len(s.pending)
		s.mu.Unlock()
	}
	return n
}

// failPending fails the pending call on streamID, if any.
func (c *Channel) failPending(streamID uint64, err error) {
	c.mu.Lock()
	call := c.pending[streamID]
	delete(c.pending, streamID)
	c.mu.Unlock()
	if call != nil {
		c.failCall(call, err)
	}
}

// lookupStream returns the live stream for id, nil if none.
func (c *Channel) lookupStream(id uint64) *Stream {
	c.mu.Lock()
	st := c.streams[id]
	c.mu.Unlock()
	return st
}

// dropStream detaches a stream from the channel's table.
func (c *Channel) dropStream(id uint64) {
	c.mu.Lock()
	delete(c.streams, id)
	c.mu.Unlock()
}

// Ping measures transport round-trip time, including encryption but not
// queuing or handlers.
func (c *Channel) Ping(ctx context.Context) (time.Duration, error) {
	if ctx.Err() != nil {
		// Fail before sending: a pong racing an already-done context
		// must not turn a cancelled Ping into a success.
		return 0, codeToError(cancelCode(ctx))
	}
	ch := make(chan time.Time, 1)
	c.pingMu.Lock()
	if c.pingCh != nil {
		c.pingMu.Unlock()
		return 0, Errorf(trace.NoResource, "ping already in flight")
	}
	c.pingCh = ch
	c.pingMu.Unlock()
	start := time.Now()
	if err := c.tr.send(wire.FramePing, 0, nil); err != nil {
		c.pingMu.Lock()
		c.pingCh = nil
		c.pingMu.Unlock()
		return 0, Errorf(trace.Unavailable, "ping send: %v", err)
	}
	select {
	case end := <-ch:
		return end.Sub(start), nil
	case <-ctx.Done():
		c.pingMu.Lock()
		c.pingCh = nil
		c.pingMu.Unlock()
		return 0, codeToError(cancelCode(ctx))
	case <-c.closed:
		return 0, ErrUnavailable
	}
}

// fail kills the channel: all pending and future calls error out. On a
// striped channel it condemns every stripe — one logical connection.
func (c *Channel) fail(err error) {
	if c.onFail != nil {
		c.onFail(err)
		return
	}
	c.failLocal(err)
}

// failLocal kills this channel (this stripe) only.
func (c *Channel) failLocal(err error) {
	c.err.Store(&channelError{err: err})
	c.closeOnce.Do(func() { close(c.closed) })
	c.mu.Lock()
	pending := c.pending
	c.pending = make(map[uint64]*clientCall)
	streams := c.streams
	c.streams = nil
	c.mu.Unlock()
	for _, call := range pending {
		c.failCall(call, err)
	}
	for _, st := range streams {
		st.terminate(ErrUnavailable, false)
	}
}

// Close shuts the channel down. Pending calls fail with Unavailable.
func (c *Channel) Close() error {
	if len(c.stripes) > 0 {
		var err error
		for _, s := range c.stripes {
			if e := s.closeLocal(); e != nil && err == nil {
				err = e
			}
		}
		return err
	}
	return c.closeLocal()
}

// closeLocal tears down one channel (one stripe): fail everything, close
// the conn so the loops unwind, and join them.
func (c *Channel) closeLocal() error {
	c.fail(ErrUnavailable)
	err := c.tr.close()
	c.loops.Wait()
	return err
}
