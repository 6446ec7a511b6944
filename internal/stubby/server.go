package stubby

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"rpcscale/internal/compressor"
	"rpcscale/internal/faultplane"
	"rpcscale/internal/secure"
	"rpcscale/internal/trace"
	"rpcscale/internal/wire"
)

// Handler serves one RPC method: it receives the request payload and
// returns the response payload or an error (ideally a *Status).
type Handler func(ctx context.Context, payload []byte) ([]byte, error)

// ServerInterceptor wraps handler invocation; interceptors compose
// outermost-first, mirroring Stubby/gRPC middleware.
type ServerInterceptor func(ctx context.Context, method string, payload []byte, next Handler) ([]byte, error)

// Server accepts connections and dispatches RPCs to registered handlers
// through a bounded receive queue and a fixed worker pool — the structure
// whose queue the paper's ServerRecvQueue component measures.
type Server struct {
	opts Options
	comp *compressor.Compressor

	mu           sync.RWMutex
	handlers     map[string]Handler
	bidiHandlers map[string]BidiHandler
	methodNames  map[string]string // interned registered names, keyed by themselves
	intcpt       []ServerInterceptor

	// intern is internMethod bound once at construction so the per-request
	// decode path does not allocate a method-value closure.
	intern func([]byte) string

	recvQ chan *serverCall

	// inflight counts calls a worker is currently executing; together with
	// the receive-queue depth it is the load estimate piggybacked on every
	// response (DESIGN.md §13) for client-side load-aware balancing.
	inflight atomic.Int64

	lnMu      sync.Mutex
	listeners map[net.Listener]struct{}

	conns sync.WaitGroup // active connection readers + writers
	pool  sync.WaitGroup // worker pool

	closeOnce sync.Once
	closed    chan struct{}
}

// serverCall is one queued request with the instrumentation timestamps
// accumulated so far. raw is a pooled recv buffer: ownership travels with
// the call, and the buffer is released only after the response envelope is
// sealed (the handler's payload — and possibly its response — alias it).
// A stream open carries the eagerly registered stream; a bulk-lane
// request carries its reassembled payload in bulkData (also pooled).
type serverCall struct {
	conn     *serverConn
	streamID uint64
	req      request   // decoded on a worker; Payload aliases raw
	raw      []byte    // pooled decrypted envelope bytes
	stream   *Stream   // non-nil: this is a stream open, not a unary call
	bulkData []byte    // pooled bulk-lane request payload
	readDone time.Time // when the request frame finished arriving
}

// serverConn is the per-connection state: the transport plus the response
// send queue drained by a writer goroutine (ServerSendQueue).
type serverConn struct {
	tr     *transport
	sendQ  chan *serverResponse
	closed chan struct{}
	once   sync.Once

	// gate is the adaptive-compression decision state, owned by this
	// connection's writeLoop goroutine; nil when adaptive compression is
	// off.
	gate *compressGate

	cancelMu sync.Mutex
	cancels  map[uint64]context.CancelFunc // in-flight calls by stream ID

	streamMu sync.Mutex
	streams  map[uint64]*Stream // live bidirectional streams
}

func (c *serverConn) shutdown() {
	c.once.Do(func() {
		close(c.closed)
		c.tr.close()
	})
}

func (c *serverConn) storeCancel(id uint64, cancel context.CancelFunc) {
	c.cancelMu.Lock()
	c.cancels[id] = cancel
	c.cancelMu.Unlock()
}

func (c *serverConn) deleteCancel(id uint64) {
	c.cancelMu.Lock()
	delete(c.cancels, id)
	c.cancelMu.Unlock()
}

func (c *serverConn) cancelStream(id uint64) {
	c.cancelMu.Lock()
	cancel := c.cancels[id]
	c.cancelMu.Unlock()
	if cancel != nil {
		cancel()
	}
}

func (c *serverConn) addStream(id uint64, st *Stream) {
	c.streamMu.Lock()
	if c.streams == nil {
		c.streams = make(map[uint64]*Stream)
	}
	c.streams[id] = st
	c.streamMu.Unlock()
}

func (c *serverConn) lookupStream(id uint64) *Stream {
	c.streamMu.Lock()
	st := c.streams[id]
	c.streamMu.Unlock()
	return st
}

func (c *serverConn) dropStream(id uint64) {
	c.streamMu.Lock()
	delete(c.streams, id)
	c.streamMu.Unlock()
}

// failStreams terminates every live stream on the connection, used when
// its read loop exits.
func (c *serverConn) failStreams() {
	c.streamMu.Lock()
	streams := c.streams
	c.streams = nil
	c.streamMu.Unlock()
	for _, st := range streams {
		st.terminate(ErrUnavailable, false)
	}
}

// serverResponse is a response waiting in the send queue.
type serverResponse struct {
	streamID uint64
	// method is the interned method name, for the adaptive-compression
	// gate's per-method estimator.
	method string
	resp   response
	reqBuf []byte // pooled request envelope, released after the response seals
	// reqBulk is the pooled bulk-lane request payload; like reqBuf it is
	// released only after the response seals (the handler's response may
	// alias it — echo servers return their input).
	reqBulk []byte
	// bulk routes the response payload through the bulk lane: bulkOut
	// leaves as chunk frames after a FrameBulkResponse envelope.
	bulk      bool
	bulkOut   []byte
	appDone   time.Time // handler completion: send-queue time starts here
	readDone  time.Time // request arrival, for Elapsed
	recvQueue time.Duration
	app       time.Duration
}

// NewServer returns a server with the given options.
func NewServer(opts Options) *Server {
	o := opts.withDefaults()
	s := &Server{
		opts:         o,
		comp:         compressor.New(o.Compression, o.CompressorStats),
		handlers:     make(map[string]Handler),
		bidiHandlers: make(map[string]BidiHandler),
		methodNames:  make(map[string]string),
		recvQ:        make(chan *serverCall, o.RecvQueueLen),
		listeners:    make(map[net.Listener]struct{}),
		closed:       make(chan struct{}),
	}
	s.intern = s.internMethod
	for i := 0; i < o.Workers; i++ {
		s.pool.Add(1)
		go s.worker()
	}
	return s
}

// Register installs a handler for a fully qualified method name. It panics
// on duplicate registration, which is a programming error.
func (s *Server) Register(method string, h Handler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.handlers[method]; dup {
		panic(fmt.Sprintf("stubby: duplicate handler for %q", method))
	}
	if _, dup := s.bidiHandlers[method]; dup {
		panic(fmt.Sprintf("stubby: %q already registered as a stream", method))
	}
	s.handlers[method] = h
	s.methodNames[method] = method
}

// internMethod resolves a decoded method name against the registration
// table so steady-state request decode reuses the registered string
// instead of allocating one per call. Unknown methods (which fail lookup
// anyway) pay the allocation. Caller must hold s.mu.
func (s *Server) internMethod(b []byte) string {
	if m, ok := s.methodNames[string(b)]; ok {
		return m
	}
	return string(b)
}

// Intercept appends a server interceptor; later additions run closer to
// the handler.
func (s *Server) Intercept(i ServerInterceptor) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.intcpt = append(s.intcpt, i)
}

// Serve accepts connections on l until the server or listener closes.
// It always returns a non-nil error; after Close it returns nil-wrapped
// ErrServerClosed semantics via net.ErrClosed.
func (s *Server) Serve(l net.Listener) error {
	s.lnMu.Lock()
	select {
	case <-s.closed:
		s.lnMu.Unlock()
		l.Close()
		return net.ErrClosed
	default:
	}
	s.listeners[l] = struct{}{}
	s.lnMu.Unlock()
	for {
		conn, err := l.Accept()
		if err != nil {
			return err
		}
		tr, err := newTransport(conn, s.opts.Secret, "s2c", "c2s", s.opts.EncryptionStats)
		if err != nil {
			conn.Close()
			continue
		}
		sc := &serverConn{
			tr:      tr,
			sendQ:   make(chan *serverResponse, s.opts.SendQueueLen),
			cancels: make(map[uint64]context.CancelFunc),
			closed:  make(chan struct{}),
			gate: newCompressGate(
				s.opts.AdaptiveCompression && s.opts.Compression != compressor.None,
				s.opts.DataPlane, s.comp.Stats()),
		}
		s.conns.Add(2)
		go s.readLoop(sc)
		go s.writeLoop(sc)
	}
}

// serverBulk assembles one bulk-lane request: the envelope arrives as a
// FrameBulkRequest, the payload as chunk frames on the same stream ID.
type serverBulk struct {
	//rpclint:owns pooled request envelope; released by assembleBulk on
	// hand-off or by readLoop teardown.
	env []byte
	//rpclint:owns pooled payload assembly; ownership moves to
	// serverCall.bulkData when the last chunk lands.
	data      []byte
	readStart time.Time
}

// readLoop pulls frames off one connection and enqueues requests. It owns
// bulkIn, the bulk-lane request assemblies, so chunk reassembly takes no
// locks; live streams get their chunks delivered directly (deliverChunk
// never blocks — credit windows bound the queued bytes — so one stalled
// stream cannot head-of-line-block the connection).
func (s *Server) readLoop(sc *serverConn) {
	defer s.conns.Done()
	defer sc.shutdown()
	defer sc.failStreams()
	bulkIn := make(map[uint64]*serverBulk)
	defer func() {
		for _, b := range bulkIn {
			wire.PutBuf(b.env)
			wire.PutBuf(b.data)
		}
	}()
	for {
		m, err := sc.tr.recv()
		if err != nil {
			// EOF, a closed socket, or a connection-level failure;
			// nothing to salvage either way.
			return
		}
		if !s.dispatchServerFrame(sc, m, bulkIn) {
			return
		}
	}
}

// dispatchServerFrame routes one decoded frame; false means the read loop
// should exit (shutdown or GoAway).
func (s *Server) dispatchServerFrame(sc *serverConn, m recvMsg, bulkIn map[uint64]*serverBulk) bool {
	plain := m.plain
	switch m.typ {
	case wire.FrameRequest:
		if t := s.opts.ShedThreshold; t > 0 && len(s.recvQ) >= t {
			// Load shedding: past the configured queue depth, new
			// arrivals would only queue toward deadlines they will
			// miss, so reject them immediately with Unavailable —
			// the fail-fast overload posture the paper's §7 retry
			// analysis assumes servers adopt.
			s.shed(sc, m.streamID, plain)
			wire.PutBuf(plain)
			return true
		}
		call := &serverCall{
			conn:     sc,
			streamID: m.streamID,
			raw:      plain, // pooled; ownership travels with the call
			readDone: time.Now(),
		}
		return s.enqueue(call)
	case wire.FrameBulkRequest:
		// Envelope of a bulk-lane request; the payload follows as
		// chunks. Queue admission happens when the payload completes.
		bulkIn[m.streamID] = &serverBulk{env: plain, readStart: time.Now()}
	case wire.FrameStreamOpen:
		return s.acceptStream(sc, m.streamID, plain)
	case wire.FrameStreamChunk:
		if b := bulkIn[m.streamID]; b != nil {
			done, ok := s.assembleBulk(sc, m.streamID, b, m.flags, plain)
			if done {
				delete(bulkIn, m.streamID)
			}
			return ok
		}
		if st := sc.lookupStream(m.streamID); st != nil {
			st.deliverChunk(m.flags, plain)
			return true
		}
		wire.PutBuf(plain) // stream already reset or unknown
	case wire.FrameWindowUpdate:
		if st := sc.lookupStream(m.streamID); st != nil {
			st.grantFromPeer(plain)
		}
		wire.PutBuf(plain)
	case wire.FrameReset:
		if b := bulkIn[m.streamID]; b != nil {
			delete(bulkIn, m.streamID)
			wire.PutBuf(b.env)
			wire.PutBuf(b.data)
		}
		if st := sc.lookupStream(m.streamID); st != nil {
			// Terminating cancels the handler's context promptly and
			// fails its blocked Sends — the client walked away.
			st.resetFromPeer(plain)
		}
		wire.PutBuf(plain)
	case wire.FrameCancel:
		wire.PutBuf(plain)
		if b := bulkIn[m.streamID]; b != nil {
			delete(bulkIn, m.streamID)
			wire.PutBuf(b.env)
			wire.PutBuf(b.data)
		}
		sc.cancelStream(m.streamID)
	case wire.FramePing:
		wire.PutBuf(plain)
		_ = sc.tr.send(wire.FramePong, m.streamID, nil)
	case wire.FrameGoAway:
		wire.PutBuf(plain)
		return false
	default:
		wire.PutBuf(plain)
	}
	return true
}

// enqueue admits one decoded call to the receive queue; false means the
// server is shutting down and the read loop should exit.
func (s *Server) enqueue(call *serverCall) bool {
	select {
	case s.recvQ <- call:
		return true
	case <-s.closed:
		wire.PutBuf(call.raw)
		wire.PutBuf(call.bulkData)
		if call.stream != nil {
			call.stream.terminate(ErrUnavailable, false)
		}
		return false
	default:
		// Receive queue full: shed load with NoResource, the overload
		// behavior the paper's error taxonomy records.
		if call.stream != nil {
			call.stream.terminate(Errorf(trace.NoResource, "server receive queue full"), true)
		} else {
			s.reject(call.conn, call.streamID, trace.NoResource, "server receive queue full")
		}
		wire.PutBuf(call.raw)
		wire.PutBuf(call.bulkData)
		return true
	}
}

// acceptStream registers a new inbound stream eagerly — chunks may arrive
// before a worker decodes the open envelope, and the stream must exist to
// receive them. Its send window starts at zero; the worker installs the
// client's declared window after the decode. False means shutdown.
func (s *Server) acceptStream(sc *serverConn, streamID uint64, env []byte) bool {
	if t := s.opts.ShedThreshold; t > 0 && len(s.recvQ) >= t {
		st := &Status{Code: trace.Unavailable, Message: "server overloaded: load shed"}
		_ = sc.tr.sendReset(streamID, st)
		if s.opts.Robustness != nil {
			method := ""
			if req, err := parseRequest(env); err == nil {
				method = req.Method
			}
			s.opts.Robustness.CallShed(method)
		}
		wire.PutBuf(env)
		return true
	}
	st := newStream(sc.tr, streamID, 0)
	st.sc = sc
	sc.addStream(streamID, st)
	call := &serverCall{
		conn:     sc,
		streamID: streamID,
		raw:      env,
		stream:   st,
		readDone: time.Now(),
	}
	return s.enqueue(call)
}

// assembleBulk folds one chunk into a bulk-lane request assembly. done
// reports the assembly finished (successfully or not); ok=false means the
// server is shutting down.
func (s *Server) assembleBulk(sc *serverConn, streamID uint64, b *serverBulk, flags byte, data []byte) (done, ok bool) {
	if len(b.data)+len(data) > wire.MaxFrameSize {
		// A well-behaved client caps bulk payloads at MaxFrameSize; this
		// peer did not.
		wire.PutBuf(data)
		wire.PutBuf(b.env)
		wire.PutBuf(b.data)
		s.reject(sc, streamID, trace.InvalidArgument, "bulk request exceeds maximum size")
		return true, true
	}
	if b.data == nil && flags&chunkEndMsg != 0 {
		b.data = data // single-chunk payload: zero-copy handoff
	} else {
		if b.data == nil {
			b.data = wire.GetBuf(2 * len(data))
		}
		b.data = append(b.data, data...)
		wire.PutBuf(data)
	}
	if flags&chunkEndMsg == 0 {
		return false, true
	}
	if t := s.opts.ShedThreshold; t > 0 && len(s.recvQ) >= t {
		s.shed(sc, streamID, b.env)
		wire.PutBuf(b.env)
		wire.PutBuf(b.data)
		return true, true
	}
	call := &serverCall{
		conn:     sc,
		streamID: streamID,
		raw:      b.env,
		bulkData: b.data,
		readDone: b.readStart,
	}
	return true, s.enqueue(call)
}

// shed rejects one request at the shedding threshold. The envelope is
// parsed only on this (rare, already-failing) path so the shed counter
// can be attributed to a method; the request is not decompressed.
func (s *Server) shed(sc *serverConn, streamID uint64, plain []byte) {
	s.reject(sc, streamID, trace.Unavailable, "server overloaded: load shed")
	if s.opts.Robustness == nil {
		return
	}
	method := ""
	if req, err := parseRequest(plain); err == nil {
		method = req.Method
	}
	s.opts.Robustness.CallShed(method)
}

// reject sends an error response without involving the worker pool.
func (s *Server) reject(sc *serverConn, streamID uint64, code trace.ErrorCode, msg string) {
	resp := response{Code: code, Message: msg}
	buf := appendResponse(wire.GetBuf(len(msg)+envelopeOverhead), &resp)
	_ = sc.tr.send(wire.FrameResponse, streamID, buf)
	wire.PutBuf(buf)
}

// worker drains the receive queue: decode, deadline setup, handler
// invocation, and response enqueue.
func (s *Server) worker() {
	defer s.pool.Done()
	for {
		select {
		case call := <-s.recvQ:
			s.handle(call)
		case <-s.closed:
			// Drain remaining work before exiting so accepted requests
			// are answered.
			for {
				select {
				case call := <-s.recvQ:
					s.handle(call)
				default:
					return
				}
			}
		}
	}
}

// Load returns the server's instantaneous load estimate: queued requests
// plus handlers currently executing. It is cheap enough to read on every
// response and is what the response envelope's load field reports.
func (s *Server) Load() int {
	return len(s.recvQ) + int(s.inflight.Load())
}

func (s *Server) handle(call *serverCall) {
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	if call.stream != nil {
		// Stream open: fault injection covers unary calls only; streams
		// pass through (they are outside the paper's sampled RPC classes).
		s.handleBidi(call)
		return
	}
	req := &call.req
	s.mu.RLock()
	err := parseRequestInto(req, call.raw, s.intern)
	var h Handler
	var intcpt []ServerInterceptor
	if err == nil {
		h = s.handlers[req.Method]
		intcpt = s.intcpt
	}
	s.mu.RUnlock()
	if err != nil {
		s.reject(call.conn, call.streamID, trace.Internal, err.Error())
		wire.PutBuf(call.raw)
		wire.PutBuf(call.bulkData)
		return
	}
	payload := req.Payload
	if call.bulkData != nil {
		// Bulk-lane request: the payload arrived as chunks, never
		// compressed, reassembled into its own pooled buffer.
		payload = call.bulkData
	} else if req.Compressed {
		payload, err = s.comp.Decompress(payload)
		if err != nil {
			s.reject(call.conn, call.streamID, trace.Internal, "decompress: "+err.Error())
			wire.PutBuf(call.raw)
			return
		}
	}
	// The paper counts decrypt+parse inside ServerRecvQueue (§3.1); decode
	// happened between readDone and now, so the measurement matches.
	recvQueue := time.Since(call.readDone)
	req.Payload = payload

	// Server-scope fault decision, keyed by the envelope's call ID and
	// attempt number so schedules replay deterministically (see
	// internal/faultplane).
	var dec faultplane.Decision
	if s.opts.Faults != nil {
		dec = s.opts.Faults.Decide(faultplane.ScopeServer, req.Method, faultplane.Key{
			Seq:     req.CallSeq - 1,
			Have:    req.CallSeq > 0,
			Attempt: req.Attempt,
		})
		if dec.Reject != trace.OK {
			s.reject(call.conn, call.streamID, dec.Reject, "fault injection: rejected")
			wire.PutBuf(call.raw)
			wire.PutBuf(call.bulkData)
			return
		}
		if dec.Drop {
			// The response vanishes; the client's deadline expires.
			wire.PutBuf(call.raw)
			wire.PutBuf(call.bulkData)
			return
		}
		if dec.Corrupt {
			faultplane.CorruptPayload(payload)
		}
	}

	ctx := ContextWithTrace(context.Background(), TraceContext{
		TraceID: req.TraceID,
		SpanID:  req.SpanID,
	})
	var cancel context.CancelFunc
	if req.Deadline > 0 {
		ctx, cancel = context.WithTimeout(ctx, req.Deadline)
	} else {
		ctx, cancel = context.WithCancel(ctx)
	}
	call.conn.storeCancel(call.streamID, cancel)
	defer func() {
		call.conn.deleteCancel(call.streamID)
		cancel()
	}()

	if dec.Delay > 0 {
		// Injected delay occupies this worker — the mechanism by which
		// overload incidents genuinely saturate the serving pool rather
		// than simulating it. Bounded by the request deadline.
		t := time.NewTimer(dec.Delay)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
		}
	}

	var out []byte
	var herr error
	appStart := time.Now()
	if ctxErr := ctx.Err(); ctxErr != nil {
		// Deadline burned (typically by an injected delay) before the
		// handler ran.
		herr = ctxErrToStatus(ctxErr)
	} else if h == nil {
		herr = Errorf(trace.EntityNotFound, "no handler for method %q", req.Method)
	} else {
		invoke := h
		for i := len(intcpt) - 1; i >= 0; i-- {
			mid, next := intcpt[i], invoke
			invoke = func(c context.Context, p []byte) ([]byte, error) {
				return mid(c, req.Method, p, next)
			}
		}
		out, herr = invoke(ctx, payload)
		if ctxErr := ctx.Err(); herr == nil && ctxErr != nil {
			herr = ctxErrToStatus(ctxErr)
		} else if herr != nil && (errors.Is(herr, context.DeadlineExceeded) || errors.Is(herr, context.Canceled)) {
			// A handler returning its ctx.Err() means the propagated
			// deadline or a cancel fired: surface the canonical code, not
			// Internal — the client may see this response before its own
			// local timer when both ends expire at the same instant.
			herr = ctxErrToStatus(herr)
		}
	}
	appDone := time.Now()

	st := StatusFromError(herr)
	sr := &serverResponse{
		streamID: call.streamID,
		method:   req.Method,
		// The handler's response may alias the request envelope (echo
		// servers return their input), so the pooled request buffers ride
		// along and are released only after the response is sealed.
		reqBuf:    call.raw,
		reqBulk:   call.bulkData,
		appDone:   appDone,
		readDone:  call.readDone,
		recvQueue: recvQueue,
		app:       appDone.Sub(appStart),
	}
	sr.resp.Code = st.Code
	sr.resp.Payload = out
	if st.Code != trace.OK {
		sr.resp.Message = st.Message
		sr.resp.Payload = nil
	}
	select {
	case call.conn.sendQ <- sr:
	case <-call.conn.closed:
	}
}

func ctxErrToStatus(err error) error {
	if errors.Is(err, context.DeadlineExceeded) {
		return ErrDeadlineExceeded
	}
	return ErrCancelled
}

// writeLoop drains one connection's send queue through drainBatches:
// compress, marshal, encrypt, write — the server side of RespProcStack.
func (s *Server) writeLoop(sc *serverConn) {
	defer s.conns.Done()
	batch := make([]*serverResponse, 0, 32)
	envs := make([][]byte, 0, 32)
	drainBatches(sc.sendQ, sc.closed, func(sr *serverResponse, size int) int {
		batch, envs, size = s.prepareResponse(sc, sr, batch, envs, size)
		return size
	}, func() {
		s.flushResponses(sc, batch, envs)
		batch, envs = batch[:0], envs[:0]
	})
}

// prepareResponse compresses and marshals one queued response into a
// pooled envelope, appending it to the batch. Payloads at or past the
// bulk threshold switch to the bulk lane: the envelope carries only the
// size, and the payload leaves as chunk frames sealed straight from the
// handler's buffer — no copy into the envelope, no compression.
func (s *Server) prepareResponse(sc *serverConn, sr *serverResponse, batch []*serverResponse, envs [][]byte, size int) ([]*serverResponse, [][]byte, int) {
	procStart := time.Now()
	resp := &sr.resp
	if th := s.opts.BulkThreshold; th > 0 && len(resp.Payload) >= th && len(resp.Payload) <= wire.MaxFrameSize {
		sr.bulk = true
		sr.bulkOut = resp.Payload
		resp.BulkSize = uint64(len(resp.Payload))
		resp.Payload = nil
	} else if s.opts.Compression != compressor.None && len(resp.Payload) >= s.opts.CompressThreshold &&
		sc.gate.shouldCompress(sr.method, resp.Payload) {
		inLen := len(resp.Payload)
		if compressed, err := s.comp.Compress(resp.Payload); err == nil {
			sc.gate.observe(sr.method, inLen, len(compressed))
			if len(compressed) < inLen {
				resp.Payload = compressed
				resp.Compressed = true
			}
		}
	}
	resp.Timings = serverTimings{
		RecvQueue: sr.recvQueue,
		App:       sr.app,
		SendQueue: procStart.Sub(sr.appDone),
	}
	// Piggyback the current load estimate so clients balance on
	// near-real-time signals without a separate control RPC.
	resp.Load = uint32(s.Load())
	// Marshal once to measure RespProc including serialization; the
	// timing fields are filled before the final marshal so RespProc is
	// a lower bound measured up to the write.
	env := appendResponse(wire.GetBuf(len(resp.Payload)+envelopeOverhead), resp)
	resp.Timings.RespProc = time.Since(procStart)
	resp.Timings.Elapsed = time.Since(sr.readDone)
	env = appendResponse(env[:0], resp)
	if len(env)+secure.Overhead > wire.MaxFrameSize {
		wire.PutBuf(env)
		wire.PutBuf(sr.reqBuf)
		wire.PutBuf(sr.reqBulk)
		return batch, envs, size // oversize: drop; the client's deadline expires
	}
	return append(batch, sr), append(envs, env), size + len(env) + len(sr.bulkOut)
}

// flushResponses seals every prepared envelope into the transport's write
// buffer, flushes them with a single write, and releases the pooled
// request and response buffers. A failed write is not reported here — the
// connection's read loop observes the socket error and tears down.
func (s *Server) flushResponses(sc *serverConn, batch []*serverResponse, envs [][]byte) {
	if len(batch) == 0 {
		return
	}
	sc.tr.lockSend()
	var err error
	for i, sr := range batch {
		if err != nil {
			break
		}
		if sr.bulk {
			// Envelope first, then the payload chunks on the same stream —
			// all in this batch's single vectored write. Bulk-unary chunks
			// are exempt from stream credit: the request bounded them.
			err = sc.tr.appendLocked(wire.FrameBulkResponse, sr.streamID, envs[i])
			if err == nil {
				err = sc.tr.appendChunkedLocked(sr.streamID, sr.bulkOut, 0)
			}
		} else {
			err = sc.tr.appendLocked(wire.FrameResponse, sr.streamID, envs[i])
		}
	}
	if err == nil {
		_ = sc.tr.flushLocked()
	}
	sc.tr.unlockSend()
	for i, sr := range batch {
		wire.PutBuf(envs[i])
		wire.PutBuf(sr.reqBuf)
		wire.PutBuf(sr.reqBulk)
	}
}

// Close stops accepting, closes all listeners, and releases the worker
// pool. In-flight handlers run to completion.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		close(s.closed)
		s.lnMu.Lock()
		for l := range s.listeners {
			l.Close()
		}
		s.lnMu.Unlock()
		s.pool.Wait()
	})
}
