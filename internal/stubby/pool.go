package stubby

import (
	"context"

	"sync"
	"sync/atomic"
	"time"

	"rpcscale/internal/trace"
)

// Pool is a client-side channel pool: N connections to one server with a
// pick policy per call. Production RPC stacks multiplex heavily but still
// run several connections per backend to avoid head-of-line blocking on
// one TCP stream; the pool is also the natural place for subsetting.
type Pool struct {
	opts          Options
	addr          string
	serverCluster string

	mu       sync.Mutex
	channels []*Channel
	next     atomic.Uint64

	closed bool
}

// NewPool dials size connections to addr. It fails if no connection can
// be established; partial pools are allowed when at least one dial
// succeeds.
func NewPool(addr, serverCluster string, size int, opts Options) (*Pool, error) {
	if size < 1 {
		size = 1
	}
	p := &Pool{opts: opts, addr: addr, serverCluster: serverCluster}
	var firstErr error
	for i := 0; i < size; i++ {
		ch, err := Dial(addr, serverCluster, opts)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		p.channels = append(p.channels, ch)
	}
	if len(p.channels) == 0 {
		return nil, firstErr
	}
	return p, nil
}

// Size returns the number of live channels.
func (p *Pool) Size() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.channels)
}

// pick selects the next channel round-robin, or through Options.PoolPicker
// when one is configured.
func (p *Pool) pick() (*Channel, error) {
	p.mu.Lock()
	if p.closed || len(p.channels) == 0 {
		p.mu.Unlock()
		return nil, ErrUnavailable
	}
	if picker := p.opts.PoolPicker; picker != nil {
		// Snapshot the members so the picker (user code) runs outside the
		// pool lock; replace() may mutate the slice concurrently.
		members := append([]*Channel(nil), p.channels...)
		p.mu.Unlock()
		if ch := picker(members); ch != nil {
			return ch, nil
		}
		return members[0], nil
	}
	i := int(p.next.Add(1)) % len(p.channels)
	ch := p.channels[i]
	p.mu.Unlock()
	return ch, nil
}

// Addr returns the backend address the pool dials.
func (p *Pool) Addr() string { return p.addr }

// InFlight returns the number of calls awaiting responses across all
// members — the client-side half of the pool's load estimate.
func (p *Pool) InFlight() int {
	p.mu.Lock()
	channels := append([]*Channel(nil), p.channels...)
	p.mu.Unlock()
	n := 0
	for _, ch := range channels {
		n += ch.InFlight()
	}
	return n
}

// ServerLoad returns the backend's most recently piggybacked load report:
// the maximum across members, since each channel's copy goes stale
// independently and the freshest pessimistic signal balances best.
func (p *Pool) ServerLoad() int {
	p.mu.Lock()
	channels := append([]*Channel(nil), p.channels...)
	p.mu.Unlock()
	load := 0
	for _, ch := range channels {
		if l := ch.ServerLoad(); l > load {
			load = l
		}
	}
	return load
}

// Load combines the client-side in-flight count with the server's
// piggybacked report. It implements the loadbalance.Endpoint interface, so
// the same policies that balance simulated machines balance live pools.
func (p *Pool) Load() int {
	return p.InFlight() + p.ServerLoad()
}

// Call issues a unary RPC on one pool member. A channel that died is
// replaced in the background and the call is retried once on another
// member.
func (p *Pool) Call(ctx context.Context, method string, payload []byte, opts ...CallOption) ([]byte, error) {
	for attempt := 0; attempt < 2; attempt++ {
		ch, err := p.pick()
		if err != nil {
			return nil, err
		}
		out, err := ch.Call(ctx, method, payload, opts...)
		if err == nil {
			return out, nil
		}
		if Code(err) != trace.Unavailable {
			return nil, err
		}
		p.replace(ch)
	}
	return nil, ErrUnavailable
}

// CallHedged issues a hedged call where the hedge leg goes to a
// *different* pool member — the cross-replica hedging the paper's §4.4
// describes (a same-server hedge shares the straggler's fate).
func (p *Pool) CallHedged(ctx context.Context, method string, payload []byte, hedgeDelay time.Duration) ([]byte, error) {
	primary, err := p.pick()
	if err != nil {
		return nil, err
	}
	secondary, err := p.pick()
	if err != nil || secondary == primary {
		return primary.CallHedged(ctx, method, payload, hedgeDelay)
	}
	type result struct {
		payload []byte
		err     error
	}
	results := make(chan result, 2)
	primCtx, cancelPrim := context.WithCancel(ctx)
	defer cancelPrim()
	go func() {
		out, err := primary.call(primCtx, method, payload, false)
		results <- result{out, err}
	}()
	timer := time.NewTimer(hedgeDelay)
	defer timer.Stop()
	var hedgeCancel context.CancelFunc
	defer func() {
		if hedgeCancel != nil {
			hedgeCancel()
		}
	}()
	hedged := false
	launchHedge := func() {
		hedged = true
		var hctx context.Context
		hctx, hedgeCancel = context.WithCancel(ctx)
		go func() {
			out, err := secondary.call(hctx, method, payload, true)
			results <- result{out, err}
		}()
	}
	var firstErr error
	seen := 0
	for {
		select {
		case <-timer.C:
			if !hedged {
				launchHedge()
			}
		case r := <-results:
			if r.err == nil {
				cancelPrim()
				if hedgeCancel != nil {
					hedgeCancel()
				}
				return r.payload, nil
			}
			if firstErr == nil || Code(firstErr) == trace.Cancelled {
				firstErr = r.err
			}
			seen++
			expected := 1
			if hedged {
				expected = 2
			}
			if seen >= expected {
				return nil, firstErr
			}
		case <-ctx.Done():
			return nil, codeToError(cancelCode(ctx))
		}
	}
}

// replace drops a dead channel and dials a replacement.
func (p *Pool) replace(dead *Channel) {
	p.mu.Lock()
	for i, ch := range p.channels {
		if ch == dead {
			p.channels = append(p.channels[:i], p.channels[i+1:]...)
			break
		}
	}
	closed := p.closed
	p.mu.Unlock()
	dead.Close()
	if closed {
		return
	}
	if ch, err := Dial(p.addr, p.serverCluster, p.opts); err == nil {
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			ch.Close()
			return
		}
		p.channels = append(p.channels, ch)
		p.mu.Unlock()
	}
}

// OpenStream opens a bidirectional stream on one pool member.
func (p *Pool) OpenStream(ctx context.Context, method string, opts ...CallOption) (*Stream, error) {
	ch, err := p.pick()
	if err != nil {
		return nil, err
	}
	return ch.OpenStream(ctx, method, opts...)
}

// Ping measures RTT on one member.
func (p *Pool) Ping(ctx context.Context) (time.Duration, error) {
	ch, err := p.pick()
	if err != nil {
		return 0, err
	}
	return ch.Ping(ctx)
}

// Close shuts down every member.
func (p *Pool) Close() {
	p.mu.Lock()
	p.closed = true
	channels := p.channels
	p.channels = nil
	p.mu.Unlock()
	for _, ch := range channels {
		ch.Close()
	}
}
