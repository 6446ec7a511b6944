// Package sanitize compiles runtime assertion shims into the data plane
// under the `sanitize` build tag: a lock-rank checker that panics the
// moment two instrumented locks are acquired against the documented
// order (turning a once-in-a-million deadlock into a deterministic test
// failure), alongside the pool poisoning wire installs in GetBuf/PutBuf.
// Without the tag Enabled is a false constant and every entry point is
// an empty function, so instrumented call sites compile to nothing in
// normal builds. Guard each call with `if sanitize.Enabled { ... }`.
//
// The checker enforces the same order the static lockorder analyzer
// derives (see DESIGN.md §15): within one goroutine, instrumented locks
// must be acquired in strictly increasing rank. The ranks below leave
// gaps so new classes can slot in without renumbering.
package sanitize

// Lock ranks for the instrumented classes, innermost last. A goroutine
// holding a lock of rank r may only acquire locks of rank > r; equal
// ranks mark classes that must never nest (two instances of one class,
// or sibling locks owned by different goroutines).
const (
	RankStreamSend    = 10 // stubby.Stream.sendMu: serializes Send/CloseSend
	RankStreamRecv    = 20 // stubby.Stream.recvMu: inbound queue and terminal state
	RankTransportSend = 30 // stubby.transport.sendMu: frame batching and flush
	RankTransportRecv = 35 // stubby.transport.recvMu: shared frame reader
	RankBufPool       = 90 // wire size-class pool mutexes: leaf, no calls out
)
