package stubby

import (
	"fmt"
	"net"
	"sync"

	"rpcscale/internal/sanitize"
	"rpcscale/internal/secure"
	"rpcscale/internal/wire"
)

// transport wraps a net.Conn with framing and per-direction AES-GCM
// encryption. Frame headers (type, stream ID, length) are in the clear —
// as in TLS record framing — while every payload is encrypted.
//
// Key establishment uses a pre-shared secret configured on both ends
// (Options.Secret): each direction derives its own session key. A real
// deployment would run a handshake (ALTS/TLS); the cryptographic work per
// message, which is what the cycle tax measures, is identical.
//
// The send side is a batching drain: frames are sealed directly into the
// wire.Writer's buffer under sendMu and flushed with one Write. Batching
// callers (the client sendLoop and server writeLoop) hold the lock across
// several appendLocked calls and a single flushLocked; one-shot callers
// use send.
//
// Bulk-lane chunk frames take the scatter-gather path instead: the chunk
// is sealed straight from the caller's buffer into a pooled buffer —
// exactly one cipher pass over the payload — and queued by reference on
// the wire.Writer, whose Flush hands the kernel a writev iovec list. The
// pooled chunk buffers come back through the writer's flush hook.
type transport struct {
	conn net.Conn

	sendMu  sync.Mutex
	sendKey *secure.Session
	writer  *wire.Writer
	// aad is scratch for the chunk flags byte sealed as additional
	// authenticated data; sendMu serializes access.
	aad [1]byte

	recvMu  sync.Mutex
	recvKey *secure.Session
	reader  *wire.Reader
}

// Chunk flags: the single clear-text byte leading every FrameStreamChunk
// payload, authenticated as AAD so it cannot be flipped in flight.
const (
	// chunkEndMsg marks the final chunk of one application message.
	chunkEndMsg = 0x01
	// chunkEndStream marks the sender's half-close: no further chunks
	// follow in this direction.
	chunkEndStream = 0x02
	// chunkStatus marks a chunk whose plaintext is a response envelope
	// carrying the stream's final status rather than application data.
	chunkStatus = 0x04
)

// bulkChunkSize is the chunking granularity of the bulk lane. 64 KiB
// amortizes per-chunk seal and frame overhead to well under 1% while
// keeping per-chunk pool buffers within the pool's size classes.
const bulkChunkSize = 64 << 10

// newTransport builds a transport over conn. dirSend/dirRecv label the key
// derivation directions and must be mirrored on the peer.
func newTransport(conn net.Conn, psk []byte, dirSend, dirRecv string, stats *secure.Stats) (*transport, error) {
	sendSess, err := secure.NewSession(secure.DeriveKey(psk, dirSend), stats)
	if err != nil {
		return nil, fmt.Errorf("stubby: send session: %w", err)
	}
	recvSess, err := secure.NewSession(secure.DeriveKey(psk, dirRecv), stats)
	if err != nil {
		return nil, fmt.Errorf("stubby: recv session: %w", err)
	}
	w := wire.NewWriter(conn)
	// Chunk buffers queued by reference are released once the kernel has
	// consumed them (per the DESIGN.md §11 ownership contract, the writer
	// holds them between append and flush).
	w.SetFlushHook(func(segs [][]byte) {
		for _, s := range segs {
			wire.PutBuf(s)
		}
	})
	return &transport{
		conn:    conn,
		sendKey: sendSess,
		writer:  w,
		recvKey: recvSess,
		reader:  wire.NewReader(conn),
	}, nil
}

// lockSend acquires the send lock for a batching sequence of appendLocked
// calls ending in flushLocked; unlockSend releases it. Under the sanitize
// tag they also track the lock's rank for inversion checking.
func (t *transport) lockSend() {
	t.sendMu.Lock()
	if sanitize.Enabled {
		sanitize.LockAcquired(sanitize.RankTransportSend, "stubby.transport.sendMu")
	}
}

func (t *transport) unlockSend() {
	if sanitize.Enabled {
		sanitize.LockReleased(sanitize.RankTransportSend)
	}
	t.sendMu.Unlock()
}

// appendLocked seals payload directly into the write buffer as one frame,
// without flushing. Caller must hold the send lock.
func (t *transport) appendLocked(frameType byte, streamID uint64, payload []byte) error {
	buf, err := t.writer.BeginFrame(frameType, streamID, len(payload)+secure.Overhead)
	if err != nil {
		return err
	}
	buf = t.sendKey.SealAppend(buf, payload)
	return t.writer.EndFrame(buf)
}

// appendChunkLocked seals one bulk-lane chunk and queues it by reference:
// flags travel in the clear as the first payload byte, authenticated as
// AAD; data is ciphered straight from the caller's buffer into a pooled
// buffer that the writer returns to the pool after its flush. Caller must
// hold the send lock and must not modify data until flushLocked returns.
func (t *transport) appendChunkLocked(streamID uint64, flags byte, data []byte) error {
	buf := wire.GetBuf(1 + len(data) + secure.Overhead)
	buf = append(buf, flags)
	t.aad[0] = flags
	buf = t.sendKey.SealAppendAAD(buf, data, t.aad[:])
	if err := t.writer.AppendFrameVec(wire.FrameStreamChunk, streamID, buf); err != nil {
		wire.PutBuf(buf)
		return err
	}
	return nil
}

// appendChunkedLocked splits data into bulk chunks and queues them all,
// marking the last with endFlags in addition to chunkEndMsg. Caller must
// hold the send lock. An empty data still produces one (empty) chunk so
// the message boundary reaches the peer.
func (t *transport) appendChunkedLocked(streamID uint64, data []byte, endFlags byte) error {
	for off := 0; ; {
		end := off + bulkChunkSize
		var flags byte
		if end >= len(data) {
			end = len(data)
			flags = chunkEndMsg | endFlags
		}
		if err := t.appendChunkLocked(streamID, flags, data[off:end]); err != nil {
			return err
		}
		if end == len(data) {
			return nil
		}
		off = end
	}
}

// flushLocked writes every appended frame with a single (possibly
// vectored) write. Caller must hold the send lock: sendMu exists to
// serialize frame writes on the shared conn, and holding it across the
// flush is the point.
func (t *transport) flushLocked() error {
	return t.writer.Flush()
}

// send encrypts payload and writes one frame with a single Write. Safe
// for concurrent use.
func (t *transport) send(frameType byte, streamID uint64, payload []byte) error {
	t.lockSend()
	defer t.unlockSend()
	if err := t.appendLocked(frameType, streamID, payload); err != nil {
		return err
	}
	return t.flushLocked()
}

// sendChunks seals data as one stream message (one or more chunk frames,
// the last carrying chunkEndMsg|endFlags) and flushes with one vectored
// write. Safe for concurrent use.
func (t *transport) sendChunks(streamID uint64, data []byte, endFlags byte) error {
	t.lockSend()
	defer t.unlockSend()
	if err := t.appendChunkedLocked(streamID, data, endFlags); err != nil {
		return err
	}
	return t.flushLocked()
}

// sendHalfClose emits the bare end-of-direction marker (no message).
func (t *transport) sendHalfClose(streamID uint64) error {
	t.lockSend()
	defer t.unlockSend()
	if err := t.appendChunkLocked(streamID, chunkEndStream, nil); err != nil {
		return err
	}
	return t.flushLocked()
}

// sendReset aborts a stream in both directions: the payload is the sealed
// error code followed by the message text.
func (t *transport) sendReset(streamID uint64, st *Status) error {
	buf := wire.GetBuf(len(st.Message) + 16)
	buf = wire.AppendUvarint(buf, uint64(st.Code))
	buf = append(buf, st.Message...)
	err := t.send(wire.FrameReset, streamID, buf)
	wire.PutBuf(buf)
	return err
}

// recvMsg is one decoded inbound frame: the frame metadata plus the
// decrypted payload in a pooled buffer whose ownership transfers to the
// caller (release with wire.PutBuf; see DESIGN.md §11). For chunk frames,
// flags holds the authenticated clear-text flags byte.
type recvMsg struct {
	typ      byte
	streamID uint64
	flags    byte
	//rpclint:owns decrypted payload; the recv caller releases it with
	// wire.PutBuf or hands it onward (DESIGN.md §11).
	plain []byte
}

// recv reads and decrypts the next frame. Only one goroutine may call
// recv.
func (t *transport) recv() (recvMsg, error) {
	t.recvMu.Lock()
	defer t.recvMu.Unlock()
	if sanitize.Enabled {
		sanitize.LockAcquired(sanitize.RankTransportRecv, "stubby.transport.recvMu")
		defer sanitize.LockReleased(sanitize.RankTransportRecv)
	}
	//rpclint:ignore lockheld recvMu serializes reads of the shared frame reader; holding it across the read is the point
	f, err := t.reader.ReadFrame()
	if err != nil {
		return recvMsg{}, err
	}
	m := recvMsg{typ: f.Type, streamID: f.StreamID}
	sealed := f.Payload
	var aad []byte
	if f.Type == wire.FrameStreamChunk {
		if len(sealed) < 1 {
			return recvMsg{}, secure.ErrDecrypt
		}
		m.flags = sealed[0]
		aad, sealed = f.Payload[:1], sealed[1:]
	}
	// Size the buffer for the plaintext, not the sealed bytes: a payload
	// that exactly fills a size class (a 16 KiB bulk chunk) would
	// otherwise take a buffer from the class twice its size. A frame
	// shorter than the overhead fails to open below.
	buf := wire.GetBuf(len(sealed) - secure.Overhead)
	plain, err := t.recvKey.OpenAppendAAD(buf, sealed, aad)
	if err != nil {
		wire.PutBuf(buf)
		return recvMsg{}, err
	}
	m.plain = plain
	return m, nil
}

// close tears down the underlying connection.
func (t *transport) close() error { return t.conn.Close() }
