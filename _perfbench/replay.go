package main

import (
	"fmt"
	"time"

	"rpcscale/internal/codec"
	"rpcscale/internal/compressor"
	"rpcscale/internal/secure"
)

// The replays below call each layer's public functions directly, on the
// sizes the workload sampled, and time them from the benchmark's own
// code. They run after the measured window of a traced pass.

// replayBudget bounds the bytes the secure and codec replays push
// through their layer; compressible inline bodies are small, so the
// compressor replay takes all of them.
const replayBudget = 8 << 20

// envelopeDesc is shaped like the stack's request envelope: method,
// trace and span IDs, deadline, payload, compressed flag and call
// sequence.
var envelopeDesc = codec.MustDescriptor("perfbench.Envelope",
	codec.Field{Number: 1, Name: "method", Type: codec.TypeString},
	codec.Field{Number: 2, Name: "trace_id", Type: codec.TypeUint64},
	codec.Field{Number: 3, Name: "span_id", Type: codec.TypeUint64},
	codec.Field{Number: 4, Name: "parent_span_id", Type: codec.TypeUint64},
	codec.Field{Number: 5, Name: "deadline_ns", Type: codec.TypeUint64},
	codec.Field{Number: 6, Name: "payload", Type: codec.TypeBytes},
	codec.Field{Number: 7, Name: "compressed", Type: codec.TypeBool},
	codec.Field{Number: 9, Name: "call_seq", Type: codec.TypeUint64},
)

// replaySpecs returns a prefix of specs whose request bytes fit the
// replay budget (at least one spec).
func replaySpecs(specs []callSpec) []callSpec {
	total := 0
	for i, c := range specs {
		total += c.Req
		if total > replayBudget && i > 0 {
			return specs[:i]
		}
	}
	return specs
}

// replayLayers times secure, codec and compressor on the workload's
// request sizes and payload kinds.
func replayLayers(rc *runCtx, pays *payloads, all []callSpec) error {
	specs := replaySpecs(all)
	start := time.Now()
	defer func() {
		rc.rec.add("replay.layers", start, time.Now(), 0, 0)
	}()

	// secure: seal then open every request body.
	sess, err := secure.NewSession(secure.DeriveKey([]byte("perfbench"), "replay"), nil)
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	sealed := make([][]byte, len(specs))
	var plain int
	t0 := time.Now()
	for i, c := range specs {
		sealed[i] = sess.SealAppend(nil, pays.cut(c.Kind, uint64(i), c.Req))
		plain += c.Req
	}
	sealT := time.Since(t0)
	var buf []byte
	t0 = time.Now()
	for i := range sealed {
		if buf, err = sess.OpenAppend(buf[:0], sealed[i]); err != nil {
			return fmt.Errorf("replay: open: %w", err)
		}
	}
	openT := time.Since(t0)
	rc.layer("secure.seal_MBps", float64(plain)/sealT.Seconds()/1e6, "MB/s")
	rc.layer("secure.open_MBps", float64(plain)/openT.Seconds()/1e6, "MB/s")

	// codec: marshal and unmarshal an envelope per call.
	msgs := make([]*codec.Message, len(specs))
	for i, c := range specs {
		msgs[i] = codec.NewMessage(envelopeDesc).
			Set(1, c.Method).Set(2, uint64(i)+1).Set(3, uint64(i)+2).Set(4, uint64(0)).
			Set(5, uint64(time.Second)).Set(6, pays.cut(c.Kind, uint64(i), c.Req)).
			Set(7, false).Set(9, uint64(i))
	}
	wire := make([][]byte, len(msgs))
	t0 = time.Now()
	for i, m := range msgs {
		if wire[i], err = codec.Marshal(m); err != nil {
			return fmt.Errorf("replay: marshal: %w", err)
		}
	}
	marshalT := time.Since(t0)
	t0 = time.Now()
	for _, b := range wire {
		if _, err := codec.Unmarshal(envelopeDesc, b); err != nil {
			return fmt.Errorf("replay: unmarshal: %w", err)
		}
	}
	unmarshalT := time.Since(t0)
	rc.layer("codec.marshal_ns", float64(marshalT.Nanoseconds())/float64(len(msgs)), "ns")
	rc.layer("codec.unmarshal_ns", float64(unmarshalT.Nanoseconds())/float64(len(msgs)), "ns")

	// compressor: text bodies of the sizes the stack would compress
	// (inline lane, at or above the default 512-byte threshold). A
	// workload whose own payloads do not compress replays text bodies
	// of its sizes, so the layer is measured on every workload's mix.
	var texts [][]byte
	for i, c := range all {
		if c.Req >= 512 && c.Req < bulkThreshold {
			texts = append(texts, pays.cut(kindText, uint64(i), c.Req))
		}
	}
	if len(texts) == 0 {
		return nil
	}
	comp := compressor.New(compressor.Flate, nil)
	packed := make([][]byte, len(texts))
	var in, out int
	t0 = time.Now()
	for i, t := range texts {
		if packed[i], err = comp.Compress(t); err != nil {
			return fmt.Errorf("replay: %w", err)
		}
		in += len(t)
	}
	compT := time.Since(t0)
	t0 = time.Now()
	for _, p := range packed {
		d, err := comp.Decompress(p)
		if err != nil {
			return fmt.Errorf("replay: %w", err)
		}
		out += len(d)
	}
	decompT := time.Since(t0)
	if out != in {
		return fmt.Errorf("replay: decompressed %d bytes, compressed %d", out, in)
	}
	rc.layer("compressor.compress_MBps", float64(in)/compT.Seconds()/1e6, "MB/s")
	rc.layer("compressor.decompress_MBps", float64(out)/decompT.Seconds()/1e6, "MB/s")
	return nil
}
