package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"rpcscale/internal/fleet"
	"rpcscale/internal/secure"
	"rpcscale/internal/stats"
)

// Payload kinds: random bytes do not compress, text-like bytes do.
const (
	kindRandom byte = 0
	kindText   byte = 1
)

// headerLen is the request prefix the benchmark writes: call ID (8
// bytes), response length (4), payload kind (1), padding (3). Every
// sampled size is at least 64 bytes, so the prefix always fits.
const headerLen = 16

// respSalt separates the offsets of a call's response from its request.
const respSalt = 0x5bd1e9955bd1e995

// payloads holds the seeded byte pools every request and response body
// is cut from. Client and server build identical pools from the seed,
// so each side can derive the exact bytes the other must send for a
// call ID without any per-call state.
type payloads struct {
	random, text []byte
}

// newPayloads builds pools able to serve bodies up to maxSize bytes.
func newPayloads(seed uint64, maxSize int) *payloads {
	size := 2*maxSize + 4096
	root := stats.NewRNG(seed).Child("perfbench-payloads")
	p := &payloads{random: make([]byte, size), text: make([]byte, 0, size+16)}
	rng := root.Child("random")
	for i := 0; i+8 <= size; i += 8 {
		binary.LittleEndian.PutUint64(p.random[i:], rng.Uint64())
	}

	// Text: words from a skewed vocabulary, so flate finds repeats the
	// way it would in logs or protobuf text fields.
	trng := root.Child("text")
	vocab := make([][]byte, 2048)
	for i := range vocab {
		w := make([]byte, 2+trng.Intn(8))
		for j := range w {
			w[j] = byte('a' + trng.Intn(26))
		}
		vocab[i] = w
	}
	for len(p.text) < size {
		u := trng.Float64()
		p.text = append(p.text, vocab[int(u*u*float64(len(vocab)))]...)
		switch trng.Intn(12) {
		case 0:
			p.text = append(p.text, '.', '\n')
		case 1:
			p.text = append(p.text, ',', ' ')
		default:
			p.text = append(p.text, ' ')
		}
	}
	p.text = p.text[:size]
	return p
}

// mix64 is the splitmix64 finalizer: a bijective scramble of a key.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// cut returns the n-byte body keyed by key from the pool of kind.
func (p *payloads) cut(kind byte, key uint64, n int) []byte {
	pool := p.random
	if kind == kindText {
		pool = p.text
	}
	off := int(mix64(key) % uint64(len(pool)-n+1))
	return pool[off : off+n]
}

// request writes call id's request of reqLen bytes into dst (reusing
// its capacity) and returns it.
func (p *payloads) request(dst []byte, id uint64, reqLen, respLen int, kind byte) []byte {
	if cap(dst) < reqLen {
		dst = make([]byte, reqLen)
	}
	dst = dst[:reqLen]
	binary.LittleEndian.PutUint64(dst[0:], id)
	binary.LittleEndian.PutUint32(dst[8:], uint32(respLen))
	dst[12] = kind
	dst[13], dst[14], dst[15] = 0, 0, 0
	copy(dst[headerLen:], p.cut(kind, id, reqLen-headerLen))
	return dst
}

var errBadRequest = errors.New("request does not match its call ID")

// parseRequest checks a request against the bytes its call ID derives
// and returns what the server needs to answer it.
func (p *payloads) parseRequest(req []byte) (id uint64, respLen int, kind byte, err error) {
	if len(req) < headerLen {
		return 0, 0, 0, fmt.Errorf("%w: %d bytes", errBadRequest, len(req))
	}
	id = binary.LittleEndian.Uint64(req)
	respLen = int(binary.LittleEndian.Uint32(req[8:]))
	kind = req[12]
	if kind > kindText || respLen > len(p.random)/2 || respLen < 1 ||
		!bytes.Equal(req[headerLen:], p.cut(kind, id, len(req)-headerLen)) {
		return 0, 0, 0, fmt.Errorf("%w: call %d", errBadRequest, id)
	}
	return id, respLen, kind, nil
}

// response returns the reply the server sends for a call. It is a view
// into the pool: handlers hand it to the stack without copying.
func (p *payloads) response(id uint64, respLen int, kind byte) []byte {
	return p.cut(kind, id^respSalt, respLen)
}

// checkResponse reports whether got is exactly call id's reply.
func (p *payloads) checkResponse(got []byte, id uint64, respLen int, kind byte) error {
	if len(got) != respLen {
		return fmt.Errorf("call %d: reply has %d bytes, want %d", id, len(got), respLen)
	}
	if !bytes.Equal(got, p.response(id, respLen, kind)) {
		return fmt.Errorf("call %d: reply bytes differ from the derived response", id)
	}
	return nil
}

// callSpec is one call the load generator issues.
type callSpec struct {
	Method string
	Req    int
	Resp   int
	Kind   byte
}

// catalogSeed fixes the fleet every workload draws from: which methods
// exist, their popularity, sizes and call graphs. Catalogs differ so
// much between seeds in their heaviest methods that fleet_mix's capacity
// moved 3x and fleet_study's spans per pass 1.6x from one seed to the
// next; --seed varies the traffic and samples drawn from this one fleet.
const catalogSeed = 1

// liveCatalog builds the method catalog the live workloads draw methods
// and sizes from.
func liveCatalog() *fleet.Catalog {
	return fleet.New(fleet.Config{Methods: 1000, Clusters: 36, Seed: catalogSeed})
}

// smallMax bounds unary_small's sealed frames so every one stays on the
// inline (non-bulk, non-codec-worker) path: the stack hands a frame to
// its codec workers when the sealed bytes exceed 4 KiB.
const smallMax = 4 << 10

// frameOverhead bounds what a unary frame adds to the method name and
// payload: the stack's envelope fields other than those two (at most
// 128 bytes) and the AEAD nonce and tag.
const frameOverhead = 128 + secure.Overhead

// smallFrame reports whether a call's request and response frames stay
// within smallMax. The response envelope carries no method name, so
// counting it on both sides is conservative.
func smallFrame(method string, req, resp int64) bool {
	return int64(len(method))+max(req, resp)+frameOverhead <= smallMax
}

// smallSpecs returns n unary_small calls: methods by popularity and
// sizes from each method's distributions, resampling any call whose
// frames would exceed smallMax. Payloads are random bytes.
func smallSpecs(cat *fleet.Catalog, seed uint64, n int) []callSpec {
	rng := stats.NewRNG(seed).Child("unary-small")
	out := make([]callSpec, n)
	for i := range out {
		m := cat.SampleMethod(rng)
		req, resp := m.SampleSizes(rng)
		for !smallFrame(m.Name, req, resp) {
			// Redraw the method too: some methods (networkdisk/Write)
			// never send a request this small.
			m = cat.SampleMethod(rng)
			req, resp = m.SampleSizes(rng)
		}
		out[i] = callSpec{Method: m.Name, Req: int(req), Resp: int(resp), Kind: kindRandom}
	}
	return out
}

// mixMax caps fleet_mix sizes: the catalog's tail is kept up to 4 MiB.
const mixMax = 4 << 20

// textMethod reports whether a method sends compressible payloads: a
// half of the catalog chosen by catalogSeed does. Like sizes, it is a
// property of the fleet, not of one run's traffic.
func textMethod(m *fleet.Method) bool {
	return mix64(catalogSeed^0x9e3779b97f4a7c15*uint64(m.Index+1))&1 == 1
}

// arrival is one open-loop call and the offset at which it is due.
type arrival struct {
	Due time.Duration
	callSpec
}

// schedule is a seeded Poisson arrival stream at a fixed offered rate:
// methods and request sizes come from fleet.Driver, response sizes from
// the method's own distribution.
type schedule struct {
	drv *fleet.Driver
	rng *stats.RNG
	due time.Duration
}

func newSchedule(cat *fleet.Catalog, seed uint64, label string, rate float64) *schedule {
	ds := stats.NewRNG(seed).Child("schedule-" + label)
	return &schedule{
		drv: fleet.NewDriver(cat, fleet.DriveConfig{
			BaseRate: rate, MaxPayload: mixMax, Seed: ds.Uint64(),
		}),
		rng: ds.Child("resp"),
	}
}

// next returns the next arrival.
func (s *schedule) next() arrival {
	m, req, gap := s.drv.Next()
	s.due += gap
	_, resp := m.SampleSizes(s.rng)
	if resp > mixMax {
		resp = mixMax
	}
	kind := kindRandom
	if textMethod(m) {
		kind = kindText
	}
	return arrival{Due: s.due, callSpec: callSpec{Method: m.Name, Req: req, Resp: int(resp), Kind: kind}}
}
