package stubby

// Data-plane floors (DESIGN.md §16): allocation budgets for the inline
// unary path and the bulk download path, and the striped shutdown drain.
// The alloc tests are race-gated like TestCallAllocBudget — instrumented
// builds change allocation counts.

import (
	"bytes"
	"context"
	"testing"

	"rpcscale/internal/testutil"
)

// TestUnaryInlineAllocFloor pins the unary path, sealed and opened
// inline on the connection loops: a 128 B echo stays at or under 15
// allocs per call end to end, the floor BenchmarkStubbyUnary reports.
func TestUnaryInlineAllocFloor(t *testing.T) {
	if testutil.Instrumented {
		t.Skip("allocation counts differ under instrumented builds")
	}
	// The per-benchmark floor is 15 allocs/op; AllocsPerRun additionally
	// observes server-side worker wakeups that the bench loop amortizes,
	// so the test budget carries a small fixed headroom over the floor.
	const budget = 22.0
	ch, _ := testSetup(t, Options{Workers: 2},
		map[string]Handler{"svc/Echo": echoHandler})
	payload := bytes.Repeat([]byte{0x42}, 128)
	ctx := context.Background()
	for i := 0; i < 50; i++ {
		if _, err := ch.Call(ctx, "svc/Echo", payload); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(300, func() {
		out, err := ch.Call(ctx, "svc/Echo", payload)
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != len(payload) {
			t.Fatalf("echo length %d, want %d", len(out), len(payload))
		}
	})
	if allocs > budget {
		t.Errorf("inline unary 128B: %.1f allocs/op, budget %.0f", allocs, budget)
	}
}

// TestBulkDownloadAllocFloor pins the bulk download path: a 64 KiB
// response rides the bulk lane as one chunk frame, sealed in the server's
// writeLoop and opened in the client's readLoop, and the response buffer
// is recycled with FreeResponse. It measures 15 allocs per call, the
// unary floor; the budget carries the same headroom as the unary test's.
func TestBulkDownloadAllocFloor(t *testing.T) {
	if testutil.Instrumented {
		t.Skip("allocation counts differ under instrumented builds")
	}
	const budget = 22.0
	blob := make([]byte, 64<<10)
	ch, _ := testSetup(t, Options{Workers: 2},
		map[string]Handler{"svc/Get": func(ctx context.Context, p []byte) ([]byte, error) {
			return blob, nil
		}})
	ctx := context.Background()
	req := make([]byte, 16)
	for i := 0; i < 50; i++ {
		out, err := ch.Call(ctx, "svc/Get", req)
		if err != nil {
			t.Fatal(err)
		}
		FreeResponse(out)
	}
	allocs := testing.AllocsPerRun(300, func() {
		out, err := ch.Call(ctx, "svc/Get", req)
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != len(blob) {
			t.Fatalf("got %d bytes, want %d", len(out), len(blob))
		}
		FreeResponse(out)
	})
	if allocs > budget {
		t.Errorf("bulk 64KiB download: %.1f allocs/op, budget %.0f", allocs, budget)
	}
}

// TestStripedShutdownDrains proves Channel.Close stops every goroutine a
// striped channel started — the send and read loops of each stripe on
// both ends — with no goroutine left behind. leakcheck (registered by
// testSetup) fails the test if anything outlives Close.
func TestStripedShutdownDrains(t *testing.T) {
	blob := make([]byte, 128<<10)
	ch, srv := testSetup(t, Options{Workers: 2, ConnStripes: 2},
		map[string]Handler{
			"svc/Echo": echoHandler,
			"svc/Get": func(ctx context.Context, p []byte) ([]byte, error) {
				return blob, nil
			},
		})
	ctx := context.Background()
	// Engage every lane: unary on stripe 0, multi-chunk bulk across stripes.
	for i := 0; i < 8; i++ {
		if _, err := ch.Call(ctx, "svc/Echo", []byte("ping")); err != nil {
			t.Fatal(err)
		}
		out, err := ch.Call(ctx, "svc/Get", nil)
		if err != nil {
			t.Fatal(err)
		}
		FreeResponse(out)
	}
	// Close explicitly (the cleanup's Close becomes a no-op) and verify
	// post-close calls fail fast with a coded status instead of hanging.
	if err := ch.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := ch.Call(ctx, "svc/Echo", []byte("late")); Code(err) != ErrUnavailable.Code {
		t.Fatalf("post-close call: err = %v, want %v", err, ErrUnavailable)
	}
	srv.Close()
	// leakcheck's cleanup now snapshots goroutines: the loops of every
	// stripe on both ends must have exited.
}
