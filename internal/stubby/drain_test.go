package stubby

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"rpcscale/internal/leakcheck"
)

// writeCountConn counts Write calls on the wrapped connection: with the
// small frames used here, one transport flush is exactly one Write.
type writeCountConn struct {
	net.Conn
	writes *atomic.Int64
}

func (c writeCountConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// writeCountListener wraps every accepted connection in a writeCountConn
// sharing one counter.
type writeCountListener struct {
	net.Listener
	writes *atomic.Int64
}

func (l writeCountListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return writeCountConn{c, l.writes}, nil
}

// TestDrainBatchesWrites pins the batching drains' write counts on one P,
// where a caller's enqueue readies the drain ahead of the other runnable
// callers: concurrent callers on one channel must share writes on both
// ends, and a lone caller must pay exactly one write per call on each end
// (no flush lost or doubled).
func TestDrainBatchesWrites(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, callers := range []int{1, 16} {
		t.Run(fmt.Sprintf("callers=%d", callers), func(t *testing.T) {
			leakcheck.Check(t)
			var cliWrites, srvWrites atomic.Int64
			opts := Options{Workers: 16}
			srv := NewServer(opts)
			srv.Register("svc/Echo", echoHandler)
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			go srv.Serve(writeCountListener{l, &srvWrites})
			t.Cleanup(srv.Close)
			conn, err := net.Dial("tcp", l.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			ch, err := NewChannel(writeCountConn{conn, &cliWrites}, "test-cluster", opts)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { ch.Close() })

			payload := bytes.Repeat([]byte{7}, 128)
			// Warm up so connection setup is not counted.
			if _, err := ch.Call(context.Background(), "svc/Echo", payload); err != nil {
				t.Fatal(err)
			}
			const perCaller = 200
			cli0, srv0 := cliWrites.Load(), srvWrites.Load()
			var wg sync.WaitGroup
			errs := make(chan error, callers)
			for i := 0; i < callers; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for j := 0; j < perCaller; j++ {
						if _, err := ch.Call(context.Background(), "svc/Echo", payload); err != nil {
							errs <- err
							return
						}
					}
				}()
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			calls := float64(callers * perCaller)
			cli := float64(cliWrites.Load()-cli0) / calls
			srvw := float64(srvWrites.Load()-srv0) / calls
			t.Logf("%d callers: %.3f client and %.3f server writes per call", callers, cli, srvw)
			if callers == 1 && (cli != 1 || srvw != 1) {
				t.Fatalf("lone caller: %.3f client and %.3f server writes per call, want exactly 1", cli, srvw)
			}
			if callers > 1 && (cli > 0.5 || srvw > 0.5) {
				t.Fatalf("%d callers: %.3f client and %.3f server writes per call, want <= 0.5", callers, cli, srvw)
			}
		})
	}
}
