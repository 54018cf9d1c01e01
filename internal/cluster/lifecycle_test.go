package cluster_test

import (
	"errors"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"papimc/internal/cluster"
	"papimc/internal/leakcheck"
	"papimc/internal/pcp"
	"papimc/internal/pmproxy"
	"papimc/internal/simtime"
)

// flakyListener fails every Accept with a temporary error while failing
// is set, counting calls, and otherwise delegates to the real listener.
type flakyListener struct {
	net.Listener
	failing atomic.Bool
	calls   atomic.Int64
}

var errAcceptTemporary = errors.New("accept: too many open files (injected)")

func (l *flakyListener) Accept() (net.Conn, error) {
	l.calls.Add(1)
	if l.failing.Load() {
		return nil, errAcceptTemporary
	}
	return l.Listener.Accept()
}

// gate makes one metric read block: armed, the next read signals entered
// and waits for release.
type gate struct {
	armed   atomic.Bool
	entered chan struct{}
	release chan struct{}
}

func (g *gate) read(simtime.Time) (uint64, error) {
	if g.armed.CompareAndSwap(true, false) {
		g.entered <- struct{}{}
		<-g.release
	}
	return 42, nil
}

// daemonSource adapts an in-process daemon to cluster.Source.
type daemonSource struct{ d *pcp.Daemon }

func (s daemonSource) Names() ([]pcp.NameEntry, error)               { return s.d.Names(), nil }
func (s daemonSource) Fetch(pmids []uint32) (pcp.FetchResult, error) { return s.d.Fetch(pmids), nil }

// lifecycleTier is one serving tier over a gated daemon: how to start
// it on a listener, how to close it, and how to make its next fetch
// stall inside the handler.
type lifecycleTier struct {
	startOn func(net.Listener) string
	close   func() error
	// stall arms the gate and forces the next fetch to resample.
	stall func()
	g     *gate
}

// newLifecycleTier builds the named tier. Every tier's handler ends in
// the same gated daemon: served directly, behind a proxy (over TCP), or
// as the one child of a federator.
func newLifecycleTier(t *testing.T, name string) lifecycleTier {
	t.Helper()
	g := &gate{entered: make(chan struct{}, 1), release: make(chan struct{})}
	clock := simtime.NewClock()
	d, err := pcp.NewDaemon(clock, testInterval, []pcp.Metric{{Name: "gated.metric", Read: g.read}})
	if err != nil {
		t.Fatal(err)
	}
	tier := lifecycleTier{g: g, stall: func() {
		clock.Advance(testInterval + 1)
		g.armed.Store(true)
	}}
	switch name {
	case "daemon":
		tier.startOn, tier.close = d.StartOn, d.Close
	case "proxy":
		daddr, err := d.Start("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		p := pmproxy.New(pmproxy.Config{Upstream: daddr, Clock: clock, Interval: testInterval})
		tier.startOn = p.StartOn
		tier.close = func() error {
			err := p.Close()
			d.Close()
			return err
		}
	case "cluster":
		f, err := cluster.NewFederator("root", []cluster.Child{{
			Name: "gated", Src: daemonSource{d}, Nodes: []string{"gated"}, Qualify: "gated",
		}}, pmproxy.EdgePolicy{})
		if err != nil {
			t.Fatal(err)
		}
		var srv *cluster.Server
		tier.startOn = func(ln net.Listener) string {
			var addr string
			srv, addr = cluster.ServeOn(f, ln)
			return addr
		}
		tier.close = func() error { return srv.Close() }
	}
	return tier
}

func listenLoopback(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return ln
}

// TestServerLifecycle runs the one serving core's lifecycle contract
// against every tier built on it: a failing Accept backs off instead of
// spinning and serving resumes once it heals; a started server idles on
// one goroutine at any GOMAXPROCS; Close is idempotent, drops
// idle connections of every wire version, and waits for a handler still
// in flight (on the cluster tier, a worker goroutine of the depth-32
// loop); a Version3 cluster connection keeps at most 32 workers, busy or
// idle, and Close ends them; and the process ends with the goroutines
// it started with.
func TestServerLifecycle(t *testing.T) {
	leakcheck.NoGoroutineLeak(t)
	for _, name := range []string{"daemon", "proxy", "cluster"} {
		t.Run(name+"/accept-backoff", func(t *testing.T) {
			tier := newLifecycleTier(t, name)
			ln := &flakyListener{Listener: listenLoopback(t)}
			ln.failing.Store(true)
			addr := tier.startOn(ln)
			defer tier.close()

			// The accept goroutine sleeps 1, 2, 4, ... ms (capped at 1 s)
			// between failures: 50 ms fits six calls, and sixteen would
			// take seconds of oversleep. A loop without back-off makes
			// millions.
			time.Sleep(50 * time.Millisecond)
			if calls := ln.calls.Load(); calls > 16 {
				t.Fatalf("%d Accept calls in 50ms of failures, want at most 16 (hot spin?)", calls)
			}
			ln.failing.Store(false)
			c, err := pcp.Dial(addr)
			if err != nil {
				t.Fatalf("dial after Accept healed: %v", err)
			}
			defer c.Close()
			if entries, err := c.Names(); err != nil || len(entries) != 1 {
				t.Fatalf("Names after Accept healed: %v, %v", entries, err)
			}
		})

		t.Run(name+"/one-accept-goroutine", func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
			for _, procs := range []int{1, 8} {
				runtime.GOMAXPROCS(procs)
				tier := newLifecycleTier(t, name)
				ln := listenLoopback(t)
				before := runtime.NumGoroutine()
				tier.startOn(ln)
				started := runtime.NumGoroutine() - before
				tier.close()
				if started != 1 {
					t.Errorf("GOMAXPROCS=%d: an idle started server runs %d goroutines, want 1 whatever the core count", procs, started)
				}
			}
		})

		t.Run(name+"/close-idle", func(t *testing.T) {
			tier := newLifecycleTier(t, name)
			addr := tier.startOn(listenLoopback(t))
			var clients []*pcp.Client
			for _, v := range []uint32{pcp.Version1, pcp.Version3} {
				c, err := pcp.DialMax(addr, v)
				if err != nil {
					t.Fatal(err)
				}
				defer c.Close()
				clients = append(clients, c)
			}
			if err := tier.close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			if err := tier.close(); err != nil {
				t.Fatalf("second Close: %v", err)
			}
			for _, c := range clients {
				if _, err := c.Names(); err == nil {
					t.Errorf("Version%d connection still served after Close", c.Version())
				}
			}
		})

		t.Run(name+"/close-waits-in-flight", func(t *testing.T) {
			tier := newLifecycleTier(t, name)
			addr := tier.startOn(listenLoopback(t))
			c, err := pcp.Dial(addr)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			tier.stall()
			fetched := make(chan struct{})
			go func() {
				c.Fetch([]uint32{1})
				close(fetched)
			}()
			<-tier.g.entered // the handler is now inside the metric read

			closed := make(chan error, 1)
			go func() { closed <- tier.close() }()
			select {
			case err := <-closed:
				t.Fatalf("Close returned (%v) with a handler still in flight", err)
			case <-time.After(50 * time.Millisecond):
			}
			close(tier.g.release)
			select {
			case err := <-closed:
				if err != nil {
					t.Fatalf("Close: %v", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("Close did not return after the in-flight handler finished")
			}
			<-fetched
		})
	}

	t.Run("cluster/idle-workers", func(t *testing.T) {
		tier := newLifecycleTier(t, "cluster")
		addr := tier.startOn(listenLoopback(t))
		c, err := pcp.DialMax(addr, pcp.Version3)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		// Twice the depth of fetches on one connection: the first blocks in
		// the gated read, the ones behind it wait for its sample, and the
		// rest queue for the 32 request slots.
		tier.stall()
		var fetches sync.WaitGroup
		for i := 0; i < 64; i++ {
			fetches.Add(1)
			go func() {
				defer fetches.Done()
				c.Fetch([]uint32{1})
			}()
		}
		<-tier.g.entered
		for deadline := time.Now().Add(5 * time.Second); handlerGoroutines() < 32 && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
		if n := handlerGoroutines(); n != 32 {
			t.Errorf("%d handler goroutines with 64 requests pending, want the depth, 32", n)
		}
		close(tier.g.release)
		fetches.Wait()
		if n := handlerGoroutines(); n == 0 || n > 32 {
			t.Errorf("an idle connection that served 64 requests holds %d handler goroutines, want 1 to 32", n)
		}
		if err := tier.close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		// A worker's wg.Done precedes its exit by a few instructions.
		for deadline := time.Now().Add(2 * time.Second); handlerGoroutines() > 0 && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
		if n := handlerGoroutines(); n != 0 {
			t.Errorf("%d handler goroutines survive Close", n)
		}
	})
}

// handlerGoroutines counts the worker goroutines of concurrent serving
// loops: goroutines running a function literal of pcp.serveConcurrent.
func handlerGoroutines() int {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	count := 0
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "pcp.serveConcurrent.func") {
			count++
		}
	}
	return count
}
