package cluster_test

// Tests of the served federator, in an external test package so they
// can use internal/testutil (which imports cluster).

import (
	"errors"
	"reflect"
	"sync"
	"testing"

	"papimc/internal/cluster"
	"papimc/internal/pcp"
	"papimc/internal/simtime"
	"papimc/internal/testutil"
)

const testInterval = 10 * simtime.Millisecond

func TestServedFederatorClientParity(t *testing.T) {
	testutil.NoGoroutineLeak(t)
	tr, err := cluster.Assemble(cluster.Config{Nodes: 4, FanOut: 2, Seed: 3, Interval: testInterval})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	srv, addr, err := cluster.Serve(tr.Root, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := pcp.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	tr.Clock.Advance(testInterval + 1)
	remote, err := c.FetchAll()
	if err != nil {
		t.Fatal(err)
	}
	local, err := tr.Root.FetchAll()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(remote, local) {
		t.Errorf("served FetchAll differs from in-process: %+v vs %+v", remote, local)
	}
	rn, err := c.Names()
	if err != nil {
		t.Fatal(err)
	}
	ln, _ := tr.Root.Names()
	if !reflect.DeepEqual(rn, ln) {
		t.Error("served Names differs from in-process")
	}
}

// TestServedFederatorBatchParity: the batch PDU through the served
// federator's tagged, out-of-order connection handler answers exactly
// like the in-process federator — including partial outcomes — and
// stays correct when many client goroutines share one pipelined
// connection.
func TestServedFederatorBatchParity(t *testing.T) {
	testutil.NoGoroutineLeak(t)
	tr, err := cluster.Assemble(cluster.Config{Nodes: 4, FanOut: 2, Seed: 3, Interval: testInterval})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	srv, addr, err := cluster.Serve(tr.Root, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := pcp.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Version() < pcp.Version2 {
		t.Fatalf("served federator negotiated version %d, want tagged", c.Version())
	}

	tr.Clock.Advance(testInterval + 1)
	names, _ := tr.Root.Names()
	pmidOn := func(node string) uint32 {
		for _, e := range names {
			if len(e.Name) > len(node) && e.Name[:len(node)] == node && e.Name[len(node)] == ':' {
				return e.PMID
			}
		}
		t.Fatalf("no metric qualified by %s", node)
		return 0
	}
	// Sets span both subtrees so the later kill degrades the batch to
	// partial instead of failing a whole scatter edge hard.
	sets := [][]uint32{
		{pmidOn("node000"), pmidOn("node002")},
		{pmidOn("node003")},
		{pmidOn("node001")},
	}
	local, err := tr.Root.FetchBatch(sets)
	if err != nil {
		t.Fatal(err)
	}
	remote, err := c.FetchBatch(sets)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(remote, local) {
		t.Errorf("served batch differs from in-process:\nremote: %+v\nlocal:  %+v", remote, local)
	}

	// Concurrent pipelined clients against the per-request-goroutine
	// server loop: every answer stays internally consistent.
	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				out, err := c.FetchBatch(sets)
				if err != nil {
					errCh <- err
					return
				}
				if !reflect.DeepEqual(out, local) {
					errCh <- errors.New("concurrent batch answer diverged")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}

	// A killed node's absence arrives as the batch response's own
	// missing header, decoded back into one *pcp.PartialError.
	tr.Node("node000").Kill()
	tr.Clock.Advance(testInterval + 1)
	_, err = c.FetchBatch(sets)
	var pe *pcp.PartialError
	if !errors.As(err, &pe) {
		t.Fatalf("expected partial error through the batch PDU, got %v", err)
	}
	if !reflect.DeepEqual(pe.Missing, []string{"node000"}) {
		t.Errorf("missing = %v, want [node000]", pe.Missing)
	}
}
