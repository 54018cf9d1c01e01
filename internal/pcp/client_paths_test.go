package pcp_test

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"papimc/internal/cluster"
	"papimc/internal/pcp"
	"papimc/internal/pmproxy"
	"papimc/internal/testutil"
)

// TestClientPathsAgree drives the client's one round-trip seam over all
// three wire versions — lockstep, tagged, wide — against the server
// replies that are not plain successes (TestVersionNegotiationMatrix
// covers those): an error PDU, an admission shed, and partial results
// from a federator with a node down. Values, error types and
// errors.Is/As classification must not depend on the transport, except
// where the protocol says so: a typed PDUStatusError only exists on
// Version3, so older wires carry the same rejection as a plain error.
func TestClientPathsAgree(t *testing.T) {
	_, daddr := testutil.StartSyntheticDaemon(t, 4)
	shedder := pmproxy.New(pmproxy.Config{
		Upstream:  daddr,
		Admission: pmproxy.AdmissionConfig{Policy: "reject-all"},
	})
	paddr, err := shedder.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { shedder.Close() })

	tr, err := cluster.Assemble(cluster.Config{Nodes: 4, FanOut: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	srv, caddr, err := cluster.Serve(tr.Root, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	tr.Clock.Advance(tr.Config.Interval + 1)
	tr.Node("node001").Kill()
	names, _ := tr.Root.Names()
	var spanning []uint32 // the first metric of every node
	for _, e := range names {
		if strings.HasSuffix(e.Name, ":cpu.cycles") {
			spanning = append(spanning, e.PMID)
		}
	}
	sets := [][]uint32{spanning, spanning[:1], spanning}

	// wantPartial checks that err is the partial error naming the dead node.
	wantPartial := func(t *testing.T, what string, err error) {
		t.Helper()
		var pe *pcp.PartialError
		if !errors.As(err, &pe) {
			t.Fatalf("%s: err = %v, want *pcp.PartialError", what, err)
		}
		if !reflect.DeepEqual(pe.Missing, []string{"node001"}) {
			t.Errorf("%s: missing = %v, want [node001]", what, pe.Missing)
		}
	}

	type partials struct {
		fetch, all pcp.FetchResult
		batch      []pcp.FetchResult
	}
	var first *partials
	for _, v := range []uint32{pcp.Version1, pcp.Version2, pcp.MaxVersion} {
		dial := func(addr string) *pcp.Client {
			c, err := pcp.DialMax(addr, v)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { c.Close() })
			if c.Version() != v {
				t.Fatalf("negotiated version %d, want %d", c.Version(), v)
			}
			return c
		}

		// A plain error PDU: the proxy does not serve FetchAll.
		pc := dial(paddr)
		_, err := pc.FetchAll()
		if err == nil || err.Error() != "pcp: daemon error: unknown PDU type 6" {
			t.Errorf("v%d: proxy FetchAll err = %v, want the unknown-PDU error", v, err)
		}
		if errors.Is(err, pcp.ErrOverload) || errors.Is(err, pcp.ErrProtocol) {
			t.Errorf("v%d: a plain error PDU classified as %v", v, err)
		}

		// An admission shed, single and batched.
		_, ferr := pc.Fetch([]uint32{1, 2})
		_, berr := pc.FetchBatch([][]uint32{{1}, {2, 3}})
		for what, err := range map[string]error{"Fetch": ferr, "FetchBatch": berr} {
			if err == nil || !strings.Contains(err.Error(), "policy reject-all") {
				t.Errorf("v%d: shed %s err = %v, want the policy's rejection", v, what, err)
			}
			var se *pcp.StatusError
			typed := errors.As(err, &se) && se.Status == pcp.StatusOverload
			if want := v >= pcp.Version3; typed != want || errors.Is(err, pcp.ErrOverload) != want {
				t.Errorf("v%d: shed %s err = %#v: typed overload = %v, want %v", v, what, err, typed, want)
			}
		}
		// The connection survives every error reply.
		if _, err := pc.Names(); err != nil {
			t.Errorf("v%d: Names after error replies: %v", v, err)
		}

		// Partial results from the federator: valid values AND the typed
		// error, the same on every wire.
		cc := dial(caddr)
		var got partials
		got.fetch, err = cc.Fetch(spanning)
		wantPartial(t, "Fetch", err)
		got.all, err = cc.FetchAll()
		wantPartial(t, "FetchAll", err)
		got.batch, err = cc.FetchBatch(sets)
		wantPartial(t, "FetchBatch", err)
		if len(got.fetch.Values) != 4 || got.fetch.Values[1].Status != pcp.StatusNodeDown ||
			got.fetch.Values[0].Status != pcp.StatusOK {
			t.Errorf("v%d: partial fetch values = %+v", v, got.fetch.Values)
		}
		if first == nil {
			first = &got
		} else if !reflect.DeepEqual(got, *first) {
			t.Errorf("v%d: partial results differ from Version1's:\ngot:  %+v\nwant: %+v", v, got, *first)
		}
	}
}
