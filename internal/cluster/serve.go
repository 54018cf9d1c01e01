package cluster

import (
	"net"

	"papimc/internal/pcp"
)

// Server is a running federator server: a pcp.Server whose handler
// scatter-gathers through a Federator, so a tree can span processes and
// machines — a parent federator dials it like any daemon, and partial
// results travel as PDUFetchPartialResp (or the batch response's missing
// header).
type Server = pcp.Server

// taggedConcurrency is the server's in-flight depth per tagged
// connection: requests run concurrently, so a fetch whose scatter is
// stalled on a hedging or dead edge does not head-of-line-block the
// requests queued behind it — at the federation tier per-request
// latency is dominated by downstream round trips, not handler CPU, so
// concurrency is where pipelining pays. The cap keeps a pipelined client
// from spawning unbounded handler goroutines.
const taggedConcurrency = 32

// Serve starts serving f on addr (e.g. "127.0.0.1:0") and returns the
// running server and its bound address.
func Serve(f *Federator, addr string) (*Server, string, error) {
	s := newServer(f)
	bound, err := s.Start(addr)
	if err != nil {
		return nil, "", err
	}
	return s, bound, nil
}

// ServeOn is Serve on an existing listener — the injection point for
// wrapped listeners, like StartOn on the daemon and the proxy.
func ServeOn(f *Federator, ln net.Listener) (*Server, string) {
	s := newServer(f)
	return s, s.StartOn(ln)
}

func newServer(f *Federator) *Server {
	h := fedHandler{f}
	return pcp.NewServer(taggedConcurrency, func() pcp.Handler { return h })
}

// fedHandler adapts a Federator to pcp.Handler. It is stateless — every
// answer is freshly allocated by the scatter-gather, which dwarfs the
// allocation cost — so one value serves all connections and their
// concurrent requests.
type fedHandler struct{ f *Federator }

func (h fedHandler) Names() ([]pcp.NameEntry, error) { return h.f.names, nil }

func (h fedHandler) Fetch(_ uint32, pmids []uint32) (pcp.FetchResult, error) {
	return h.f.Fetch(pmids)
}

func (h fedHandler) FetchAll(uint32) (pcp.FetchResult, error) { return h.f.FetchAll() }

func (h fedHandler) FetchBatch(_ uint32, sets [][]uint32) ([]pcp.FetchResult, error) {
	return h.f.FetchBatch(sets)
}
