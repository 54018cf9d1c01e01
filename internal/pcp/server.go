package pcp

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// Handler is one tier's request logic behind a Server: the daemon, the
// proxy and the cluster federator each implement it and nothing else of
// the serving plumbing. One Handler serves every connection, called
// concurrently from all of them (and, above depth 1, from several
// requests of one), so it keeps no per-request state.
//
// Every fetch is a batch. Fetch answers sets, one result per set, into
// results: the server's per-request scratch, passed as the scratch's
// last request left it. It returns the answer — results grown to
// len(sets), or storage of its own — and the server keeps that slice in
// the scratch for the next request. A single fetch reaches the handler
// as the one-set batch. The server encodes each answer before the
// scratch serves another request, so an answer may alias the handler's
// immutable shared state, such as a cache entry.
//
// tenant is the requester's in-band identity from a tagged frame, zero
// (the default tenant) on a lockstep connection. A returned error
// becomes an error PDU, except that a *PartialError travels with the
// (partial) results it accompanies; see reqScratch.dispatch.
type Handler interface {
	Names() ([]NameEntry, error)
	Fetch(tenant uint32, sets [][]uint32, results []FetchResult) ([]FetchResult, error)
}

// Server is the serving core shared by every tier that speaks the
// protocol's server side: the listener and its accept loop, the
// connection registry, the handshake, version negotiation, the lockstep
// and tagged serving loops, request decoding, response and error
// encoding, and shutdown. A tier supplies its Handler and the in-flight
// depth of its tagged connections.
type Server struct {
	h     Handler
	depth int

	ln        net.Listener
	wg        sync.WaitGroup
	closed    chan struct{}
	closeOnce sync.Once

	connMu sync.Mutex
	conns  map[net.Conn]struct{}
}

// NewServer builds a server that serves every connection through h.
// depth is how many requests of one tagged (Version3) connection may be
// in their handler at once, fixed in code by the constructing tier: at
// 1 requests are answered in order by the connection's goroutine with
// write coalescing and fully reused scratch (the daemon and the proxy,
// whose handlers are CPU-bound and fast); above 1 requests run on up to
// depth worker goroutines that the connection keeps until it ends, so
// one stalled handler does not head-of-line-block the connection (the
// cluster federator, whose handlers wait on downstream edges).
func NewServer(depth int, h Handler) *Server {
	return &Server{
		h:      h,
		depth:  depth,
		closed: make(chan struct{}),
		conns:  make(map[net.Conn]struct{}),
	}
}

// Start listens on addr (e.g. "127.0.0.1:0") and serves clients in the
// background until Close. It returns the bound address.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("pcp: listen: %w", err)
	}
	return s.StartOn(ln), nil
}

// StartOn serves clients on an existing listener until Close. It is the
// injection point for wrapped listeners (fault injection, custom
// transports). It returns the listener's address.
func (s *Server) StartOn(ln net.Listener) string {
	s.ln = ln
	s.wg.Add(1)
	go s.acceptLoop()
	return ln.Addr().String()
}

// acceptBackoffMax caps the sleep between retries of a failing Accept.
const acceptBackoffMax = time.Second

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	var backoff time.Duration
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			// Transient accept errors (EMFILE, ECONNABORTED): back off
			// with a capped doubling sleep instead of spinning hot.
			if backoff == 0 {
				backoff = time.Millisecond
			} else if backoff *= 2; backoff > acceptBackoffMax {
				backoff = acceptBackoffMax
			}
			select {
			case <-s.closed:
				return
			case <-time.After(backoff):
			}
			continue
		}
		backoff = 0
		s.connMu.Lock()
		s.conns[conn] = struct{}{}
		s.connMu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer func() {
				conn.Close()
				s.connMu.Lock()
				delete(s.conns, conn)
				s.connMu.Unlock()
			}()
			s.serveConn(conn)
		}()
	}
}

// Close stops the listener, disconnects clients, and waits for the
// accept loop and every connection handler to finish. It is idempotent.
func (s *Server) Close() error {
	var err error
	s.closeOnce.Do(func() {
		close(s.closed)
		if s.ln != nil {
			err = s.ln.Close()
		}
		s.connMu.Lock()
		for conn := range s.conns {
			conn.Close()
		}
		s.connMu.Unlock()
		s.wg.Wait()
	})
	return err
}

// serverHandshake performs the server side of connection setup: the
// client sends Magic, the server echoes it. The magic is compared in
// place inside the bufio.Reader's buffer (Peek/Discard), so the
// handshake allocates nothing per connection.
func serverHandshake(br *bufio.Reader, bw *bufio.Writer) error {
	magic, err := br.Peek(len(Magic))
	if err != nil {
		return err
	}
	if string(magic) != Magic {
		return fmt.Errorf("%w: bad handshake %q", ErrProtocol, magic)
	}
	if _, err := br.Discard(len(Magic)); err != nil {
		return err
	}
	if _, err := bw.WriteString(Magic); err != nil {
		return err
	}
	return bw.Flush()
}

// negotiateVersion answers a PDUVersionReq payload, appending the
// response to dst: Version3 to a peer that offers 3 or more, Version1 to
// one that offers 1 or 2 (version 2, the retired 9-byte tagged framing,
// is answered with lockstep). The returned version is 0 on a malformed
// request (the response is then a PDUError). At Version3 the connection
// switches to tagged frames after the response is flushed; at Version1
// it stays in lockstep.
func negotiateVersion(payload, dst []byte) (respType uint8, resp []byte, version uint32) {
	peerMax, err := DecodeVersion(payload)
	if err != nil {
		return PDUError, AppendError(dst, err.Error()), 0
	}
	v := Version1
	if peerMax >= Version3 {
		v = Version3
	}
	return PDUVersionResp, AppendVersion(dst, v), v
}

// reqScratch is the reusable state of one in-flight request: the frame
// (header and payload), the decoded sets, the handler's results and the
// encoded response. An ordered connection owns one for its lifetime and
// a concurrent one a fixed pool of them, so steady-state serving does
// not allocate. The server, not the handler, owns results and resp:
// dispatch stores the grown storage back.
type reqScratch struct {
	typ     uint8
	tag     uint32
	tenant  uint32
	payload []byte
	sets    [][]uint32
	results []FetchResult
	resp    []byte
}

// dispatch serves the request PDU held in sc.payload — decode, call the
// handler, encode the answer into sc.resp — and returns the response
// type. typed says the connection is tagged (Version3), whose peer
// understands PDUStatusError. It is the one request switch of every tier and every
// serving loop.
func (sc *reqScratch) dispatch(h Handler, typ uint8, tenant uint32, typed bool) uint8 {
	switch typ {
	case PDUNamesReq:
		entries, err := h.Names()
		if err != nil {
			return sc.fail(err, typed)
		}
		sc.resp = AppendNamesResp(sc.resp[:0], entries)
		return PDUNamesResp
	case PDUFetchReq, PDUFetchBatchReq:
		var sets [][]uint32
		var err error
		if typ == PDUFetchReq {
			// A single fetch is the one-set batch, decoded into the
			// first set's storage.
			var set []uint32
			if cap(sc.sets) > 0 {
				set = sc.sets[:1][0][:0]
			}
			if set, err = DecodeFetchReqInto(sc.payload, set); err == nil {
				sets = append(sc.sets[:0], set)
			}
		} else {
			sets, err = DecodeFetchBatchReqInto(sc.payload, sc.sets[:0])
		}
		if err != nil {
			return sc.fail(err, typed)
		}
		sc.sets = sets
		results, err := h.Fetch(tenant, sets, sc.results)
		var missing []string
		var cause string
		if err != nil {
			pe := (*PartialError)(nil)
			if !errors.As(err, &pe) {
				return sc.fail(err, typed)
			}
			missing, cause = pe.Missing, pe.Cause
		}
		sc.results = results
		switch {
		case typ == PDUFetchBatchReq:
			// A partial batch rides in the batch response's own
			// missing/cause header instead of a separate PDU type.
			sc.resp = AppendFetchBatchResp(sc.resp[:0], results, missing, cause)
			return PDUFetchBatchResp
		case err != nil:
			sc.resp = AppendPartialResp(sc.resp[:0], results[0], missing, cause)
			return PDUFetchPartialResp
		}
		sc.resp = AppendFetchResp(sc.resp[:0], results[0])
		return PDUFetchResp
	default:
		return sc.fail(fmt.Errorf("unknown PDU type %d", typ), typed)
	}
}

// fail encodes a serving error: a typed PDUStatusError on a tagged
// connection (typed) when the error is a recognised overload, a plain
// PDUError otherwise — so Version1 clients see exactly the messages they
// always did.
func (sc *reqScratch) fail(err error, typed bool) uint8 {
	if typed && errors.Is(err, ErrOverload) {
		sc.resp = AppendStatusError(sc.resp[:0], StatusOverload, err.Error())
		return PDUStatusError
	}
	sc.resp = AppendError(sc.resp[:0], err.Error())
	return PDUError
}

// serveConn handles one client connection: handshake, then a lockstep
// request/response loop. A PDUVersionReq negotiating Version3 hands the
// connection to a tagged loop; every other connection stays in
// lockstep.
func (s *Server) serveConn(conn net.Conn) {
	br := bufio.NewReader(conn)
	bw := bufio.NewWriter(conn)
	if err := serverHandshake(br, bw); err != nil {
		return
	}
	var sc reqScratch
	for {
		typ, payload, err := ReadPDUInto(br, sc.payload)
		if err != nil {
			return
		}
		sc.payload = payload
		var respType uint8
		var version uint32
		if typ == PDUVersionReq {
			respType, sc.resp, version = negotiateVersion(payload, sc.resp[:0])
		} else {
			respType = sc.dispatch(s.h, typ, 0, false)
		}
		if err := WritePDU(bw, respType, sc.resp); err != nil {
			return
		}
		if err := bw.Flush(); err != nil {
			return
		}
		if version == Version3 {
			if s.depth > 1 {
				serveConcurrent(conn, br, s.h, s.depth)
			} else {
				serveOrdered(conn, br, s.h, &sc)
			}
			return
		}
	}
}

// serveFlushBytes caps how many coalesced response bytes the ordered
// loop holds before forcing a flush.
const serveFlushBytes = 64 << 10

// serveOrdered is the depth-1 tagged serving loop: frames in, frames
// out in request order (each request's tenant passed to the handler
// and echoed on the response), with writer-side coalescing — responses accumulate in a frameBatch and
// are flushed with one write when no further request is already
// buffered, so a pipelined burst of n requests costs one read wakeup and
// one write syscall instead of n of each.
func serveOrdered(conn net.Conn, br *bufio.Reader, h Handler, sc *reqScratch) {
	var batch frameBatch
	for {
		if batch.empty() || br.Buffered() > 0 {
			// More input already buffered (or nothing pending): read
			// before flushing, so a burst coalesces into one write.
		} else if err := batch.flush(conn); err != nil {
			return
		}
		typ, tag, tenant, payload, err := ReadWidePDUInto(br, sc.payload)
		if err != nil {
			return
		}
		sc.payload = payload
		respType := sc.dispatch(h, typ, tenant, true)
		if err := batch.append(respType, tag, tenant, sc.resp); err != nil {
			return
		}
		if len(batch.buf) >= serveFlushBytes {
			// Enough responses accumulated that holding more would just
			// grow the batch — writing applies backpressure to a peer that
			// streams requests without reading answers.
			if err := batch.flush(conn); err != nil {
				return
			}
		}
	}
}

// serveConcurrent is the tagged serving loop with true out-of-order
// completion: requests run on up to depth worker goroutines, so a fetch
// whose handler is stalled on a hedging or dead downstream edge does not
// head-of-line-block the requests queued behind it. It pays where
// per-request latency is dominated by downstream round trips, not
// handler CPU. A worker is started when no idle one takes a request and
// lives as long as the connection, so a request pays neither a goroutine
// start nor a fresh goroutine's stack growth. At most depth requests are
// in flight — each holds one of depth scratch slots, and with none free
// the reader blocks, which is exactly TCP backpressure. Responses go out
// through the same frame encoder as the ordered loop's, serialised by a
// write mutex, one write each. It returns once every worker has finished.
func serveConcurrent(conn net.Conn, br *bufio.Reader, h Handler, depth int) {
	var (
		wmu     sync.Mutex
		wg      sync.WaitGroup
		workers int
	)
	var batch frameBatch
	slots := make(chan *reqScratch, depth)
	for i := 0; i < depth; i++ {
		slots <- new(reqScratch)
	}
	work := make(chan *reqScratch)
	serve := func(sc *reqScratch) {
		defer wg.Done()
		for ; sc != nil; sc = <-work { // nil once the reader closes work
			respType := sc.dispatch(h, sc.typ, sc.tenant, true)
			wmu.Lock()
			err := batch.append(respType, sc.tag, sc.tenant, sc.resp)
			if err == nil {
				err = batch.flush(conn)
			}
			wmu.Unlock()
			if err != nil {
				conn.Close() // unblocks the reader; the loop exits on its error
			}
			slots <- sc
		}
	}
	defer wg.Wait()
	defer close(work)
	for {
		sc := <-slots
		var err error
		if sc.typ, sc.tag, sc.tenant, sc.payload, err = ReadWidePDUInto(br, sc.payload); err != nil {
			return
		}
		select {
		case work <- sc: // an idle worker takes it
		default:
			if workers < depth {
				workers++
				wg.Add(1)
				go serve(sc)
			} else {
				work <- sc // the reader holds a slot, so a worker is about to be idle
			}
		}
	}
}
