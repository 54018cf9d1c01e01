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
// the serving plumbing. The server asks for a Handler per connection
// (Server's newHandler), so a handler may keep per-connection state —
// the daemon its value scratch — and on an ordered connection (depth 1)
// is never called concurrently.
// Results may alias that state or shared caches: the server encodes each
// answer before it calls the connection's handler again. At a depth
// above 1 the handler is called from concurrent goroutines and must
// return results the calls do not share.
//
// tenant is the requester's in-band identity from a wide frame, zero
// (the default tenant) below Version3. A returned error becomes an error
// PDU, except that a *PartialError travels with the (partial) results it
// accompanies; see reqScratch.fail and answerFetch.
type Handler interface {
	Names() ([]NameEntry, error)
	Fetch(tenant uint32, pmids []uint32) (FetchResult, error)
	FetchAll(tenant uint32) (FetchResult, error)
	FetchBatch(tenant uint32, sets [][]uint32) ([]FetchResult, error)
}

// Server is the serving core shared by every tier that speaks the
// protocol's server side: the listener and its accept loop, the
// connection registry, the handshake, version negotiation, the lockstep
// and tagged serving loops, request decoding, response and error
// encoding, and shutdown. A tier supplies a Handler per connection and
// the in-flight depth of its tagged connections.
type Server struct {
	newHandler func() Handler
	depth      int

	ln        net.Listener
	wg        sync.WaitGroup
	closed    chan struct{}
	closeOnce sync.Once

	connMu sync.Mutex
	conns  map[net.Conn]struct{}
}

// NewServer builds a server that asks newHandler for a Handler per
// accepted connection. depth is how many requests of one tagged
// (Version2+) connection may be in their handler at once, fixed in code
// by the constructing tier: at 1 requests are answered in order by the
// connection's goroutine with write coalescing and fully reused scratch
// (the daemon and the proxy, whose handlers are CPU-bound and fast);
// above 1 each request runs in its own goroutine, up to depth of them,
// so one stalled handler does not head-of-line-block the connection
// (the cluster federator, whose handlers wait on downstream edges).
func NewServer(depth int, newHandler func() Handler) *Server {
	return &Server{
		newHandler: newHandler,
		depth:      depth,
		closed:     make(chan struct{}),
		conns:      make(map[net.Conn]struct{}),
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
// response to dst: the reply carries min(client max, server max). The
// returned version is 0 on a malformed request (the response is then a
// PDUError), Version1 and up otherwise. At Version2 the connection
// switches to tagged frames after the response is flushed; at Version3
// and above, to wide (tenant-carrying) frames.
func negotiateVersion(payload, dst []byte) (respType uint8, resp []byte, version uint32) {
	peerMax, err := DecodeVersion(payload)
	if err != nil {
		return PDUError, AppendError(dst, err.Error()), 0
	}
	v := MaxVersion
	if peerMax < v {
		v = peerMax
	}
	return PDUVersionResp, AppendVersion(dst, v), v
}

// reqScratch is the reusable state of one in-flight request: the frame
// payload, the decoded PMIDs or sets, and the encoded response. An
// ordered connection owns one for its lifetime and a concurrent one a
// fixed pool of them, so steady-state serving does not allocate. The
// server, not the handler, owns resp: every encoder below stores the
// grown buffer back.
type reqScratch struct {
	payload []byte
	pmids   []uint32
	sets    [][]uint32
	resp    []byte
}

// dispatch serves the request PDU held in sc.payload — decode, call the
// handler, encode the answer into sc.resp — and returns the response
// type. typed says the peer negotiated Version3 and understands
// PDUStatusError. It is the one request switch of every tier and every
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
	case PDUFetchReq:
		pmids, err := DecodeFetchReqInto(sc.payload, sc.pmids[:0])
		if err != nil {
			return sc.fail(err, typed)
		}
		sc.pmids = pmids
		res, err := h.Fetch(tenant, pmids)
		return sc.answerFetch(res, err, typed)
	case PDUFetchAllReq:
		res, err := h.FetchAll(tenant)
		return sc.answerFetch(res, err, typed)
	case PDUFetchBatchReq:
		sets, err := DecodeFetchBatchReqInto(sc.payload, sc.sets[:0])
		if err != nil {
			return sc.fail(err, typed)
		}
		sc.sets = sets
		results, err := h.FetchBatch(tenant, sets)
		var missing []string
		var cause string
		if err != nil {
			pe := (*PartialError)(nil)
			if !errors.As(err, &pe) {
				return sc.fail(err, typed)
			}
			// A partial batch rides in the batch response's own
			// missing/cause header instead of a separate PDU type.
			missing, cause = pe.Missing, pe.Cause
		}
		sc.resp = AppendFetchBatchResp(sc.resp[:0], results, missing, cause)
		return PDUFetchBatchResp
	default:
		return sc.fail(fmt.Errorf("unknown PDU type %d", typ), typed)
	}
}

// answerFetch encodes a fetch outcome: full results as a fetch response,
// partial results (a *PartialError) as PDUFetchPartialResp, hard
// failures as an error PDU.
func (sc *reqScratch) answerFetch(res FetchResult, err error, typed bool) uint8 {
	if err == nil {
		sc.resp = AppendFetchResp(sc.resp[:0], res)
		return PDUFetchResp
	}
	pe := (*PartialError)(nil)
	if !errors.As(err, &pe) {
		return sc.fail(err, typed)
	}
	sc.resp = AppendPartialResp(sc.resp[:0], res, pe.Missing, pe.Cause)
	return PDUFetchPartialResp
}

// fail encodes a serving error: a typed PDUStatusError for peers that
// negotiated Version3 (typed) when the error is a recognised overload, a
// plain PDUError otherwise — so Version1/Version2 clients see exactly
// the messages they always did.
func (sc *reqScratch) fail(err error, typed bool) uint8 {
	if typed && errors.Is(err, ErrOverload) {
		sc.resp = AppendStatusError(sc.resp[:0], StatusOverload, err.Error())
		return PDUStatusError
	}
	sc.resp = AppendError(sc.resp[:0], err.Error())
	return PDUError
}

// serveConn handles one client connection: handshake, then a lockstep
// request/response loop. A PDUVersionReq negotiating Version2 or higher
// hands the connection to a tagged loop; Version1 clients never send
// one and stay in lockstep.
func (s *Server) serveConn(conn net.Conn) {
	br := bufio.NewReader(conn)
	bw := bufio.NewWriter(conn)
	if err := serverHandshake(br, bw); err != nil {
		return
	}
	h := s.newHandler()
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
			respType = sc.dispatch(h, typ, 0, false)
		}
		if err := WritePDU(bw, respType, sc.resp); err != nil {
			return
		}
		if err := bw.Flush(); err != nil {
			return
		}
		if version >= Version2 {
			if s.depth > 1 {
				serveConcurrent(conn, br, h, version >= Version3, s.depth)
			} else {
				serveOrdered(conn, br, h, version >= Version3, &sc)
			}
			return
		}
	}
}

// serveFlushBytes caps how many coalesced response bytes the ordered
// loop holds before forcing a flush.
const serveFlushBytes = 64 << 10

// serveOrdered is the depth-1 tagged serving loop: frames in, frames
// out in request order (wide selects Version3 framing, with each
// request's tenant passed to the handler and echoed on the response),
// with writer-side coalescing — responses accumulate in a frameBatch and
// are flushed with one write when no further request is already
// buffered, so a pipelined burst of n requests costs one read wakeup and
// one write syscall instead of n of each.
func serveOrdered(conn net.Conn, br *bufio.Reader, h Handler, wide bool, sc *reqScratch) {
	batch := frameBatch{wide: wide}
	for {
		if batch.empty() || br.Buffered() > 0 {
			// More input already buffered (or nothing pending): read
			// before flushing, so a burst coalesces into one write.
		} else if err := batch.flush(conn); err != nil {
			return
		}
		typ, tag, tenant, payload, err := readFrameInto(br, wide, sc.payload)
		if err != nil {
			return
		}
		sc.payload = payload
		respType := sc.dispatch(h, typ, tenant, wide)
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
// completion: each request runs in its own goroutine, so a fetch whose
// handler is stalled on a hedging or dead downstream edge does not
// head-of-line-block the requests queued behind it. It pays where
// per-request latency is dominated by downstream round trips, not
// handler CPU. At most depth requests are in flight — each holds one of
// depth scratch slots, and with none free the reader blocks, which is
// exactly TCP backpressure. Responses go out through the same frame
// encoder as the ordered loop's, serialised by a write mutex, one write
// each. It returns once every handler has finished.
func serveConcurrent(conn net.Conn, br *bufio.Reader, h Handler, wide bool, depth int) {
	var (
		wmu sync.Mutex
		wg  sync.WaitGroup
	)
	batch := frameBatch{wide: wide}
	slots := make(chan *reqScratch, depth)
	for i := 0; i < depth; i++ {
		slots <- new(reqScratch)
	}
	defer wg.Wait()
	for {
		sc := <-slots
		typ, tag, tenant, payload, err := readFrameInto(br, wide, sc.payload)
		if err != nil {
			return
		}
		sc.payload = payload
		wg.Add(1)
		go func() {
			defer wg.Done()
			respType := sc.dispatch(h, typ, tenant, wide)
			wmu.Lock()
			err := batch.append(respType, tag, tenant, sc.resp)
			if err == nil {
				err = batch.flush(conn)
			}
			wmu.Unlock()
			if err != nil {
				conn.Close() // unblocks the reader; the loop exits on its error
			}
			slots <- sc
		}()
	}
}
