package pcp

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Client is an unprivileged connection to a PMCD daemon. It is safe for
// concurrent use.
//
// Every request method is written once over a single round-trip seam
// (roundTrip) with two transports behind it. Against a Version2 or
// Version3 peer (negotiated at connection setup) the transport is the
// pipeline: many requests stay outstanding on the one connection, a
// writer goroutine coalesces them into tagged (or wide) frames,
// and a demux reader completes them out of order, each under its own
// per-request deadline. Against a Version1 peer — or when pinned with
// DialMax(addr, Version1) — the transport is lockstep: requests are
// serialized on the connection, one plain frame out and one back,
// exactly as before the version bump.
type Client struct {
	mu      sync.Mutex    // guards timeout and names
	timeout time.Duration // per-round-trip wall deadline; 0 = none
	names   map[string]uint32

	version uint32        // negotiated wire version (read-only after setup)
	tr      transport     // lockstep below Version2, pipeline from there up
	tenant  atomic.Uint32 // stamped on outgoing wide frames (Version3)
}

// transport carries one request to the server and its reply back:
// call.typ and call.req go out, call.respTyp and call.resp come in, under
// the wall deadline d (0 = none). After an error the call must not be
// pooled again.
type transport interface {
	roundTrip(call *pcall, d time.Duration) error
	close() error
}

// lockstep is the Version1 transport: one request on the wire at a time
// — one WritePDU and flush, one ReadPDUInto — under a connection-level
// deadline. A timed-out round trip leaves the stream mid-PDU.
type lockstep struct {
	mu    sync.Mutex // serializes round trips
	conn  net.Conn
	br    *bufio.Reader
	bw    *bufio.Writer
	armed bool // whether a conn deadline is set
}

// roundTrip manages the connection deadline edge-triggered: armed (one
// SetDeadline) per round trip while a timeout is configured, disarmed
// (one SetDeadline) only on the first round trip after the timeout is
// cleared, and never touched when no timeout has been set — zero
// deadline syscalls on the common path.
func (l *lockstep) roundTrip(call *pcall, d time.Duration) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if d > 0 {
		l.conn.SetDeadline(time.Now().Add(d))
		l.armed = true
	} else if l.armed {
		l.conn.SetDeadline(time.Time{})
		l.armed = false
	}
	if err := WritePDU(l.bw, call.typ, call.req); err != nil {
		return err
	}
	if err := l.bw.Flush(); err != nil {
		return err
	}
	typ, resp, err := ReadPDUInto(l.br, call.resp)
	if err != nil {
		return err
	}
	call.respTyp, call.resp = typ, resp
	return nil
}

func (l *lockstep) close() error { return l.conn.Close() }

// Dial connects, performs the protocol handshake, and negotiates the
// highest wire version both sides speak.
func Dial(addr string) (*Client, error) { return DialMax(addr, MaxVersion) }

// DialMax is Dial with a client-side cap on the negotiated wire
// version. DialMax(addr, Version1) pins the lockstep protocol — the
// behaviour of an old client — which is also what the chaos harness
// uses to keep its byte-exact fault accounting on the single-flight
// path.
func DialMax(addr string, maxVersion uint32) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("pcp: dial %s: %w", addr, err)
	}
	return NewClientConnMax(conn, maxVersion)
}

// NewClientConn performs the protocol handshake over an
// already-established connection and returns a Client speaking on it.
// It is the injection point for transport wrappers (fault injection,
// in-process pipes): anything that satisfies net.Conn can carry the
// protocol. On handshake failure the connection is closed.
func NewClientConn(conn net.Conn) (*Client, error) {
	return NewClientConnMax(conn, MaxVersion)
}

// NewClientConnMax is NewClientConn with a cap on the negotiated wire
// version (see DialMax).
func NewClientConnMax(conn net.Conn, maxVersion uint32) (*Client, error) {
	return newClientConn(conn, Magic, maxVersion)
}

func newClientConn(conn net.Conn, magic string, maxVersion uint32) (*Client, error) {
	ls := &lockstep{conn: conn, br: bufio.NewReader(conn), bw: bufio.NewWriter(conn)}
	c := &Client{version: Version1, tr: ls}
	err := clientHandshake(ls, magic)
	if err == nil && maxVersion > Version1 {
		err = c.negotiate(maxVersion)
	}
	if err != nil {
		conn.Close()
		return nil, err
	}
	if c.version >= Version2 {
		c.tr = newPipeline(conn, ls.br, c.version >= Version3)
	}
	return c, nil
}

// clientHandshake sends magic and expects the server to echo Magic.
func clientHandshake(ls *lockstep, magic string) error {
	if _, err := ls.bw.WriteString(magic); err != nil {
		return err
	}
	if err := ls.bw.Flush(); err != nil {
		return err
	}
	echo := make([]byte, len(Magic))
	if _, err := io.ReadFull(ls.br, echo); err != nil {
		return fmt.Errorf("pcp: handshake: %w", err)
	}
	if string(echo) != Magic {
		return fmt.Errorf("%w: bad handshake %q", ErrProtocol, echo)
	}
	return nil
}

// DialTenant is Dial plus SetTenant: the connection identifies itself as
// the given tenant on every request (requires a Version3 peer for the
// tenant to travel in-band; against older peers it is silently absent,
// and the server accounts the connection as the default tenant).
func DialTenant(addr string, tenant uint32) (*Client, error) {
	c, err := Dial(addr)
	if err != nil {
		return nil, err
	}
	c.SetTenant(tenant)
	return c, nil
}

// SetTenant sets the tenant stamped on every subsequent request's wide
// frame. It only has wire effect on a Version3 (or later) connection;
// on older connections it is a no-op. Safe for concurrent use; requests
// already enqueued keep the tenant they were issued with.
func (c *Client) SetTenant(tenant uint32) {
	if c.version >= Version3 {
		c.tenant.Store(tenant)
	}
}

// Tenant returns the tenant currently stamped on outgoing requests
// (zero — the default tenant — on connections below Version3).
func (c *Client) Tenant() uint32 { return c.tenant.Load() }

// negotiate runs the version exchange on the fresh lockstep connection.
// A Version1-only server does not know PDUVersionReq and answers with
// PDUError; that is the fallback signal — the connection is still in
// lockstep protocol state, so the client simply stays at Version1.
func (c *Client) negotiate(maxVersion uint32) error {
	call := getCall()
	call.typ = PDUVersionReq
	call.req = AppendVersion(call.req[:0], maxVersion)
	if err := c.tr.roundTrip(call, 0); err != nil {
		return err
	}
	defer putCall(call)
	switch call.respTyp {
	case PDUVersionResp:
		v, err := DecodeVersion(call.resp)
		if err != nil {
			return err
		}
		if v > maxVersion {
			return fmt.Errorf("%w: server negotiated version %d above our %d", ErrProtocol, v, maxVersion)
		}
		c.version = v
	case PDUError:
		// Old server: keep lockstep Version1.
	default:
		return fmt.Errorf("%w: expected PDU %d, got %d", ErrProtocol, PDUVersionResp, call.respTyp)
	}
	return nil
}

// Version returns the negotiated wire protocol version.
func (c *Client) Version() uint32 { return c.version }

// Close closes the connection. On a pipelined client every request in
// flight fails with ErrClientClosed.
func (c *Client) Close() error { return c.tr.close() }

// SetTimeout bounds every subsequent round trip by a wall-clock
// deadline; zero disables it. On a lockstep connection a timed-out
// round trip leaves the connection in an undefined protocol state and
// it should be discarded. On a pipelined connection the deadline is
// per-request: a timeout fails only that request (with
// ErrRequestTimeout) and the connection stays usable — the late
// response is discarded by tag.
func (c *Client) SetTimeout(d time.Duration) {
	c.mu.Lock()
	c.timeout = d
	c.mu.Unlock()
}

func (c *Client) timeoutNow() time.Duration {
	c.mu.Lock()
	d := c.timeout
	c.mu.Unlock()
	return d
}

// roundTrip is the client's one request/response seam: it sends call
// (typ and req already set) through the connection's transport and
// classifies the reply, surfacing server-side error PDUs as Go errors.
// On success the caller decodes call.resp and then releases the call
// with putCall; on error the call is already disposed of.
func (c *Client) roundTrip(call *pcall, want1, want2 uint8) error {
	call.tenant = c.tenant.Load()
	if err := c.tr.roundTrip(call, c.timeoutNow()); err != nil {
		return err
	}
	var err error
	switch call.respTyp {
	case want1, want2:
		return nil
	case PDUError:
		var msg string
		if msg, err = DecodeError(call.resp); err == nil {
			err = fmt.Errorf("pcp: daemon error: %s", msg)
		}
	case PDUStatusError:
		var se *StatusError
		if se, err = DecodeStatusError(call.resp); err == nil {
			err = se
		}
	default:
		err = fmt.Errorf("%w: expected PDU %d, got %d", ErrProtocol, want1, call.respTyp)
	}
	putCall(call)
	return err
}

// Names fetches the daemon's metric table.
func (c *Client) Names() ([]NameEntry, error) {
	call := getCall()
	call.typ, call.req = PDUNamesReq, call.req[:0]
	if err := c.roundTrip(call, PDUNamesResp, PDUNamesResp); err != nil {
		return nil, err
	}
	entries, err := DecodeNamesResp(call.resp)
	putCall(call)
	if err != nil {
		return nil, err
	}
	names := make(map[string]uint32, len(entries))
	for _, e := range entries {
		names[e.Name] = e.PMID
	}
	c.mu.Lock()
	c.names = names
	c.mu.Unlock()
	return entries, nil
}

// Fetch retrieves values for the given PMIDs. Against a federated
// server it may return both a valid (partial) result and a
// *PartialError naming the nodes that contributed nothing; see
// FetchInto.
func (c *Client) Fetch(pmids []uint32) (FetchResult, error) {
	var res FetchResult
	err := c.FetchInto(pmids, &res)
	return partialOrNothing(res, err)
}

// partialOrNothing is the by-value contract of Fetch and FetchAll: a
// result travels with a nil error or a *PartialError, never with any
// other error.
func partialOrNothing(res FetchResult, err error) (FetchResult, error) {
	var pe *PartialError
	if err != nil && !errors.As(err, &pe) {
		return FetchResult{}, err
	}
	return res, err
}

// FetchInto is Fetch decoding into res, reusing res.Values' backing
// array. With a warm result it performs the whole round trip without
// allocating: the request is encoded into and the response received
// into a pooled call's reused buffers.
//
// A PDUFetchPartialResp from a federated server decodes into a valid
// res AND a non-nil *PartialError return: the values for the missing
// nodes carry StatusNodeDown and the error names those nodes. Any
// other non-nil error leaves res untrustworthy.
func (c *Client) FetchInto(pmids []uint32, res *FetchResult) error {
	call := getCall()
	call.typ, call.req = PDUFetchReq, AppendFetchReq(call.req[:0], pmids)
	return c.fetchRoundTrip(call, res)
}

// FetchAll retrieves every metric the server exports, in PMID order,
// from one snapshot — the batch form of Fetch, one round trip for the
// whole namespace. Partial results surface as in FetchInto.
func (c *Client) FetchAll() (FetchResult, error) {
	var res FetchResult
	err := c.FetchAllInto(&res)
	return partialOrNothing(res, err)
}

// FetchAllInto is FetchAll decoding into res, reusing its backing array.
func (c *Client) FetchAllInto(res *FetchResult) error {
	call := getCall()
	call.typ, call.req = PDUFetchAllReq, call.req[:0]
	return c.fetchRoundTrip(call, res)
}

// fetchRoundTrip performs one fetch-family round trip, decoding a full
// or partial fetch response into res; a partial response returns the
// reconstructed *PartialError.
func (c *Client) fetchRoundTrip(call *pcall, res *FetchResult) error {
	err := c.roundTrip(call, PDUFetchResp, PDUFetchPartialResp)
	if err != nil {
		return err
	}
	if call.respTyp == PDUFetchPartialResp {
		var pe *PartialError
		if pe, err = DecodePartialResp(call.resp, res); err == nil {
			err = pe
		}
	} else {
		err = DecodeFetchRespInto(call.resp, res)
	}
	putCall(call)
	return err
}

// FetchBatch fetches multiple PMID sets in one round trip: the answer
// to sets[i] is results[i], and on a Version2 connection every set is
// served from one snapshot — the network analogue of a whole
// multi-component EventSet read. Partial federated answers return both
// valid results and one *PartialError covering the batch.
//
// On a Version1 (lockstep) connection the batch degrades to one round
// trip per set; the results keep their per-set timestamps but lose the
// single-snapshot guarantee.
func (c *Client) FetchBatch(sets [][]uint32) ([]FetchResult, error) {
	return c.FetchBatchInto(sets, nil)
}

// FetchBatchInto is FetchBatch decoding into results, reusing its outer
// array and each element's Values backing array.
func (c *Client) FetchBatchInto(sets [][]uint32, results []FetchResult) ([]FetchResult, error) {
	if c.version < Version2 {
		return c.fetchBatchPerSet(sets, results)
	}
	call := getCall()
	call.typ, call.req = PDUFetchBatchReq, AppendFetchBatchReq(call.req[:0], sets)
	if err := c.roundTrip(call, PDUFetchBatchResp, PDUFetchBatchResp); err != nil {
		return nil, err
	}
	out, pe, err := DecodeFetchBatchRespInto(call.resp, results)
	putCall(call)
	if err != nil {
		return nil, err
	}
	if len(out) != len(sets) {
		return nil, fmt.Errorf("%w: batch answered %d sets, asked %d", ErrProtocol, len(out), len(sets))
	}
	if pe != nil {
		return out, pe
	}
	return out, nil
}

// fetchBatchPerSet is the Version1 form of a batch — the batch PDU does
// not exist there: one fetch round trip per set, partial errors merged.
func (c *Client) fetchBatchPerSet(sets [][]uint32, results []FetchResult) ([]FetchResult, error) {
	if cap(results) < len(sets) {
		grown := make([]FetchResult, len(sets))
		copy(grown, results[:cap(results)])
		results = grown
	}
	results = results[:len(sets)]
	var merged *PartialError
	for i, pmids := range sets {
		if err := c.FetchInto(pmids, &results[i]); err != nil {
			var pe *PartialError
			if !errors.As(err, &pe) {
				return nil, err
			}
			if merged == nil {
				merged = &PartialError{Cause: pe.Cause}
			}
			merged.Missing = mergeMissing(merged.Missing, pe.Missing)
		}
	}
	if merged != nil {
		return results, merged
	}
	return results, nil
}

// mergeMissing unions two sorted missing-node lists, preserving order.
func mergeMissing(a, b []string) []string {
	out := make([]string, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// Lookup resolves a metric name to its PMID, fetching the name table on
// first use. A miss against the cached table refreshes it once before
// failing, so metrics registered after the cache was populated (the
// daemon's namespace can grow) still resolve.
func (c *Client) Lookup(name string) (uint32, error) {
	c.mu.Lock()
	cached := c.names
	c.mu.Unlock()
	if cached != nil {
		if id, ok := cached[name]; ok {
			return id, nil
		}
	}
	if _, err := c.Names(); err != nil {
		return 0, err
	}
	c.mu.Lock()
	id, ok := c.names[name]
	c.mu.Unlock()
	if !ok {
		return 0, fmt.Errorf("pcp: unknown metric %q", name)
	}
	return id, nil
}

// FetchByName resolves and fetches the named metrics in order.
func (c *Client) FetchByName(names ...string) (FetchResult, error) {
	pmids := make([]uint32, len(names))
	for i, n := range names {
		id, err := c.Lookup(n)
		if err != nil {
			return FetchResult{}, err
		}
		pmids[i] = id
	}
	return c.Fetch(pmids)
}
