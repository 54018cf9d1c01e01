// Package pcp implements a Performance Co-Pilot-style metrics service: a
// PMCD daemon that holds the privileged credential needed to read nest
// hardware counters and exports them to unprivileged clients over a
// binary TCP protocol, and the client used by PAPI's PCP component.
//
// The wire protocol is a simplified PCP: length-prefixed, big-endian PDUs
// with a handshake, a name/PMID table exchange, and fetch-by-PMID. The
// daemon refreshes its view of the hardware counters at a fixed sampling
// interval (like pmcd's collection), so clients observe slightly stale
// values — one of the indirection costs the paper quantifies.
package pcp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
)

// Magic is exchanged at connection setup.
const Magic = "PCP1"

// PDU type codes. They are exported so protocol middleboxes (the
// pmproxy daemon) can speak the wire format without reimplementing it.
const (
	PDUNamesReq  uint8 = 1
	PDUNamesResp uint8 = 2
	PDUFetchReq  uint8 = 3
	PDUFetchResp uint8 = 4
	// PDUFetchPartialResp answers a fetch that some cluster nodes could
	// not serve: a fetch-response body prefixed with the missing node
	// list (see AppendPartialResp). Clients surface it as a FetchResult
	// plus a *PartialError.
	PDUFetchPartialResp uint8 = 5
	// PDUFetchAllReq is the batch fetch: an empty payload answered with
	// every metric in the server's table, in PMID order, from one
	// snapshot. One round trip serves a whole EventSet or a cluster
	// snapshot instead of a names exchange plus an enumerated fetch.
	PDUFetchAllReq uint8 = 6
	// PDUVersionReq negotiates the wire protocol version after the magic
	// handshake: the payload is the sender's maximum version, the reply
	// (PDUVersionResp) is min(client max, server max). A Version1-only
	// server answers it with PDUError instead — which is exactly the
	// fallback signal, since the connection stays usable in lockstep
	// framing. At Version2 and above both sides switch to tagged frames
	// (see WriteTaggedPDU) immediately after the version exchange.
	PDUVersionReq  uint8 = 7
	PDUVersionResp uint8 = 8
	// PDUFetchBatchReq carries multiple PMID sets so one round trip
	// serves a whole multi-component EventSet: the reply is one
	// PDUFetchBatchResp holding a fetch-response body per set, all served
	// from a single snapshot.
	PDUFetchBatchReq  uint8 = 9
	PDUFetchBatchResp uint8 = 10
	// PDUStatusError is the typed error PDU introduced at Version3: an
	// i32 status code plus a message, so a client can classify a
	// server-side rejection (overload shed, quota) programmatically
	// instead of string-matching a PDUError. Servers only send it to
	// peers that negotiated Version3 or higher; older peers get a plain
	// PDUError with the same message.
	PDUStatusError uint8 = 254
	PDUError       uint8 = 255
)

// Wire protocol versions negotiated via PDUVersionReq.
const (
	// Version1 is the original lockstep protocol: plain 5-byte frames,
	// one request outstanding per connection.
	Version1 uint32 = 1
	// Version2 adds tagged 9-byte frames (pipelining with out-of-order
	// completion) and the batch fetch PDUs.
	Version2 uint32 = 2
	// Version3 widens the tagged frame header with a tenant field (see
	// WriteWidePDU) so multi-tenant QoS travels in-band, and adds
	// PDUStatusError for typed server-side rejections. Version1 and
	// Version2 peers negotiate down and never see either.
	Version3 uint32 = 3
	// MaxVersion is the newest version this package speaks.
	MaxVersion = Version3
)

// Per-value status codes in fetch responses.
const (
	StatusOK         int32 = 0
	StatusNoSuchPMID int32 = -3 // mirrors PM_ERR_PMID
	StatusValueError int32 = -5 // the underlying read failed
	StatusNodeDown   int32 = -7 // the owning cluster node did not answer
	// StatusOverload is carried in a PDUStatusError when the server shed
	// the request under admission control rather than failing to serve
	// it. Clients surface it as an error wrapping ErrOverload.
	StatusOverload int32 = -9
)

// ErrOverload is the sentinel a shed request's error wraps, on both
// sides of the wire: a server-side admission layer returns errors
// wrapping it, and a client receiving a PDUStatusError with
// StatusOverload reconstructs it — so errors.Is(err, ErrOverload) means
// "the service is up but chose not to serve this request now".
var ErrOverload = errors.New("pcp: server overloaded")

// StatusError is a typed server-side rejection decoded from a
// PDUStatusError. It unwraps to ErrOverload when the status says so,
// keeping one errors.Is check valid in-process and over the wire.
type StatusError struct {
	Status int32
	Msg    string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("pcp: server status %d: %s", e.Status, e.Msg)
}

// Unwrap maps known status codes onto their sentinel errors.
func (e *StatusError) Unwrap() error {
	if e.Status == StatusOverload {
		return ErrOverload
	}
	return nil
}

// MaxPDUBytes bounds a PDU payload; anything larger is a protocol error.
// The limit exists so a hostile or corrupt length prefix cannot force an
// unbounded allocation in ReadPDUInto.
const MaxPDUBytes = 1 << 20

// ErrProtocol indicates a malformed or unexpected PDU.
var ErrProtocol = errors.New("pcp: protocol error")

// ErrPDUTooLarge indicates a PDU whose length prefix exceeds MaxPDUBytes.
// It wraps ErrProtocol, so errors.Is works against either.
var ErrPDUTooLarge = fmt.Errorf("%w: PDU exceeds %d-byte limit", ErrProtocol, MaxPDUBytes)

// NameEntry maps a metric name to its PMID.
type NameEntry struct {
	PMID uint32
	Name string
}

// FetchValue is one metric value in a fetch response.
type FetchValue struct {
	PMID   uint32
	Status int32
	Value  uint64
}

// FetchResult is a decoded fetch response.
type FetchResult struct {
	// Timestamp is the simulated time (ns) at which the daemon last
	// sampled the hardware counters.
	Timestamp int64
	Values    []FetchValue
}

// hdrPool recycles 5-byte frame headers. A stack array would do, but
// passing it through the io.Writer/io.Reader interface forces it to the
// heap; pooling keeps the framing layer allocation-free.
var hdrPool = sync.Pool{
	New: func() any { b := make([]byte, 5); return &b },
}

// WritePDU frames and writes one PDU. It does not allocate in the
// steady state: the frame header comes from a pool.
func WritePDU(w io.Writer, typ uint8, payload []byte) error {
	if len(payload) > MaxPDUBytes {
		return fmt.Errorf("%w (writing %d bytes)", ErrPDUTooLarge, len(payload))
	}
	hp := hdrPool.Get().(*[]byte)
	hdr := *hp
	binary.BigEndian.PutUint32(hdr, uint32(len(payload)))
	hdr[4] = typ
	_, err := w.Write(hdr)
	hdrPool.Put(hp)
	if err != nil {
		return err
	}
	_, err = w.Write(payload)
	return err
}

// ReadPDUInto reads one framed PDU, the payload into buf, growing it if
// needed. The length prefix is validated against MaxPDUBytes before any
// allocation, so a hostile peer cannot trigger an arbitrarily large
// make(); oversize frames fail with ErrPDUTooLarge. The returned payload
// aliases buf's backing array (when large enough), so it is only valid
// until the next ReadPDUInto with the same buffer; serving loops pass
// the previous payload back in to run allocation-free in the steady
// state.
func ReadPDUInto(r io.Reader, buf []byte) (typ uint8, payload []byte, err error) {
	hp := hdrPool.Get().(*[]byte)
	hdr := *hp
	_, err = io.ReadFull(r, hdr)
	n := binary.BigEndian.Uint32(hdr[:4])
	typ = hdr[4]
	hdrPool.Put(hp)
	if err != nil {
		return 0, nil, err
	}
	if n > MaxPDUBytes {
		return 0, nil, fmt.Errorf("%w (length prefix %d)", ErrPDUTooLarge, n)
	}
	if uint32(cap(buf)) < n {
		buf = make([]byte, n)
	}
	payload = buf[:n]
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, err
	}
	return typ, payload, nil
}

// --- payload encoding -------------------------------------------------

type encoder struct{ buf []byte }

func (e *encoder) u32(v uint32) {
	e.buf = binary.BigEndian.AppendUint32(e.buf, v)
}

func (e *encoder) u64(v uint64) {
	e.buf = binary.BigEndian.AppendUint64(e.buf, v)
}

func (e *encoder) i32(v int32) { e.u32(uint32(v)) }
func (e *encoder) i64(v int64) { e.u64(uint64(v)) }

func (e *encoder) str(s string) {
	e.u32(uint32(len(s)))
	e.buf = append(e.buf, s...)
}

type decoder struct {
	buf []byte
	err error
}

func (d *decoder) u32() uint32 {
	if d.err != nil {
		return 0
	}
	if len(d.buf) < 4 {
		d.err = fmt.Errorf("%w: truncated u32", ErrProtocol)
		return 0
	}
	v := binary.BigEndian.Uint32(d.buf)
	d.buf = d.buf[4:]
	return v
}

func (d *decoder) u64() uint64 {
	if d.err != nil {
		return 0
	}
	if len(d.buf) < 8 {
		d.err = fmt.Errorf("%w: truncated u64", ErrProtocol)
		return 0
	}
	v := binary.BigEndian.Uint64(d.buf)
	d.buf = d.buf[8:]
	return v
}

func (d *decoder) i32() int32 { return int32(d.u32()) }
func (d *decoder) i64() int64 { return int64(d.u64()) }

func (d *decoder) str() string {
	n := d.u32()
	if d.err != nil {
		return ""
	}
	if uint32(len(d.buf)) < n {
		d.err = fmt.Errorf("%w: truncated string", ErrProtocol)
		return ""
	}
	s := string(d.buf[:n])
	d.buf = d.buf[n:]
	return s
}

func (d *decoder) done() error {
	if d.err != nil {
		return d.err
	}
	if len(d.buf) != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrProtocol, len(d.buf))
	}
	return nil
}

// Encoders are append-style (like strconv.AppendInt): Append* extends a
// caller-provided buffer, so serving loops reuse a scratch buffer and
// encode without allocating; pass nil for a fresh one.

// AppendNamesResp appends the encoded metric table to dst.
func AppendNamesResp(dst []byte, entries []NameEntry) []byte {
	e := encoder{buf: dst}
	e.u32(uint32(len(entries)))
	for _, n := range entries {
		e.u32(n.PMID)
		e.str(n.Name)
	}
	return e.buf
}

func DecodeNamesResp(b []byte) ([]NameEntry, error) {
	d := decoder{buf: b}
	n := d.u32()
	if n > MaxPDUBytes/5 {
		return nil, fmt.Errorf("%w: implausible name count %d", ErrProtocol, n)
	}
	out := make([]NameEntry, 0, n)
	for i := uint32(0); i < n; i++ {
		pmid := d.u32()
		name := d.str()
		out = append(out, NameEntry{PMID: pmid, Name: name})
	}
	if err := d.done(); err != nil {
		return nil, err
	}
	return out, nil
}

// AppendFetchReq appends the encoded fetch request to dst.
func AppendFetchReq(dst []byte, pmids []uint32) []byte {
	e := encoder{buf: dst}
	e.u32(uint32(len(pmids)))
	for _, id := range pmids {
		e.u32(id)
	}
	return e.buf
}

// DecodeFetchReqInto decodes a fetch request, appending the PMIDs to dst
// (pass dst[:0] to reuse its backing array).
func DecodeFetchReqInto(b []byte, dst []uint32) ([]uint32, error) {
	d := decoder{buf: b}
	n := d.u32()
	if n > MaxPDUBytes/4 {
		return nil, fmt.Errorf("%w: implausible pmid count %d", ErrProtocol, n)
	}
	for i := uint32(0); i < n; i++ {
		dst = append(dst, d.u32())
	}
	if err := d.done(); err != nil {
		return nil, err
	}
	return dst, nil
}

// AppendFetchResp appends the encoded fetch response to dst.
func AppendFetchResp(dst []byte, res FetchResult) []byte {
	e := encoder{buf: dst}
	e.i64(res.Timestamp)
	e.u32(uint32(len(res.Values)))
	for _, v := range res.Values {
		e.u32(v.PMID)
		e.i32(v.Status)
		e.u64(v.Value)
	}
	return e.buf
}

// DecodeFetchRespInto decodes a fetch response into res, reusing
// res.Values' backing array. res is left zeroed on error.
func DecodeFetchRespInto(b []byte, res *FetchResult) error {
	d := decoder{buf: b}
	d.fetchBody(res)
	if err := d.done(); err != nil {
		*res = FetchResult{}
		return err
	}
	return nil
}

// fetchBody decodes one fetch-response body (timestamp, count, values)
// from the decoder's position into res, reusing res.Values' backing
// array. It is the shared sub-parser of the full, partial and batch
// response decoders; on failure d.err is set and res is unspecified.
func (d *decoder) fetchBody(res *FetchResult) {
	ts := d.i64()
	n := d.u32()
	if d.err == nil && n > MaxPDUBytes/16 {
		d.err = fmt.Errorf("%w: implausible value count %d", ErrProtocol, n)
	}
	if d.err != nil {
		return
	}
	vals := res.Values[:0]
	for i := uint32(0); i < n; i++ {
		vals = append(vals, FetchValue{
			PMID:   d.u32(),
			Status: d.i32(),
			Value:  d.u64(),
		})
	}
	if d.err != nil {
		return
	}
	res.Timestamp = ts
	res.Values = vals
}

// AppendError appends an encoded error PDU payload to dst.
func AppendError(dst []byte, msg string) []byte {
	e := encoder{buf: dst}
	e.str(msg)
	return e.buf
}

func DecodeError(b []byte) (string, error) {
	d := decoder{buf: b}
	s := d.str()
	if err := d.done(); err != nil {
		return "", err
	}
	return s, nil
}

// AppendStatusError appends an encoded PDUStatusError payload to dst:
// an i32 status code followed by a message string.
func AppendStatusError(dst []byte, status int32, msg string) []byte {
	e := encoder{buf: dst}
	e.i32(status)
	e.str(msg)
	return e.buf
}

// DecodeStatusError decodes a PDUStatusError payload into a *StatusError.
func DecodeStatusError(b []byte) (*StatusError, error) {
	d := decoder{buf: b}
	status := d.i32()
	msg := d.str()
	if err := d.done(); err != nil {
		return nil, err
	}
	return &StatusError{Status: status, Msg: msg}, nil
}

// AppendVersion appends an encoded version PDU payload (request and
// response share the format: one u32 version) to dst.
func AppendVersion(dst []byte, version uint32) []byte {
	e := encoder{buf: dst}
	e.u32(version)
	return e.buf
}

// DecodeVersion decodes a version PDU payload. A version of zero is a
// protocol error: there is no version 0 and accepting one would make a
// zeroed frame negotiate successfully.
func DecodeVersion(b []byte) (uint32, error) {
	d := decoder{buf: b}
	v := d.u32()
	if err := d.done(); err != nil {
		return 0, err
	}
	if v == 0 {
		return 0, fmt.Errorf("%w: version 0", ErrProtocol)
	}
	return v, nil
}

// MaxBatchSets bounds the number of PMID sets in one batch fetch, like
// the other implausibility guards in the decoders.
const MaxBatchSets = MaxPDUBytes / 8

// AppendFetchBatchReq appends an encoded batch fetch request to dst:
// the set count, then each set as an ordinary fetch-request body.
func AppendFetchBatchReq(dst []byte, sets [][]uint32) []byte {
	e := encoder{buf: dst}
	e.u32(uint32(len(sets)))
	for _, pmids := range sets {
		e.u32(uint32(len(pmids)))
		for _, id := range pmids {
			e.u32(id)
		}
	}
	return e.buf
}

// DecodeFetchBatchReqInto decodes a batch fetch request, reusing dst's
// outer and inner backing arrays (pass dst[:0] with populated capacity
// to run allocation-free in the steady state).
func DecodeFetchBatchReqInto(b []byte, dst [][]uint32) ([][]uint32, error) {
	d := decoder{buf: b}
	nsets := d.u32()
	if nsets > MaxBatchSets {
		return nil, fmt.Errorf("%w: implausible batch set count %d", ErrProtocol, nsets)
	}
	for i := uint32(0); i < nsets; i++ {
		n := d.u32()
		if d.err == nil && n > MaxPDUBytes/4 {
			return nil, fmt.Errorf("%w: implausible pmid count %d", ErrProtocol, n)
		}
		if d.err != nil {
			return nil, d.err
		}
		var set []uint32
		if i < uint32(cap(dst)) {
			set = dst[:i+1][i][:0]
		}
		for j := uint32(0); j < n; j++ {
			set = append(set, d.u32())
		}
		dst = append(dst[:i], set)
	}
	if err := d.done(); err != nil {
		return nil, err
	}
	return dst[:nsets], nil
}

// AppendFetchBatchResp appends an encoded batch fetch response to dst:
// one partial-result header (missing-node list and cause — empty on a
// full answer) covering the whole batch, then the set count and each
// set's fetch-response body. All sets are served from one snapshot, so
// a single header suffices.
func AppendFetchBatchResp(dst []byte, sets []FetchResult, missing []string, cause string) []byte {
	e := encoder{buf: dst}
	e.u32(uint32(len(missing)))
	for _, m := range missing {
		e.str(m)
	}
	e.str(cause)
	e.u32(uint32(len(sets)))
	for _, res := range sets {
		e.buf = AppendFetchResp(e.buf, res)
	}
	return e.buf
}

// DecodeFetchBatchRespInto decodes a batch fetch response, reusing
// dst's outer array and each element's Values backing array. The
// returned *PartialError is nil on a full answer and applies to the
// batch as a whole (the missing nodes' values carry StatusNodeDown in
// every affected set).
func DecodeFetchBatchRespInto(b []byte, dst []FetchResult) ([]FetchResult, *PartialError, error) {
	d := decoder{buf: b}
	nmiss := d.u32()
	if nmiss > MaxPartialMissing {
		return nil, nil, fmt.Errorf("%w: implausible missing-node count %d", ErrProtocol, nmiss)
	}
	var pe *PartialError
	if nmiss > 0 {
		pe = &PartialError{Missing: make([]string, 0, nmiss)}
		for i := uint32(0); i < nmiss; i++ {
			pe.Missing = append(pe.Missing, d.str())
		}
		pe.Cause = d.str()
	} else {
		d.str() // cause slot, empty on a full answer
	}
	nsets := d.u32()
	if d.err == nil && nsets > MaxBatchSets {
		return nil, nil, fmt.Errorf("%w: implausible batch set count %d", ErrProtocol, nsets)
	}
	if d.err != nil {
		return nil, nil, d.err
	}
	for i := uint32(0); i < nsets; i++ {
		var res FetchResult
		if i < uint32(cap(dst)) {
			res = dst[:i+1][i]
		}
		d.fetchBody(&res)
		if d.err != nil {
			return nil, nil, d.err
		}
		dst = append(dst[:i], res)
	}
	if err := d.done(); err != nil {
		return nil, nil, err
	}
	return dst[:nsets], pe, nil
}
