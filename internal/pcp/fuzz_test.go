package pcp

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"testing"
)

// frame builds a wire frame with an arbitrary (possibly lying) length
// prefix for seeding the fuzzer.
func frame(length uint32, typ uint8, payload []byte) []byte {
	b := make([]byte, 5, 5+len(payload))
	binary.BigEndian.PutUint32(b, length)
	b[4] = typ
	return append(b, payload...)
}

// FuzzReadPDU asserts hostile-frame robustness end to end: ReadPDU never
// panics or over-allocates whatever the length prefix claims, a frame it
// does accept round-trips bytewise through WritePDU, and every payload
// decoder is total on the accepted payload (error or value, no panic).
func FuzzReadPDU(f *testing.F) {
	// Well-formed frames of each PDU type.
	f.Add(frame(0, PDUNamesReq, nil))
	f.Add(frame(uint32(len(AppendNamesResp(nil, []NameEntry{{PMID: 1, Name: "kernel.load"}}))), PDUNamesResp,
		AppendNamesResp(nil, []NameEntry{{PMID: 1, Name: "kernel.load"}})))
	f.Add(frame(uint32(len(AppendFetchReq(nil, []uint32{1, 2, 3}))), PDUFetchReq, AppendFetchReq(nil, []uint32{1, 2, 3})))
	f.Add(frame(uint32(len(AppendFetchResp(nil, FetchResult{Timestamp: 42, Values: []FetchValue{{PMID: 1, Status: StatusOK, Value: 1 << 60}}}))), PDUFetchResp,
		AppendFetchResp(nil, FetchResult{Timestamp: 42, Values: []FetchValue{{PMID: 1, Status: StatusOK, Value: 1 << 60}}})))
	f.Add(frame(uint32(len(AppendError(nil, "boom"))), PDUError, AppendError(nil, "boom")))
	// Hostile frames: lying length prefixes, truncation, garbage.
	f.Add(frame(0xFFFFFFFF, PDUFetchResp, nil))       // oversize claim
	f.Add(frame(MaxPDUBytes+1, PDUNamesResp, nil))    // just over the cap
	f.Add(frame(100, PDUFetchReq, []byte{1, 2, 3}))   // claims more than present
	f.Add(frame(2, PDUNamesResp, []byte{0, 0, 0, 9})) // claims less than present
	f.Add([]byte{0, 0})                               // truncated header
	f.Add(frame(8, PDUFetchResp, bytes.Repeat([]byte{0xFF}, 8)))
	f.Add(frame(4, PDUNamesResp, []byte{0xFF, 0xFF, 0xFF, 0xFF})) // implausible count
	for _, p := range hostileCountPayloads(64) {                  // value count past the payload
		f.Add(frame(uint32(len(p.payload)), PDUFetchResp, p.payload))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		typ, payload, err := ReadPDUInto(bytes.NewReader(data), nil)
		if err != nil {
			if errors.Is(err, ErrPDUTooLarge) && !errors.Is(err, ErrProtocol) {
				t.Fatal("ErrPDUTooLarge must wrap ErrProtocol")
			}
			return
		}
		if len(payload) > MaxPDUBytes {
			t.Fatalf("accepted %d-byte payload beyond MaxPDUBytes", len(payload))
		}
		// An accepted frame round-trips bytewise.
		var buf bytes.Buffer
		if err := WritePDU(&buf, typ, payload); err != nil {
			t.Fatalf("WritePDU of accepted frame: %v", err)
		}
		typ2, payload2, err := ReadPDUInto(&buf, nil)
		if err != nil {
			t.Fatalf("re-read of written frame: %v", err)
		}
		if typ2 != typ || !bytes.Equal(payload2, payload) {
			t.Fatalf("round trip changed frame: type %d->%d, %d->%d bytes", typ, typ2, len(payload), len(payload2))
		}
		// Every decoder must be total on arbitrary accepted payloads.
		if _, err := DecodeNamesResp(payload); err == nil {
			if entries, _ := DecodeNamesResp(payload); len(entries) > MaxPDUBytes/5 {
				t.Fatalf("DecodeNamesResp produced implausible %d entries", len(entries))
			}
		}
		_, _ = DecodeFetchReqInto(payload, nil)
		_ = DecodeFetchRespInto(payload, new(FetchResult))
		_, _ = DecodeError(payload)
		_, _ = DecodeVersion(payload)
		_, _ = DecodeFetchBatchReqInto(payload, nil)
		_, _, _ = DecodeFetchBatchRespInto(payload, nil)
	})
}

// TestReadPDUOversizeNoAlloc pins the guard the fuzz target relies on:
// a hostile length prefix fails before any payload read or allocation.
func TestReadPDUOversizeNoAlloc(t *testing.T) {
	hdr := frame(0xFFFFFFF0, PDUFetchResp, nil)
	r := &countingReader{r: bytes.NewReader(hdr)}
	_, _, err := ReadPDUInto(r, nil)
	if !errors.Is(err, ErrPDUTooLarge) {
		t.Fatalf("err = %v, want ErrPDUTooLarge", err)
	}
	if r.n > 5 {
		t.Fatalf("read %d bytes past the header of an oversize frame", r.n)
	}
}

// hostileCount is a response payload whose value count claims one
// value more than the payload holds.
type hostileCount struct {
	name    string
	payload []byte
	decode  func([]byte) error
}

// hostileCountPayloads builds a full, a partial and a batch response
// carrying n values each, then raises each one's value count to n+1.
func hostileCountPayloads(n int) []hostileCount {
	res := FetchResult{Timestamp: 7, Values: make([]FetchValue, n)}
	lie := func(enc func(FetchResult) []byte) []byte {
		at := len(enc(FetchResult{})) - 4 // the count is an empty body's last field
		b := enc(res)
		binary.BigEndian.PutUint32(b[at:], uint32(n+1))
		return b
	}
	return []hostileCount{
		{"fetch", lie(func(r FetchResult) []byte { return AppendFetchResp(nil, r) }),
			func(b []byte) error { return DecodeFetchRespInto(b, new(FetchResult)) }},
		{"partial", lie(func(r FetchResult) []byte { return AppendPartialResp(nil, r, []string{"node003"}, "down") }),
			func(b []byte) error { _, err := DecodePartialResp(b, new(FetchResult)); return err }},
		{"batch", lie(func(r FetchResult) []byte { return AppendFetchBatchResp(nil, []FetchResult{r}, nil, "") }),
			func(b []byte) error { _, _, err := DecodeFetchBatchRespInto(b, nil); return err }},
	}
}

// TestHostileValueCountNoAlloc: a response whose value count exceeds
// the bytes left in its payload fails with ErrProtocol before it sizes
// anything by the count — decoding it allocates less than the payload
// itself, where growing the values as they are read would allocate
// about twice the payload before finding the lie.
func TestHostileValueCountNoAlloc(t *testing.T) {
	for _, h := range hostileCountPayloads(1024) {
		if err := h.decode(h.payload); !errors.Is(err, ErrProtocol) {
			t.Fatalf("%s: err = %v, want ErrProtocol", h.name, err)
		}
		const runs = 100
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			h.decode(h.payload)
		}
		runtime.ReadMemStats(&after)
		if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > uint64(len(h.payload)) {
			t.Errorf("%s: a hostile count allocates %d bytes per decode, more than its %d-byte payload", h.name, per, len(h.payload))
		}
	}
}

type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}
