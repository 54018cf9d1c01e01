package pcp

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
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

type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}
