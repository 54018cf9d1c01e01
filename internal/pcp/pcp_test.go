package pcp

import (
	"bytes"
	"encoding/binary"
	"errors"
	"net"
	"strings"
	"testing"
	"testing/quick"

	"papimc/internal/leakcheck"
	"papimc/internal/simtime"
)

// --- PDU round trips ---------------------------------------------------

func TestNamesRespRoundTrip(t *testing.T) {
	in := []NameEntry{{1, "a.b.c"}, {2, ""}, {7, "perfevent.hwcounters.x.value"}}
	out, err := DecodeNamesResp(AppendNamesResp(nil, in))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("len = %d, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i] != in[i] {
			t.Errorf("entry %d = %+v, want %+v", i, out[i], in[i])
		}
	}
}

func TestFetchRespRoundTrip(t *testing.T) {
	in := FetchResult{
		Timestamp: -42,
		Values: []FetchValue{
			{PMID: 1, Status: StatusOK, Value: 1 << 60},
			{PMID: 9, Status: StatusNoSuchPMID, Value: 0},
		},
	}
	var out FetchResult
	if err := DecodeFetchRespInto(AppendFetchResp(nil, in), &out); err != nil {
		t.Fatal(err)
	}
	if out.Timestamp != in.Timestamp || len(out.Values) != 2 ||
		out.Values[0] != in.Values[0] || out.Values[1] != in.Values[1] {
		t.Errorf("round trip mismatch: %+v", out)
	}
}

func TestDecodeRejectsTruncation(t *testing.T) {
	full := AppendFetchResp(nil, FetchResult{Timestamp: 1, Values: []FetchValue{{PMID: 1}}})
	for cut := 1; cut < len(full); cut++ {
		var out FetchResult
		if err := DecodeFetchRespInto(full[:cut], &out); !errors.Is(err, ErrProtocol) {
			t.Errorf("truncation at %d not detected: %v", cut, err)
		}
	}
}

func TestDecodeRejectsTrailingGarbage(t *testing.T) {
	b := append(AppendFetchReq(nil, []uint32{1, 2}), 0xFF)
	if _, err := DecodeFetchReqInto(b, nil); !errors.Is(err, ErrProtocol) {
		t.Errorf("trailing garbage not detected: %v", err)
	}
}

func TestPDURoundTripProperty(t *testing.T) {
	f := func(ts int64, pmids []uint32, statuses []int32, values []uint64) bool {
		res := FetchResult{Timestamp: ts}
		for i, id := range pmids {
			v := FetchValue{PMID: id}
			if i < len(statuses) {
				v.Status = statuses[i]
			}
			if i < len(values) {
				v.Value = values[i]
			}
			res.Values = append(res.Values, v)
		}
		var out FetchResult
		err := DecodeFetchRespInto(AppendFetchResp(nil, res), &out)
		if err != nil || out.Timestamp != ts || len(out.Values) != len(res.Values) {
			return false
		}
		for i := range res.Values {
			if out.Values[i] != res.Values[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNamesRoundTripProperty(t *testing.T) {
	f := func(names []string) bool {
		in := make([]NameEntry, len(names))
		for i, n := range names {
			in[i] = NameEntry{PMID: uint32(i), Name: n}
		}
		out, err := DecodeNamesResp(AppendNamesResp(nil, in))
		if err != nil || len(out) != len(in) {
			return false
		}
		for i := range in {
			if out[i] != in[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// --- daemon & client ---------------------------------------------------

func TestNewDaemonValidation(t *testing.T) {
	clock := simtime.NewClock()
	if _, err := NewDaemon(clock, 0, nil); err == nil {
		t.Error("expected error for zero interval")
	}
	dup := []Metric{
		{Name: "a", Read: func(simtime.Time) (uint64, error) { return 0, nil }},
		{Name: "a", Read: func(simtime.Time) (uint64, error) { return 0, nil }},
	}
	if _, err := NewDaemon(clock, 1, dup); err == nil {
		t.Error("expected error for duplicate metric")
	}
	if _, err := NewDaemon(clock, 1, []Metric{{Name: "x"}}); err == nil {
		t.Error("expected error for nil reader")
	}
}

func TestBadHandshakeRejected(t *testing.T) {
	leakcheck.NoGoroutineLeak(t)
	clock := simtime.NewClock()
	d, err := NewDaemon(clock, simtime.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := d.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	// A client that speaks the wrong magic gets disconnected.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	c, err := newClientConn(conn, "NOPE", MaxVersion)
	if err == nil {
		c.Close()
		t.Error("expected handshake failure")
	}
	if err != nil && !strings.Contains(err.Error(), "handshake") && !errors.Is(err, ErrProtocol) {
		// Accept either: connection closed during handshake or explicit
		// protocol error.
		t.Logf("handshake failed as expected: %v", err)
	}
}

// --- satellite coverage: hostile PDUs, namespace growth, fan-out -------

// TestReadPDURejectsHostileLength: a corrupt/hostile length prefix must
// fail with the typed error before any allocation is attempted.
func TestReadPDURejectsHostileLength(t *testing.T) {
	hdr := []byte{0xFF, 0xFF, 0xFF, 0xFF, PDUFetchReq} // claims a 4 GiB payload
	_, _, err := ReadPDUInto(bytes.NewReader(hdr), nil)
	if !errors.Is(err, ErrPDUTooLarge) {
		t.Errorf("err = %v, want ErrPDUTooLarge", err)
	}
	if !errors.Is(err, ErrProtocol) {
		t.Errorf("ErrPDUTooLarge should wrap ErrProtocol; got %v", err)
	}
	// One past the limit is rejected; the limit itself is not.
	hdr = make([]byte, 5)
	binary.BigEndian.PutUint32(hdr, MaxPDUBytes+1)
	if _, _, err := ReadPDUInto(bytes.NewReader(hdr), nil); !errors.Is(err, ErrPDUTooLarge) {
		t.Errorf("limit+1 err = %v", err)
	}
	binary.BigEndian.PutUint32(hdr, 3)
	body := append(append([]byte(nil), hdr...), 1, 2, 3)
	if typ, payload, err := ReadPDUInto(bytes.NewReader(body), nil); err != nil || typ != 0 || len(payload) != 3 {
		t.Errorf("valid frame rejected: %v", err)
	}
}

func TestWritePDURejectsOversizePayload(t *testing.T) {
	var sink bytes.Buffer
	err := WritePDU(&sink, PDUFetchReq, make([]byte, MaxPDUBytes+1))
	if !errors.Is(err, ErrPDUTooLarge) {
		t.Errorf("err = %v, want ErrPDUTooLarge", err)
	}
	if sink.Len() != 0 {
		t.Error("oversize write emitted bytes")
	}
}
