package pcp

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"testing"
)

// TestStatusErrorCodec pins the typed-rejection payload: round trip,
// overload classification via errors.Is, and decoder totality.
func TestStatusErrorCodec(t *testing.T) {
	b := AppendStatusError(nil, StatusOverload, "shed: over quota")
	se, err := DecodeStatusError(b)
	if err != nil {
		t.Fatal(err)
	}
	if se.Status != StatusOverload || se.Msg != "shed: over quota" {
		t.Fatalf("decoded %+v", se)
	}
	if !errors.Is(se, ErrOverload) {
		t.Fatal("StatusOverload must unwrap to ErrOverload")
	}
	other, err := DecodeStatusError(AppendStatusError(nil, StatusNodeDown, "down"))
	if err != nil {
		t.Fatal(err)
	}
	if errors.Is(other, ErrOverload) {
		t.Fatal("non-overload status must not unwrap to ErrOverload")
	}
	if _, err := DecodeStatusError([]byte{1, 2}); err == nil {
		t.Fatal("truncated payload must not decode")
	}
	if _, err := DecodeStatusError(append(b, 0)); err == nil {
		t.Fatal("trailing bytes must not decode")
	}
}

// TestWideFrameRoundTrip covers the Version3 frame format directly:
// write/read round trip with tenant preserved, header-only reads
// leaving the payload unread, and batch coalescing of wide frames.
func TestWideFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte("hello wide world")
	if err := WriteWidePDU(&buf, PDUFetchReq, 7, 42, payload); err != nil {
		t.Fatal(err)
	}
	typ, tag, tenant, got, err := ReadWidePDUInto(bufio.NewReader(bytes.NewReader(buf.Bytes())), nil)
	if err != nil {
		t.Fatal(err)
	}
	if typ != PDUFetchReq || tag != 7 || tenant != 42 || !bytes.Equal(got, payload) {
		t.Fatalf("round trip: type=%d tag=%d tenant=%d payload=%q", typ, tag, tenant, got)
	}
	hr := bytes.NewReader(buf.Bytes())
	if _, _, _, n, err := readFrameHdr(hr, true); err != nil {
		t.Fatal(err)
	} else if hr.Len() != int(n) {
		t.Fatalf("header read consumed payload: %d left, want %d", hr.Len(), n)
	}

	// Oversize claims are rejected before any allocation.
	big := wframe(MaxPDUBytes+1, PDUFetchResp, 1, 2, nil)
	if _, _, _, _, err := ReadWidePDUInto(bufio.NewReader(bytes.NewReader(big)), nil); !errors.Is(err, ErrPDUTooLarge) {
		t.Fatalf("oversize wide frame: err = %v, want ErrPDUTooLarge", err)
	}

	// A batch of wide frames coalesces and decodes frame by frame.
	batch := frameBatch{wide: true}
	for i := uint32(1); i <= 3; i++ {
		if err := batch.append(PDUFetchResp, i, i*10, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	var out bytes.Buffer
	if err := batch.flush(&out); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(bytes.NewReader(out.Bytes()))
	for i := uint32(1); i <= 3; i++ {
		typ, tag, tenant, p, err := ReadWidePDUInto(br, nil)
		if err != nil {
			t.Fatal(err)
		}
		if typ != PDUFetchResp || tag != i || tenant != i*10 || len(p) != 1 || p[0] != byte(i) {
			t.Fatalf("frame %d: type=%d tag=%d tenant=%d payload=%v", i, typ, tag, tenant, p)
		}
	}
	if _, err := br.ReadByte(); err == nil {
		t.Fatal("trailing bytes after batch")
	}
}

// tenantEcho is a Handler answering every fetch with the tenant it saw,
// except tenant 99, which it always sheds.
type tenantEcho struct{ Handler }

func (tenantEcho) Fetch(tenant uint32, _ []uint32) (FetchResult, error) {
	if tenant == 99 {
		return FetchResult{}, fmt.Errorf("tenant 99 always shed: %w", ErrOverload)
	}
	return FetchResult{Timestamp: 1, Values: []FetchValue{{PMID: 1, Status: StatusOK, Value: uint64(tenant)}}}, nil
}

// TestTenantTravelsInBand proves SetTenant reaches a Version3 server's
// handler in-band: a hand-rolled server running the wide serving loop
// answers every fetch with the tenant it saw, and typed status errors
// travel back as errors.Is(..., ErrOverload).
func TestTenantTravelsInBand(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				br := bufio.NewReader(conn)
				bw := bufio.NewWriter(conn)
				if err := serverHandshake(br, bw); err != nil {
					return
				}
				typ, payload, err := ReadPDUInto(br, nil)
				if err != nil || typ != PDUVersionReq {
					return
				}
				respType, resp, version := negotiateVersion(payload, nil)
				if WritePDU(bw, respType, resp) != nil || bw.Flush() != nil {
					return
				}
				if version < Version3 {
					return
				}
				serveOrdered(conn, br, tenantEcho{}, true, new(reqScratch))
			}(conn)
		}
	}()

	c, err := DialTenant(ln.Addr().String(), 42)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if v := c.Version(); v != Version3 {
		t.Fatalf("negotiated %d, want Version3", v)
	}
	if got := c.Tenant(); got != 42 {
		t.Fatalf("Tenant() = %d, want 42", got)
	}
	res, err := c.Fetch([]uint32{1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Values) != 1 || res.Values[0].Value != 42 {
		t.Fatalf("server saw tenant %v, want 42", res.Values)
	}

	// Retenanting the same connection changes what the server sees.
	c.SetTenant(7)
	res, err = c.Fetch([]uint32{1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Values[0].Value != 7 {
		t.Fatalf("after SetTenant(7) server saw %d", res.Values[0].Value)
	}

	// A shed tenant gets a typed overload error, not a string match.
	c.SetTenant(99)
	if _, err := c.Fetch([]uint32{1}); !errors.Is(err, ErrOverload) {
		t.Fatalf("shed fetch err = %v, want ErrOverload", err)
	}
	var se *StatusError
	c.SetTenant(99)
	_, err = c.Fetch([]uint32{1})
	if !errors.As(err, &se) || se.Status != StatusOverload {
		t.Fatalf("err = %v, want *StatusError{StatusOverload}", err)
	}

	// The connection stays usable after a typed rejection.
	c.SetTenant(5)
	res, err = c.Fetch([]uint32{1})
	if err != nil || res.Values[0].Value != 5 {
		t.Fatalf("post-rejection fetch: %v %v", res, err)
	}
}
