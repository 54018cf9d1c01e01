package pcp

import (
	"io"
	"testing"
)

// The fetch PDU round trip runs once per counter read on the PCP route;
// with reused buffers the encode+decode pair must not allocate.
func TestFetchRespRoundTripDoesNotAllocate(t *testing.T) {
	res := FetchResult{Timestamp: 123456789}
	for i := 0; i < 16; i++ {
		res.Values = append(res.Values, FetchValue{PMID: uint32(i + 1), Status: StatusOK, Value: uint64(i) * 64})
	}
	var buf []byte
	var dec FetchResult
	// Prime the reusable buffers.
	buf = AppendFetchResp(buf[:0], res)
	if err := DecodeFetchRespInto(buf, &dec); err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(100, func() {
		buf = AppendFetchResp(buf[:0], res)
		if err := DecodeFetchRespInto(buf, &dec); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("fetch resp round trip allocates %.1f objects per run, want 0", got)
	}
	if len(dec.Values) != len(res.Values) || dec.Values[7] != res.Values[7] {
		t.Errorf("round trip corrupted values: %+v", dec.Values)
	}
}

// The request side of the same round trip.
func TestFetchReqRoundTripDoesNotAllocate(t *testing.T) {
	pmids := []uint32{1, 2, 3, 4, 5, 6, 7, 8}
	var buf []byte
	var dst []uint32
	buf = AppendFetchReq(buf[:0], pmids)
	var err error
	if dst, err = DecodeFetchReqInto(buf, dst[:0]); err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(100, func() {
		buf = AppendFetchReq(buf[:0], pmids)
		dst, err = DecodeFetchReqInto(buf, dst[:0])
		if err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("fetch req round trip allocates %.1f objects per run, want 0", got)
	}
	if len(dst) != len(pmids) || dst[3] != 4 {
		t.Errorf("round trip corrupted pmids: %v", dst)
	}
}

// The serving side of the same read: a warm in-order serving cycle —
// decode the request, fetch from the published snapshot (clock still),
// encode the response, frame it and flush — must not allocate. The
// per-connection dispatch is driven directly so only the server's work
// is counted. It pins the retained response buffer: before the server
// owned it, every response was encoded into a buffer that was never
// stored back and so allocated afresh.
func TestServeFetchDoesNotAllocate(t *testing.T) {
	d, _, _ := startPipelineDaemon(t, 16)
	pmids := make([]uint32, 16)
	for i := range pmids {
		pmids[i] = uint32(i + 1)
	}
	h := d.srv.newHandler()
	sc := reqScratch{payload: AppendFetchReq(nil, pmids)}
	batch := frameBatch{wide: true}
	cycle := func() {
		respType := sc.dispatch(h, PDUFetchReq, 7, true)
		if respType != PDUFetchResp {
			t.Fatalf("response type %d, want %d", respType, PDUFetchResp)
		}
		if err := batch.append(respType, 1, 7, sc.resp); err != nil {
			t.Fatal(err)
		}
		if err := batch.flush(io.Discard); err != nil {
			t.Fatal(err)
		}
	}
	cycle() // prime the reusable buffers
	if got := testing.AllocsPerRun(100, cycle); got != 0 {
		t.Errorf("serving cycle allocates %.1f objects per run, want 0", got)
	}
	var res FetchResult
	if err := DecodeFetchRespInto(sc.resp, &res); err != nil || len(res.Values) != 16 {
		t.Errorf("served response does not decode to 16 values: %+v, %v", res, err)
	}
}

// The client's round-trip seam must not cost an allocation on either
// transport: a warm FetchInto over loopback — lockstep at Version1,
// pipelined at MaxVersion — allocates nothing on the client or on the
// daemon serving it (both run in this process, so both are counted).
func TestClientFetchIntoDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on the goroutine hand-offs being counted")
	}
	_, _, addr := startPipelineDaemon(t, 16)
	pmids := make([]uint32, 16)
	for i := range pmids {
		pmids[i] = uint32(i + 1)
	}
	for _, v := range []uint32{Version1, MaxVersion} {
		c, err := DialMax(addr, v)
		if err != nil {
			t.Fatal(err)
		}
		var res FetchResult
		fetch := func() {
			if err := c.FetchInto(pmids, &res); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 10; i++ {
			fetch() // warm both ends' buffers
		}
		if got := testing.AllocsPerRun(200, fetch); got != 0 {
			t.Errorf("Version%d: warm FetchInto allocates %.1f objects per round trip, want 0", v, got)
		}
		c.Close()
	}
}
