package pcp

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

// wframe builds a tagged wire frame with an arbitrary (possibly lying)
// length prefix and an arbitrary (possibly hostile) tenant field for
// seeding the fuzzer.
func wframe(length uint32, typ uint8, tag, tenant uint32, payload []byte) []byte {
	b := make([]byte, WideHdrLen, WideHdrLen+len(payload))
	binary.BigEndian.PutUint32(b, length)
	b[4] = typ
	binary.BigEndian.PutUint32(b[5:9], tag)
	binary.BigEndian.PutUint32(b[9:13], tenant)
	return append(b, payload...)
}

// recordedPipelinedSession reproduces the byte stream of a realistic
// Version3 exchange — interleaved requests and out-of-order responses,
// including a batch — as seed material: the frames a demux reader
// actually sees, in an order lockstep framing never produces.
func recordedPipelinedSession(t interface{ Fatal(args ...any) }) []byte {
	var buf bytes.Buffer
	write := func(typ uint8, tag uint32, payload []byte) {
		if err := WriteTaggedPDU(&buf, typ, tag, payload); err != nil {
			t.Fatal(err)
		}
	}
	write(PDUNamesReq, 1, nil)
	write(PDUFetchReq, 2, AppendFetchReq(nil, []uint32{1, 2, 3}))
	write(PDUFetchBatchReq, 3, AppendFetchBatchReq(nil, [][]uint32{{1, 2}, {3}}))
	// Responses complete out of order: 3, 1, 2.
	write(PDUFetchBatchResp, 3, AppendFetchBatchResp(nil, []FetchResult{
		{Timestamp: 5, Values: []FetchValue{{PMID: 1, Status: StatusOK, Value: 5}, {PMID: 2, Status: StatusOK, Value: 5}}},
		{Timestamp: 5, Values: []FetchValue{{PMID: 3, Status: StatusNoSuchPMID}}},
	}, []string{"node7"}, "edge down"))
	write(PDUNamesResp, 1, AppendNamesResp(nil, []NameEntry{{PMID: 1, Name: "mem.read_bw"}}))
	write(PDUFetchResp, 2, AppendFetchResp(nil, FetchResult{Timestamp: 5, Values: []FetchValue{{PMID: 1, Status: StatusOK, Value: 5}}}))
	return buf.Bytes()
}

// FuzzReadTaggedPDU extends FuzzReadPDU's robustness contract to the
// tagged frame format: hostile tag/tenant/length combinations fail with
// ErrProtocol (never a panic, never an allocation past MaxPDUBytes),
// accepted frames round-trip bytewise through WriteWidePDU with type,
// tag and tenant preserved, ReadTaggedPDUInto agrees with
// ReadWidePDUInto, and the tagged-only payload decoders (version, batch
// request, batch response, status error) are total on every accepted
// payload.
func FuzzReadTaggedPDU(f *testing.F) {
	// Well-formed frames of each tagged PDU type.
	f.Add(wframe(4, PDUVersionReq, 0, 0, AppendVersion(nil, Version3)))
	f.Add(wframe(4, PDUVersionResp, 0, 0, AppendVersion(nil, Version1)))
	f.Add(wframe(uint32(len(AppendFetchReq(nil, []uint32{1, 2}))), PDUFetchReq, 7, 0, AppendFetchReq(nil, []uint32{1, 2})))
	br := AppendFetchBatchReq(nil, [][]uint32{{1, 2, 3}, {4}, {}})
	f.Add(wframe(uint32(len(br)), PDUFetchBatchReq, 9, 0, br))
	bresp := AppendFetchBatchResp(nil, []FetchResult{
		{Timestamp: 1, Values: []FetchValue{{PMID: 1, Status: StatusOK, Value: 1}}},
	}, nil, "")
	f.Add(wframe(uint32(len(bresp)), PDUFetchBatchResp, 9, 0, bresp))
	f.Add(wframe(uint32(len(AppendError(nil, "boom"))), PDUError, 0xDEADBEEF, 0, AppendError(nil, "boom")))
	se := AppendStatusError(nil, StatusOverload, "shed: tenant over quota")
	f.Add(wframe(uint32(len(se)), PDUStatusError, 11, 3, se))
	partial := AppendPartialResp(nil, FetchResult{Timestamp: 2, Values: []FetchValue{{PMID: 4, Status: StatusNodeDown}}}, []string{"node3"}, "edge down")
	f.Add(wframe(uint32(len(partial)), PDUFetchPartialResp, 12, 5, partial))
	// A recorded pipelined session: interleaved tags, out-of-order
	// completion, a partial batch. The fuzzer reads the first frame and
	// mutates from there into mid-stream corruption.
	f.Add(recordedPipelinedSession(f))
	f.Add(recordedPipelinedSession(f)[WideHdrLen:]) // session cut mid-stream at a frame boundary
	// Hostile tag/tenant/length combinations: any 32-bit tenant must be
	// structurally accepted (policy is the admission layer's job, not the
	// framing's).
	f.Add(wframe(0xFFFFFFFF, PDUFetchResp, 0xFFFFFFFF, 0, nil)) // oversize claim, hostile tag
	f.Add(wframe(0xFFFFFFFF, PDUFetchResp, 2, 0x41414141, nil)) // oversize claim, hostile tenant
	f.Add(wframe(MaxPDUBytes+1, PDUFetchBatchResp, 1, 0, nil))  // just over the cap
	f.Add(wframe(100, PDUFetchBatchReq, 2, 0, []byte{1, 2, 3})) // claims more than present
	f.Add(wframe(2, PDUVersionResp, 3, 0, []byte{0, 0, 0, 2}))  // claims less than present
	f.Add(wframe(4, PDUVersionReq, 0, 0xDEADBEEF, AppendVersion(nil, Version3)))
	f.Add(wframe(uint32(len(AppendFetchReq(nil, []uint32{1}))), PDUFetchReq, 1, 0xFFFFFFFF, AppendFetchReq(nil, []uint32{1})))
	f.Add([]byte{0, 0, 0, 1, 9, 0, 0, 0, 0}) // truncated header
	f.Add(wframe(8, PDUFetchBatchReq, 0, 0, bytes.Repeat([]byte{0xFF}, 8)))

	f.Fuzz(func(t *testing.T, data []byte) {
		typ, tag, tenant, payload, err := ReadWidePDUInto(bufio.NewReader(bytes.NewReader(data)), nil)
		if err != nil {
			if errors.Is(err, ErrPDUTooLarge) && !errors.Is(err, ErrProtocol) {
				t.Fatal("ErrPDUTooLarge must wrap ErrProtocol")
			}
			return
		}
		if len(payload) > MaxPDUBytes {
			t.Fatalf("accepted %d-byte payload beyond MaxPDUBytes", len(payload))
		}
		ttyp, ttag, tpayload, err := ReadTaggedPDUInto(bufio.NewReader(bytes.NewReader(data)), nil)
		if err != nil || ttyp != typ || ttag != tag || !bytes.Equal(tpayload, payload) {
			t.Fatalf("ReadTaggedPDUInto disagrees with ReadWidePDUInto: type %d/%d, tag %d/%d, err %v",
				ttyp, typ, ttag, tag, err)
		}
		// An accepted frame round-trips bytewise, tag and tenant included.
		var buf bytes.Buffer
		if err := WriteWidePDU(&buf, typ, tag, tenant, payload); err != nil {
			t.Fatalf("WriteWidePDU of accepted frame: %v", err)
		}
		typ2, tag2, tenant2, payload2, err := ReadWidePDUInto(bufio.NewReader(bytes.NewReader(buf.Bytes())), nil)
		if err != nil {
			t.Fatalf("re-read of written frame: %v", err)
		}
		if typ2 != typ || tag2 != tag || tenant2 != tenant || !bytes.Equal(payload2, payload) {
			t.Fatalf("round trip changed frame: type %d->%d, tag %d->%d, tenant %d->%d, %d->%d bytes",
				typ, typ2, tag, tag2, tenant, tenant2, len(payload), len(payload2))
		}
		// Header-only reads must leave the payload unread so a demux
		// reader can discard unknown tags without buffering them.
		hr := bytes.NewReader(buf.Bytes())
		if _, _, _, n, err := readFrameHdr(hr); err != nil {
			t.Fatalf("readFrameHdr on accepted frame: %v", err)
		} else if hr.Len() != int(n) {
			t.Fatalf("readFrameHdr consumed payload bytes: %d left, want %d", hr.Len(), n)
		}
		// Tagged-only decoders must be total on arbitrary accepted payloads.
		if v, err := DecodeVersion(payload); err == nil && v == 0 {
			t.Fatal("DecodeVersion accepted version 0")
		}
		if sets, err := DecodeFetchBatchReqInto(payload, nil); err == nil {
			if len(sets) > MaxBatchSets {
				t.Fatalf("DecodeFetchBatchReqInto produced implausible %d sets", len(sets))
			}
		}
		if out, pe, err := DecodeFetchBatchRespInto(payload, nil); err == nil {
			total := 0
			for _, r := range out {
				total += len(r.Values)
			}
			if total > MaxPDUBytes/12 {
				t.Fatalf("DecodeFetchBatchRespInto produced implausible %d values", total)
			}
			if pe != nil && len(pe.Missing) > MaxPDUBytes/4 {
				t.Fatalf("DecodeFetchBatchRespInto produced implausible %d missing nodes", len(pe.Missing))
			}
		}
		if se, err := DecodeStatusError(payload); err == nil {
			if errors.Is(se, ErrOverload) != (se.Status == StatusOverload) {
				t.Fatalf("StatusError{%d} overload classification inconsistent", se.Status)
			}
		}
	})
}
