package pcp

import (
	"encoding/binary"
	"fmt"
	"io"
	"sync"
)

// Tagged framing (wire protocol Version2 and up). Once a PDUVersionReq /
// PDUVersionResp exchange negotiates Version2 or higher, both sides
// switch from the plain 5-byte frame to one header layout:
//
//	u32 payload length | u8 type | u32 tag | [u32 tenant] | payload
//
// The tag is chosen by the requester and echoed verbatim in the
// response, which is what lets a connection carry many outstanding
// requests with out-of-order completion: the reader demultiplexes
// responses by tag instead of assuming lockstep order. The tenant field
// is present only on wide frames — the framing of Version3 and above —
// and identifies the requesting principal for admission control and
// per-tenant accounting at a proxy; servers echo it verbatim so
// middleboxes can attribute both directions of a stream without
// per-connection state. Any 32-bit tenant is structurally valid: policy
// about unknown tenants belongs to the admission layer, not the
// framing. Version1 peers never see a tagged frame, Version2 peers
// never see a wide one.

// Frame header sizes: 9 bytes tagged, 13 wide (tagged plus the tenant).
const (
	TaggedHdrLen = 9
	WideHdrLen   = TaggedHdrLen + 4
)

// frameHdrLen returns the header size of the connection's framing.
func frameHdrLen(wide bool) int {
	if wide {
		return WideHdrLen
	}
	return TaggedHdrLen
}

// frameHdrPool recycles frame headers, like hdrPool for plain ones; a
// tagged header uses the first TaggedHdrLen bytes.
var frameHdrPool = sync.Pool{
	New: func() any { return new([WideHdrLen]byte) },
}

// putFrameHdr encodes a frame header into hdr, whose length
// (frameHdrLen) says whether the tenant field is present.
func putFrameHdr(hdr []byte, typ uint8, tag, tenant uint32, payloadLen int) {
	binary.BigEndian.PutUint32(hdr[:4], uint32(payloadLen))
	hdr[4] = typ
	binary.BigEndian.PutUint32(hdr[5:9], tag)
	if len(hdr) == WideHdrLen {
		binary.BigEndian.PutUint32(hdr[9:13], tenant)
	}
}

// readFrameHdr reads one frame header (tenant is zero unless wide) and
// validates the length prefix against MaxPDUBytes before anything is
// allocated, so a hostile tag/length combination can fail with
// ErrProtocol but never force an oversized allocation. The payload (n
// bytes) is left unread: a demux reader that finds no waiter for the tag
// discards it with br.Discard instead of reading it into memory.
func readFrameHdr(r io.Reader, wide bool) (typ uint8, tag, tenant, n uint32, err error) {
	hp := frameHdrPool.Get().(*[WideHdrLen]byte)
	hdr := hp[:frameHdrLen(wide)]
	_, err = io.ReadFull(r, hdr)
	n = binary.BigEndian.Uint32(hdr[:4])
	typ = hdr[4]
	tag = binary.BigEndian.Uint32(hdr[5:9])
	if wide {
		tenant = binary.BigEndian.Uint32(hdr[9:13])
	}
	frameHdrPool.Put(hp)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	if n > MaxPDUBytes {
		return 0, 0, 0, 0, fmt.Errorf("%w (length prefix %d)", ErrPDUTooLarge, n)
	}
	return typ, tag, tenant, n, nil
}

// readFrameInto reads one whole frame, reading the payload into buf and
// growing it if needed — the tagged analogue of ReadPDUInto, with the
// same aliasing contract.
func readFrameInto(r io.Reader, wide bool, buf []byte) (typ uint8, tag, tenant uint32, payload []byte, err error) {
	typ, tag, tenant, n, err := readFrameHdr(r, wide)
	if err != nil {
		return 0, 0, 0, nil, err
	}
	if uint32(cap(buf)) < n {
		buf = make([]byte, n)
	}
	payload = buf[:n]
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, 0, 0, nil, err
	}
	return typ, tag, tenant, payload, nil
}

// writeFrame frames and writes one PDU. Like WritePDU it does not
// allocate in the steady state.
func writeFrame(w io.Writer, wide bool, typ uint8, tag, tenant uint32, payload []byte) error {
	if len(payload) > MaxPDUBytes {
		return fmt.Errorf("%w (writing %d bytes)", ErrPDUTooLarge, len(payload))
	}
	hp := frameHdrPool.Get().(*[WideHdrLen]byte)
	hdr := hp[:frameHdrLen(wide)]
	putFrameHdr(hdr, typ, tag, tenant, len(payload))
	_, err := w.Write(hdr)
	frameHdrPool.Put(hp)
	if err != nil {
		return err
	}
	_, err = w.Write(payload)
	return err
}

// WriteTaggedPDU frames and writes one tagged (Version2) PDU.
func WriteTaggedPDU(w io.Writer, typ uint8, tag uint32, payload []byte) error {
	return writeFrame(w, false, typ, tag, 0, payload)
}

// ReadTaggedPDUInto reads one whole tagged (Version2) PDU into buf.
func ReadTaggedPDUInto(r io.Reader, buf []byte) (typ uint8, tag uint32, payload []byte, err error) {
	typ, tag, _, payload, err = readFrameInto(r, false, buf)
	return typ, tag, payload, err
}

// WriteWidePDU frames and writes one wide (Version3) PDU.
func WriteWidePDU(w io.Writer, typ uint8, tag, tenant uint32, payload []byte) error {
	return writeFrame(w, true, typ, tag, tenant, payload)
}

// ReadWidePDUInto reads one whole wide (Version3) PDU into buf.
func ReadWidePDUInto(r io.Reader, buf []byte) (typ uint8, tag, tenant uint32, payload []byte, err error) {
	return readFrameInto(r, true, buf)
}

// frameBatch accumulates frames of one connection's framing in one
// contiguous buffer and writes them with a single Write, so a burst of
// pipelined requests or responses costs one syscall. Every payload is
// copied in: the batch never references caller memory, so a caller may
// reuse its encode buffer as soon as append returns.
type frameBatch struct {
	wide bool   // frames carry the tenant field (Version3)
	buf  []byte // pending frames, header + payload each
}

// append copies one frame into the batch.
func (b *frameBatch) append(typ uint8, tag, tenant uint32, payload []byte) error {
	if len(payload) > MaxPDUBytes {
		return fmt.Errorf("%w (writing %d bytes)", ErrPDUTooLarge, len(payload))
	}
	var hdr [WideHdrLen]byte
	n := frameHdrLen(b.wide)
	putFrameHdr(hdr[:n], typ, tag, tenant, len(payload))
	b.buf = append(b.buf, hdr[:n]...)
	b.buf = append(b.buf, payload...)
	return nil
}

// empty reports whether the batch holds no pending frames.
func (b *frameBatch) empty() bool { return len(b.buf) == 0 }

// flush writes every pending frame with one Write and resets the batch.
// The buffer is kept for reuse unless one oversized frame grew it far
// past what coalescing ever holds (serveFlushBytes plus a frame): that
// memory goes back to the collector instead of staying with the
// connection.
func (b *frameBatch) flush(w io.Writer) error {
	if len(b.buf) == 0 {
		return nil
	}
	_, err := w.Write(b.buf)
	if cap(b.buf) > 2*serveFlushBytes {
		b.buf = nil
	} else {
		b.buf = b.buf[:0]
	}
	return err
}
