package pcp

import (
	"encoding/binary"
	"fmt"
	"io"
	"sync"
)

// Tagged framing (wire protocol Version3). Once a PDUVersionReq /
// PDUVersionResp exchange negotiates Version3, both sides switch from
// the plain 5-byte frame to one 13-byte header layout:
//
//	u32 payload length | u8 type | u32 tag | u32 tenant | payload
//
// The tag is chosen by the requester and echoed verbatim in the
// response, which is what lets a connection carry many outstanding
// requests with out-of-order completion: the reader demultiplexes
// responses by tag instead of assuming lockstep order. The tenant
// identifies the requesting principal for admission control and
// per-tenant accounting at a proxy; servers echo it verbatim so
// middleboxes can attribute both directions of a stream without
// per-connection state. Any 32-bit tenant is structurally valid: policy
// about unknown tenants belongs to the admission layer, not the
// framing. Version1 peers never see a tagged frame.

// WideHdrLen is the tagged frame header size.
const WideHdrLen = 13

// frameHdrPool recycles frame headers, like hdrPool for plain ones.
var frameHdrPool = sync.Pool{
	New: func() any { return new([WideHdrLen]byte) },
}

// appendFrameHdr appends one frame header to dst.
func appendFrameHdr(dst []byte, typ uint8, tag, tenant uint32, payloadLen int) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(payloadLen))
	dst = append(dst, typ)
	dst = binary.BigEndian.AppendUint32(dst, tag)
	return binary.BigEndian.AppendUint32(dst, tenant)
}

// readFrameHdr reads one frame header and validates the length prefix
// against MaxPDUBytes before anything is allocated, so a hostile
// tag/length combination can fail with ErrProtocol but never force an
// oversized allocation. The payload (n bytes) is left unread: a demux
// reader that finds no waiter for the tag discards it with br.Discard
// instead of reading it into memory.
func readFrameHdr(r io.Reader) (typ uint8, tag, tenant, n uint32, err error) {
	hdr := frameHdrPool.Get().(*[WideHdrLen]byte)
	_, err = io.ReadFull(r, hdr[:])
	n = binary.BigEndian.Uint32(hdr[:4])
	typ = hdr[4]
	tag = binary.BigEndian.Uint32(hdr[5:9])
	tenant = binary.BigEndian.Uint32(hdr[9:13])
	frameHdrPool.Put(hdr)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	if n > MaxPDUBytes {
		return 0, 0, 0, 0, fmt.Errorf("%w (length prefix %d)", ErrPDUTooLarge, n)
	}
	return typ, tag, tenant, n, nil
}

// ReadWidePDUInto reads one whole tagged (Version3) PDU, reading the
// payload into buf and growing it if needed — the tagged analogue of
// ReadPDUInto, with the same aliasing contract.
func ReadWidePDUInto(r io.Reader, buf []byte) (typ uint8, tag, tenant uint32, payload []byte, err error) {
	typ, tag, tenant, n, err := readFrameHdr(r)
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

// WriteWidePDU frames and writes one tagged (Version3) PDU. Like
// WritePDU it does not allocate in the steady state.
func WriteWidePDU(w io.Writer, typ uint8, tag, tenant uint32, payload []byte) error {
	if len(payload) > MaxPDUBytes {
		return fmt.Errorf("%w (writing %d bytes)", ErrPDUTooLarge, len(payload))
	}
	hp := frameHdrPool.Get().(*[WideHdrLen]byte)
	_, err := w.Write(appendFrameHdr(hp[:0], typ, tag, tenant, len(payload)))
	frameHdrPool.Put(hp)
	if err != nil {
		return err
	}
	_, err = w.Write(payload)
	return err
}

// WriteTaggedPDU is WriteWidePDU for the default tenant.
func WriteTaggedPDU(w io.Writer, typ uint8, tag uint32, payload []byte) error {
	return WriteWidePDU(w, typ, tag, 0, payload)
}

// ReadTaggedPDUInto is ReadWidePDUInto without the tenant.
func ReadTaggedPDUInto(r io.Reader, buf []byte) (typ uint8, tag uint32, payload []byte, err error) {
	typ, tag, _, payload, err = ReadWidePDUInto(r, buf)
	return typ, tag, payload, err
}

// frameBatch accumulates tagged frames in one contiguous buffer and
// writes them with a single Write, so a burst of pipelined requests or
// responses costs one syscall. Every payload is copied in: the batch
// never references caller memory, so a caller may reuse its encode
// buffer as soon as append returns.
type frameBatch struct {
	buf []byte // pending frames, header + payload each
}

// append copies one frame into the batch.
func (b *frameBatch) append(typ uint8, tag, tenant uint32, payload []byte) error {
	if len(payload) > MaxPDUBytes {
		return fmt.Errorf("%w (writing %d bytes)", ErrPDUTooLarge, len(payload))
	}
	b.buf = appendFrameHdr(b.buf, typ, tag, tenant, len(payload))
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
