package archive

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"papimc/internal/pcp"
)

// On-disk format.
//
// Version 1 ("PMLG1\n"): magic, schema, row count, one keyframe+delta
// stream. Still read bit-for-bit compatibly (the golden-archive interop
// test pins it); rollup tiers are rebuilt from the raw rows on load.
//
// Version 2 ("PMLG2\n"), what WriteTo now emits:
//
//	magic "PMLG2\n"
//	schema: uvarint nNames, then per name uvarint pmid, uvarint len, bytes
//	raw tier: uvarint nChunks, then per chunk
//	    uvarint rowCount, uvarint bufLen, bufLen delta-encoded bytes
//	    (each chunk decodes independently: first row is a keyframe)
//	sections: uvarint nSections, then per section
//	    uvarint id, uvarint len, len bytes
//
// Sections are optional and tagged: a reader skips unknown ids, so the
// format is forward-extensible and old v2 archives stay readable when
// new sections appear. Current sections:
//
//	id 1, block index: per chunk varint firstTS, varint lastTS. Lets a
//	    reader sanity-check chunk boundaries; per-column summaries are
//	    recomputed during the mandatory validation decode, so lying
//	    on-disk summaries cannot poison queries.
//	id 2, rollup tiers: uvarint nTiers, per tier uvarint res,
//	    uvarint evicted, uvarint nBuckets, then per bucket
//	    varint start, uvarint count, uvarint firstTS-start,
//	    uvarint lastTS-firstTS, then per column uvarint first,
//	    varint last-first, varint min-first, varint max-first,
//	    8-byte LE float64 sum, varint delta. Rollups carry history
//	    that may extend past the retained raw rows (raw folded by the
//	    compactor), so they are stored, not re-derived.

const (
	fileMagicV1 = "PMLG1\n"
	fileMagicV2 = "PMLG2\n"

	sectionBlockIndex = 1
	sectionRollups    = 2
)

// Parse caps against hostile inputs.
const (
	maxNames       = 1 << 20
	maxChunks      = 1 << 22
	maxChunkRows   = 1 << 24
	maxSections    = 1 << 10
	maxTiers       = 1 << 10
	maxTierBuckets = 1 << 24
)

// WriteTo serializes the archive in format version 2: the raw chunks
// verbatim (sealed blocks plus the tail), the block index, and the
// rollup tiers.
func (a *Archive) WriteTo(w io.Writer) (int64, error) {
	a.mu.Lock()
	s := a.snap.Load()
	tailBuf := append([]byte(nil), a.tailBuf...)
	a.mu.Unlock()

	var buf []byte
	buf = append(buf, fileMagicV2...)
	buf = binary.AppendUvarint(buf, uint64(len(a.names)))
	for _, e := range a.names {
		buf = binary.AppendUvarint(buf, uint64(e.PMID))
		buf = binary.AppendUvarint(buf, uint64(len(e.Name)))
		buf = append(buf, e.Name...)
	}

	// Raw chunks.
	nChunks := len(s.blocks)
	if len(s.tail) > 0 {
		nChunks++
	}
	buf = binary.AppendUvarint(buf, uint64(nChunks))
	writeChunk := func(count int, b []byte) {
		buf = binary.AppendUvarint(buf, uint64(count))
		buf = binary.AppendUvarint(buf, uint64(len(b)))
		buf = append(buf, b...)
	}
	for _, b := range s.blocks {
		writeChunk(b.Count, b.buf)
	}
	if len(s.tail) > 0 {
		writeChunk(len(s.tail), tailBuf)
	}

	// Sections.
	var idx []byte
	for _, b := range s.blocks {
		idx = binary.AppendVarint(idx, b.FirstTS)
		idx = binary.AppendVarint(idx, b.LastTS)
	}
	if len(s.tail) > 0 {
		idx = binary.AppendVarint(idx, s.tail[0].Timestamp)
		idx = binary.AppendVarint(idx, s.tail[len(s.tail)-1].Timestamp)
	}
	var rol []byte
	rol = binary.AppendUvarint(rol, uint64(len(s.tiers)))
	for i := range s.tiers {
		t := &s.tiers[i]
		rol = binary.AppendUvarint(rol, uint64(t.res))
		rol = binary.AppendUvarint(rol, uint64(t.evicted))
		rol = binary.AppendUvarint(rol, uint64(t.count()))
		for j := 0; j < t.count(); j++ {
			b := t.at(j)
			rol = binary.AppendVarint(rol, b.Start)
			rol = binary.AppendUvarint(rol, uint64(b.Count))
			rol = binary.AppendUvarint(rol, uint64(b.FirstTS-b.Start))
			rol = binary.AppendUvarint(rol, uint64(b.LastTS-b.FirstTS))
			for c := range b.Cols {
				ca := &b.Cols[c]
				rol = binary.AppendUvarint(rol, ca.First)
				rol = binary.AppendVarint(rol, int64(ca.Last-ca.First))
				rol = binary.AppendVarint(rol, int64(ca.Min-ca.First))
				rol = binary.AppendVarint(rol, int64(ca.Max-ca.First))
				rol = binary.LittleEndian.AppendUint64(rol, math.Float64bits(ca.Sum))
				rol = binary.AppendVarint(rol, ca.Delta)
			}
		}
	}
	buf = binary.AppendUvarint(buf, 2)
	buf = binary.AppendUvarint(buf, sectionBlockIndex)
	buf = binary.AppendUvarint(buf, uint64(len(idx)))
	buf = append(buf, idx...)
	buf = binary.AppendUvarint(buf, sectionRollups)
	buf = binary.AppendUvarint(buf, uint64(len(rol)))
	buf = append(buf, rol...)

	n, err := w.Write(buf)
	return int64(n), err
}

// parser is a bounds-checked varint cursor over a byte slice.
type parser struct {
	buf []byte
	err error
}

func (p *parser) uv() uint64 {
	if p.err != nil {
		return 0
	}
	v, n := binary.Uvarint(p.buf)
	if n <= 0 {
		p.err = fmt.Errorf("%w: truncated uvarint", ErrFormat)
		return 0
	}
	p.buf = p.buf[n:]
	return v
}

func (p *parser) sv() int64 {
	if p.err != nil {
		return 0
	}
	v, n := binary.Varint(p.buf)
	if n <= 0 {
		p.err = fmt.Errorf("%w: truncated varint", ErrFormat)
		return 0
	}
	p.buf = p.buf[n:]
	return v
}

func (p *parser) bytes(n uint64) []byte {
	if p.err != nil {
		return nil
	}
	if uint64(len(p.buf)) < n {
		p.err = fmt.Errorf("%w: truncated field (%d bytes wanted, %d left)", ErrFormat, n, len(p.buf))
		return nil
	}
	b := p.buf[:n]
	p.buf = p.buf[n:]
	return b
}

func (p *parser) f64() float64 {
	b := p.bytes(8)
	if p.err != nil {
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}

// readSchema parses the name table shared by both format versions.
func readSchema(p *parser) ([]pcp.NameEntry, error) {
	nNames := p.uv()
	if p.err != nil {
		return nil, p.err
	}
	if nNames == 0 || nNames > maxNames {
		return nil, fmt.Errorf("%w: implausible name count %d", ErrFormat, nNames)
	}
	names := make([]pcp.NameEntry, 0, nNames)
	for i := uint64(0); i < nNames; i++ {
		pmid := p.uv()
		ln := p.uv()
		if p.err != nil {
			return nil, p.err
		}
		nb := p.bytes(ln)
		if p.err != nil {
			return nil, fmt.Errorf("%w: truncated name", ErrFormat)
		}
		names = append(names, pcp.NameEntry{PMID: uint32(pmid), Name: string(nb)})
	}
	return names, nil
}

// Read deserializes an archive written by WriteTo, either format
// version. The file's rollup tiers (if any) replace the tier set from
// opts — they can carry history the raw rows no longer do.
func Read(r io.Reader, opts Options) (*Archive, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	magicLen := len(fileMagicV1)
	if len(data) < magicLen {
		return nil, fmt.Errorf("%w: missing magic", ErrFormat)
	}
	switch string(data[:magicLen]) {
	case fileMagicV1:
		return readV1(data[magicLen:], opts)
	case fileMagicV2:
		return readV2(data[magicLen:], opts)
	}
	return nil, fmt.Errorf("%w: missing magic", ErrFormat)
}

// readV1 parses the legacy single-stream format by replaying every row
// through the append path, which also rebuilds the rollup tiers.
func readV1(buf []byte, opts Options) (*Archive, error) {
	p := &parser{buf: buf}
	names, err := readSchema(p)
	if err != nil {
		return nil, err
	}
	a, err := New(names, opts)
	if err != nil {
		return nil, err
	}
	nRows := p.uv()
	if p.err != nil {
		return nil, p.err
	}
	for rc := newRowCursor(p.buf, len(names)); uint64(rc.n) < nRows; {
		if err := rc.next(); err != nil {
			return nil, err
		}
		if err := a.AppendSample(rc.row()); err != nil {
			return nil, err
		}
	}
	return a, nil
}

// readV2 parses the chunked format: raw chunks become sealed blocks
// (summaries recomputed from the decoded rows, never trusted from
// disk), known sections are validated, unknown sections are skipped.
func readV2(buf []byte, opts Options) (*Archive, error) {
	p := &parser{buf: buf}
	names, err := readSchema(p)
	if err != nil {
		return nil, err
	}
	a, err := New(names, opts)
	if err != nil {
		return nil, err
	}
	width := len(names)

	nChunks := p.uv()
	if p.err != nil {
		return nil, p.err
	}
	if nChunks > maxChunks {
		return nil, fmt.Errorf("%w: implausible chunk count %d", ErrFormat, nChunks)
	}
	blocks := make([]*block, 0, nChunks)
	var prevLast *Sample
	var rawSamples, sealedBytes int
	for i := uint64(0); i < nChunks; i++ {
		count := p.uv()
		blen := p.uv()
		if p.err != nil {
			return nil, p.err
		}
		if count == 0 || count > maxChunkRows {
			return nil, fmt.Errorf("%w: implausible chunk row count %d", ErrFormat, count)
		}
		// Every row costs at least one byte for the timestamp and one
		// per column, so a chunk shorter than that is lying about its
		// row count (and would otherwise pre-allocate on its say-so).
		if blen < count*uint64(1+width) {
			return nil, fmt.Errorf("%w: chunk of %d rows in %d bytes", ErrFormat, count, blen)
		}
		cb := p.bytes(blen)
		if p.err != nil {
			return nil, p.err
		}
		rows, err := decodeRows(cb, int(count), width, true)
		if err != nil {
			return nil, err
		}
		for j := 1; j < len(rows); j++ {
			if rows[j].Timestamp <= rows[j-1].Timestamp {
				return nil, fmt.Errorf("%w: non-monotonic rows in chunk", ErrFormat)
			}
		}
		if prevLast != nil && rows[0].Timestamp <= prevLast.Timestamp {
			return nil, fmt.Errorf("%w: chunks out of order", ErrFormat)
		}
		blk := sealBlock(append([]byte(nil), cb...), rows)
		blocks = append(blocks, blk)
		rawSamples += blk.Count
		sealedBytes += len(blk.buf)
		last := rows[len(rows)-1]
		prevLast = &last
	}

	// Sections.
	nSections := p.uv()
	if p.err != nil {
		return nil, p.err
	}
	if nSections > maxSections {
		return nil, fmt.Errorf("%w: implausible section count %d", ErrFormat, nSections)
	}
	var tiers []tierSnap
	sawRollups := false
	for i := uint64(0); i < nSections; i++ {
		id := p.uv()
		slen := p.uv()
		if p.err != nil {
			return nil, p.err
		}
		payload := p.bytes(slen)
		if p.err != nil {
			return nil, p.err
		}
		switch id {
		case sectionBlockIndex:
			if err := validateBlockIndex(payload, blocks); err != nil {
				return nil, err
			}
		case sectionRollups:
			t, err := parseRollups(payload, width)
			if err != nil {
				return nil, err
			}
			tiers, sawRollups = t, true
		default:
			// Unknown section: skip. Forward compatibility.
		}
	}
	if len(p.buf) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrFormat, len(p.buf))
	}

	s := &snapshot{
		blocks:      blocks,
		rawSamples:  rawSamples,
		sealedBytes: sealedBytes,
		appended:    rawSamples,
	}
	if prevLast != nil {
		s.last, s.lastTS, s.seenAny = prevLast, prevLast.Timestamp, true
	}
	if sawRollups {
		// The file's tier set wins: it can hold folded history the raw
		// rows no longer cover. Cross-check it against the raw rows.
		if err := validateTiers(tiers, s); err != nil {
			return nil, err
		}
		s.tiers = tiers
		for i := range tiers {
			t := &s.tiers[i]
			if n := len(t.done); n > 0 {
				last := t.done[n-1]
				t.done = t.done[: n-1 : n-1]
				t.cur = &last
			}
			if t.cur != nil && (!s.seenAny || t.cur.LastTS > s.lastTS) {
				s.lastTS, s.seenAny = t.cur.LastTS, true
			}
		}
	} else {
		// No rollup section (e.g. a minimal v2 writer): rebuild the
		// configured tiers from the raw rows.
		s.tiers = a.snap.Load().tiers
		for _, b := range blocks {
			for rc := newRowCursor(b.buf, width); rc.n < b.Count; {
				if err := rc.next(); err != nil {
					return nil, err
				}
				for ti := range s.tiers {
					s.tiers[ti] = updateTier(&s.tiers[ti], rc.row(), a.opts.MaxBuckets)
				}
			}
		}
	}
	a.snap.Store(s)
	return a, nil
}

// validateBlockIndex cross-checks the on-disk index against the chunk
// boundaries recomputed from the decoded rows.
func validateBlockIndex(payload []byte, blocks []*block) error {
	p := &parser{buf: payload}
	for _, b := range blocks {
		first, last := p.sv(), p.sv()
		if p.err != nil {
			return p.err
		}
		if first != b.FirstTS || last != b.LastTS {
			return fmt.Errorf("%w: block index disagrees with chunk (%d..%d vs %d..%d)",
				ErrFormat, first, last, b.FirstTS, b.LastTS)
		}
	}
	if len(p.buf) != 0 {
		return fmt.Errorf("%w: %d trailing bytes in block index", ErrFormat, len(p.buf))
	}
	return nil
}

// parseRollups decodes and structurally validates the rollup section:
// ascending distinct resolutions, aligned ascending bucket starts,
// sample spans inside their buckets, extrema bracketing first/last,
// finite sums.
func parseRollups(payload []byte, width int) ([]tierSnap, error) {
	p := &parser{buf: payload}
	nTiers := p.uv()
	if p.err != nil {
		return nil, p.err
	}
	if nTiers > maxTiers {
		return nil, fmt.Errorf("%w: implausible tier count %d", ErrFormat, nTiers)
	}
	tiers := make([]tierSnap, 0, nTiers)
	for i := uint64(0); i < nTiers; i++ {
		res := p.uv()
		evicted := p.uv()
		nBuckets := p.uv()
		if p.err != nil {
			return nil, p.err
		}
		if res == 0 || res > uint64(math.MaxInt64) {
			return nil, fmt.Errorf("%w: bad tier resolution %d", ErrFormat, res)
		}
		if len(tiers) > 0 && int64(res) <= tiers[len(tiers)-1].res {
			return nil, fmt.Errorf("%w: tier resolutions not ascending", ErrFormat)
		}
		if nBuckets > maxTierBuckets {
			return nil, fmt.Errorf("%w: implausible bucket count %d", ErrFormat, nBuckets)
		}
		// Each bucket costs at least 4 header bytes plus 13 per column.
		if minBytes := nBuckets * uint64(4+13*width); uint64(len(p.buf)) < minBytes {
			return nil, fmt.Errorf("%w: %d buckets in %d bytes", ErrFormat, nBuckets, len(p.buf))
		}
		if evicted > 1<<40 {
			return nil, fmt.Errorf("%w: implausible evicted count %d", ErrFormat, evicted)
		}
		t := tierSnap{res: int64(res), evicted: int(evicted)}
		t.done = make([]Bucket, 0, nBuckets)
		for j := uint64(0); j < nBuckets; j++ {
			b := Bucket{Cols: make([]ColAgg, width)}
			b.Start = p.sv()
			count := p.uv()
			dFirst := p.uv()
			dLast := p.uv()
			if p.err != nil {
				return nil, p.err
			}
			if count == 0 || count > maxChunkRows*64 {
				return nil, fmt.Errorf("%w: bad bucket count %d", ErrFormat, count)
			}
			if dFirst >= res || dLast >= res {
				return nil, fmt.Errorf("%w: bucket sample span escapes bucket", ErrFormat)
			}
			b.Count = int(count)
			b.FirstTS = b.Start + int64(dFirst)
			b.LastTS = b.FirstTS + int64(dLast)
			if b.LastTS >= b.Start+int64(res) || alignDown(b.FirstTS, int64(res)) != b.Start {
				return nil, fmt.Errorf("%w: bucket sample span escapes bucket", ErrFormat)
			}
			if n := len(t.done); n > 0 && b.Start <= t.done[n-1].Start {
				return nil, fmt.Errorf("%w: bucket starts not ascending", ErrFormat)
			}
			for c := 0; c < width; c++ {
				ca := &b.Cols[c]
				ca.First = p.uv()
				ca.Last = ca.First + uint64(p.sv())
				ca.Min = ca.First + uint64(p.sv())
				ca.Max = ca.First + uint64(p.sv())
				ca.Sum = p.f64()
				ca.Delta = p.sv()
				if p.err != nil {
					return nil, p.err
				}
				if ca.Min > ca.First || ca.Max < ca.First || ca.Min > ca.Last || ca.Max < ca.Last {
					return nil, fmt.Errorf("%w: bucket extrema do not bracket first/last", ErrFormat)
				}
				if math.IsNaN(ca.Sum) || math.IsInf(ca.Sum, 0) {
					return nil, fmt.Errorf("%w: non-finite bucket sum", ErrFormat)
				}
			}
			t.done = append(t.done, b)
		}
		tiers = append(tiers, t)
	}
	if len(p.buf) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes in rollup section", ErrFormat, len(p.buf))
	}
	return tiers, nil
}

// validateTiers cross-checks parsed tiers against the raw rows: every
// non-empty tier must end at the same newest timestamp (the writer
// updates all tiers on every append), and when raw rows exist that
// timestamp is the newest raw row's.
func validateTiers(tiers []tierSnap, s *snapshot) error {
	newest := int64(math.MinInt64)
	have := false
	for i := range tiers {
		t := &tiers[i]
		if n := len(t.done); n > 0 {
			end := t.done[n-1].LastTS
			if have && end != newest {
				return fmt.Errorf("%w: rollup tiers end at different timestamps", ErrFormat)
			}
			newest, have = end, true
		}
	}
	if have && s.seenAny && newest != s.lastTS {
		return fmt.Errorf("%w: rollup tiers end at %d but raw rows end at %d", ErrFormat, newest, s.lastTS)
	}
	return nil
}
