// Package archive implements the pmlogger analogue: an append-only
// time-series archive of PCP fetch results, so profiles and figures can
// be replayed from a recording instead of a live daemon — grown here
// into a small TSDB: multi-resolution rollup tiers, an indexed block
// store with lock-free snapshot reads, and a background compactor.
//
// Raw samples are stored varint-delta encoded — each row is the zigzag
// varint of the timestamp delta followed by one zigzag varint per
// counter delta — in fixed-size blocks whose first row is absolute, so
// any block decodes independently. Every sealed block carries the same
// summary a rollup bucket does ([FirstTS, LastTS], the row count and one
// ColAgg per column), so range queries binary-search to the covering
// blocks and windows and rates merge the summaries of the blocks they
// cover instead of decoding rows. A block a window edge splits is cut
// there into two more such summaries, and a bounded ring keeps the most
// recent cuts, so a dashboard refreshing the same steps parses nothing.
//
// Alongside the raw tier the archive maintains rollup tiers (10s and 5m
// buckets by default), updated incrementally on Append: each bucket
// stores count/first/last/min/max/sum per column plus the wrap-corrected
// intra-bucket delta, and the step between two adjacent buckets is
// recoverable exactly as pcp.CounterDelta(prev.Last, next.First) —
// adjacent buckets always hold adjacent samples at their facing edges —
// so rates over rollups are exact for wrapped counters on bucket-aligned
// windows. Compact (or the background compactor) folds aged raw blocks
// out of the raw tier once the rollups cover them, the production
// retention pattern: raw for hours, 10s for days, 5m for months.
//
// All writers (Append, Compact) serialize on a mutex and publish an
// immutable snapshot through an atomic pointer; readers load the pointer
// once and never block — the same publication pattern the PMCD daemon
// uses for its metric snapshots.
//
// The schema (the PMID set and the name table) is fixed when the
// archive is created, exactly like a real pmlogger archive's metadata
// volume.
package archive

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"papimc/internal/pcp"
)

// Errors returned by the archive.
var (
	// ErrOutOfOrder rejects a sample older than the newest recorded one.
	ErrOutOfOrder = errors.New("archive: sample out of order")
	// ErrEmpty indicates a query against an archive with no samples.
	ErrEmpty = errors.New("archive: no samples")
	// ErrNoPMID indicates a query for a PMID outside the schema.
	ErrNoPMID = errors.New("archive: pmid not in schema")
	// ErrSchema rejects a fetch result that does not cover the schema.
	ErrSchema = errors.New("archive: fetch result does not match schema")
	// ErrFormat indicates a corrupt serialized archive.
	ErrFormat = errors.New("archive: bad archive format")
	// ErrNoTier indicates a query at a resolution with no rollup tier.
	ErrNoTier = errors.New("archive: no rollup tier at that resolution")
)

// Sample is one decoded row: the daemon's sample timestamp and one value
// per schema PMID, in schema order. Samples returned by queries may
// share storage with the archive's decoded-block cache and must be
// treated as read-only.
type Sample struct {
	Timestamp int64
	Values    []uint64
}

// Options tune archive construction.
type Options struct {
	// MaxBytes bounds the encoded raw sample storage; oldest blocks are
	// evicted once it is exceeded. 0 means DefaultMaxBytes.
	MaxBytes int
	// BlockSamples is the number of rows per raw block. 0 means
	// DefaultBlockSamples.
	BlockSamples int
	// Rollups lists the rollup tier bucket widths in nanoseconds,
	// strictly ascending. nil means DefaultRollups (10s and 5m); an
	// explicit empty non-nil slice disables rollups.
	Rollups []int64
	// MaxBuckets bounds each rollup tier's retained buckets (oldest
	// evicted past it). 0 means DefaultMaxBuckets.
	MaxBuckets int
	// RawRetention is how much full-resolution history Compact keeps,
	// in nanoseconds: raw blocks wholly older than newest-RawRetention
	// are folded out of the raw tier once every rollup tier covers
	// them. 0 disables age-based folding (raw is evicted only by the
	// MaxBytes ring budget).
	RawRetention int64
}

// Defaults for Options.
const (
	DefaultMaxBytes     = 4 << 20
	DefaultBlockSamples = 64
	DefaultMaxBuckets   = 1 << 17
)

// Res10s and Res5m are the default rollup resolutions.
const (
	ResRaw Resolution = 0
	Res10s Resolution = 10_000_000_000
	Res5m  Resolution = 300_000_000_000
)

// DefaultRollups returns the default tier set (10s, 5m).
func DefaultRollups() []int64 { return []int64{int64(Res10s), int64(Res5m)} }

// Resolution identifies a storage tier by its bucket width in
// nanoseconds; 0 is the raw (full-resolution) tier.
type Resolution int64

func (r Resolution) String() string {
	if r == 0 {
		return "raw"
	}
	switch {
	case int64(r)%1_000_000_000 == 0:
		return fmt.Sprintf("%ds", int64(r)/1_000_000_000)
	case int64(r)%1_000_000 == 0:
		return fmt.Sprintf("%dms", int64(r)/1_000_000)
	default:
		return fmt.Sprintf("%dns", int64(r))
	}
}

// ColAgg summarises one column over a run of consecutive samples: a
// rollup bucket or a sealed raw block.
type ColAgg struct {
	First, Last uint64  // first/last sample values in the run
	Min, Max    uint64  // extrema
	Sum         float64 // Σ float64(value), for averages
	Delta       int64   // Σ wrap-corrected steps strictly inside the run
}

// add folds the run's next sample into g; n is how many it already holds.
func (g *ColAgg) add(v uint64, n int) {
	g.merge(&ColAgg{First: v, Last: v, Min: v, Max: v, Sum: float64(v)}, n)
}

// merge appends the summary o of the samples that directly follow g's
// n samples. The step across the seam is recoverable exactly from the
// facing edges, so the merged Delta is the one a single fold over all
// the rows would have produced.
func (g *ColAgg) merge(o *ColAgg, n int) {
	if n == 0 {
		*g = *o
		return
	}
	g.Delta += int64(pcp.CounterDelta(g.Last, o.First)) + o.Delta
	g.Last = o.Last
	g.Min, g.Max = min(g.Min, o.Min), max(g.Max, o.Max)
	g.Sum += o.Sum
}

// Bucket is one rollup row: the aggregate of every raw sample whose
// timestamp falls in [Start, Start+resolution). The step between two
// adjacent retained buckets is exactly
// pcp.CounterDelta(prev.Cols[c].Last, next.Cols[c].First): their facing
// edge samples are adjacent in the raw stream, so rates reconstructed
// from rollups are exact for wrapped counters on bucket-aligned windows.
type Bucket struct {
	Start   int64 // bucket start, aligned to the tier resolution
	FirstTS int64 // timestamp of the first sample in the bucket
	LastTS  int64 // timestamp of the last sample in the bucket
	Count   int   // samples folded in
	Cols    []ColAgg
}

// addRow folds the next row into the bucket, in place.
func (b *Bucket) addRow(row Sample) {
	if b.Count == 0 {
		b.FirstTS = row.Timestamp
		if b.Cols == nil {
			b.Cols = make([]ColAgg, len(row.Values))
		}
	}
	for c, v := range row.Values {
		b.Cols[c].add(v, b.Count)
	}
	b.LastTS = row.Timestamp
	b.Count++
}

// firstRow and lastRow synthesize the bucket's oldest and newest sample
// from its aggregates.
func (b *Bucket) firstRow() Sample {
	row := Sample{Timestamp: b.FirstTS, Values: make([]uint64, len(b.Cols))}
	for c := range b.Cols {
		row.Values[c] = b.Cols[c].First
	}
	return row
}

func (b *Bucket) lastRow() Sample {
	row := Sample{Timestamp: b.LastTS, Values: make([]uint64, len(b.Cols))}
	for c := range b.Cols {
		row.Values[c] = b.Cols[c].Last
	}
	return row
}

// block is one sealed, immutable run of delta-encoded rows. Its index
// entry and summaries are a Bucket (Start is the first row's timestamp:
// a block has no resolution). slot is where in the archive's cut ring
// the block's cached cut was put, if it still is there. dec caches the
// decoded rows for Samples and All; the compactor resets it on cold
// blocks.
type block struct {
	Bucket
	buf  []byte
	slot atomic.Uint32
	dec  atomic.Pointer[[]Sample]
}

// blockCut is a sealed block split at one time: the rows before at and
// the rows from at on, each folded into the Bucket a whole block is, so
// a window edge or a floor inside a block reads summaries like
// everything else does. first is the block's FirstTS, which names the
// block within its archive.
type blockCut struct {
	first, at     int64
	before, after Bucket
}

// maxCuts is how many cuts an archive keeps, in a ring (a power of two):
// putting one more overwrites the oldest. It is the memory bound of
// windows and floors — a cut is 128 B of headers plus 96 B a column,
// 1.6 KB at 16 columns, 1.7 MB for the ring — sized by what a dashboard
// re-reads: a panel of S steps with two raw window lengths cuts 2(S+1)
// blocks and finds them all again on its next refresh while that fits,
// which two 240-step panels do. A longer scan parses each edge block
// once per pass, as an archive without the ring would.
const maxCuts = 1024

// tierSnap is one rollup tier inside a snapshot: completed buckets plus
// the in-progress one (copy-on-write so published buckets never mutate).
type tierSnap struct {
	res     int64
	done    []Bucket
	cur     *Bucket
	evicted int // buckets dropped by the MaxBuckets cap
}

func (t *tierSnap) count() int {
	n := len(t.done)
	if t.cur != nil {
		n++
	}
	return n
}

func (t *tierSnap) at(i int) *Bucket {
	if i < len(t.done) {
		return &t.done[i]
	}
	return t.cur
}

// snapshot is the immutable published state: readers load it once and
// work on it without locks. Writers build a new one under a.mu and
// store it atomically.
type snapshot struct {
	blocks  []*block // sealed raw blocks, ascending time
	tail    []Sample // decoded rows newer than the last sealed block
	tiers   []tierSnap
	last    *Sample // newest raw row, nil if none retained
	lastTS  int64   // newest timestamp ever accepted (survives raw eviction)
	seenAny bool    // any sample ever accepted (or loaded)

	rawSamples  int // retained raw rows
	sealedBytes int // encoded bytes across sealed blocks
	tailBytes   int // encoded bytes of the tail
	appended    int // rows ever accepted
	evicted     int // rows dropped by the ring budget
	folded      int // rows folded out of raw by Compact after rollup handoff
	compactions int
}

// Archive is an append-only recording. It is safe for concurrent use:
// reads are lock-free against the published snapshot.
type Archive struct {
	mu     sync.Mutex // serializes writers: Append, Compact, WriteTo capture
	names  []pcp.NameEntry
	byName map[string]uint32
	col    map[uint32]int // PMID -> column index
	opts   Options

	snap atomic.Pointer[snapshot]

	// The cut ring: readers put and find block cuts without a lock.
	cuts    [maxCuts]atomic.Pointer[blockCut]
	cutNext atomic.Uint32

	// Writer-only state, guarded by mu.
	tailBuf []byte // encoded form of the published tail
}

// New builds an empty archive over the given name table. The entries
// define the schema: one column per PMID, in the given order.
func New(names []pcp.NameEntry, opts Options) (*Archive, error) {
	if len(names) == 0 {
		return nil, fmt.Errorf("archive: empty schema")
	}
	if opts.MaxBytes <= 0 {
		opts.MaxBytes = DefaultMaxBytes
	}
	if opts.BlockSamples <= 0 {
		opts.BlockSamples = DefaultBlockSamples
	}
	if opts.Rollups == nil {
		opts.Rollups = DefaultRollups()
	}
	if opts.MaxBuckets <= 0 {
		opts.MaxBuckets = DefaultMaxBuckets
	}
	for i, res := range opts.Rollups {
		if res <= 0 {
			return nil, fmt.Errorf("archive: rollup resolution %d must be positive", res)
		}
		if i > 0 && res <= opts.Rollups[i-1] {
			return nil, fmt.Errorf("archive: rollup resolutions must be strictly ascending")
		}
	}
	a := &Archive{
		names:  append([]pcp.NameEntry(nil), names...),
		byName: make(map[string]uint32, len(names)),
		col:    make(map[uint32]int, len(names)),
		opts:   opts,
	}
	for i, e := range names {
		if e.PMID == 0 {
			return nil, fmt.Errorf("archive: schema entry %q has PMID 0", e.Name)
		}
		if _, dup := a.col[e.PMID]; dup {
			return nil, fmt.Errorf("archive: duplicate PMID %d in schema", e.PMID)
		}
		a.byName[e.Name] = e.PMID
		a.col[e.PMID] = i
	}
	s := &snapshot{tiers: make([]tierSnap, len(opts.Rollups))}
	for i, res := range opts.Rollups {
		s.tiers[i] = tierSnap{res: res}
	}
	a.snap.Store(s)
	return a, nil
}

// Names returns the schema's name table.
func (a *Archive) Names() []pcp.NameEntry {
	return append([]pcp.NameEntry(nil), a.names...)
}

// Lookup resolves a schema metric name to its PMID.
func (a *Archive) Lookup(name string) (uint32, error) {
	if id, ok := a.byName[name]; ok {
		return id, nil
	}
	return 0, fmt.Errorf("archive: unknown metric %q", name)
}

// PMIDs returns the schema PMIDs in column order.
func (a *Archive) PMIDs() []uint32 {
	out := make([]uint32, len(a.names))
	for i, e := range a.names {
		out[i] = e.PMID
	}
	return out
}

// Append records one fetch result. The result must contain an OK value
// for every schema PMID (extra values are ignored). A result with the
// same timestamp as the newest row is a daemon cache hit and is silently
// skipped; an older timestamp is ErrOutOfOrder.
func (a *Archive) Append(res pcp.FetchResult) error {
	row := Sample{Timestamp: res.Timestamp, Values: make([]uint64, len(a.names))}
	seen := 0
	for _, v := range res.Values {
		c, ok := a.col[v.PMID]
		if !ok {
			continue
		}
		if v.Status != pcp.StatusOK {
			return fmt.Errorf("%w: pmid %d has status %d", ErrSchema, v.PMID, v.Status)
		}
		row.Values[c] = v.Value
		seen++
	}
	if seen < len(a.names) {
		return fmt.Errorf("%w: %d of %d schema pmids present", ErrSchema, seen, len(a.names))
	}
	return a.AppendSample(row)
}

// AppendSample records one pre-built row (len(Values) must equal the
// schema width). Same ordering rules as Append. The row's Values slice
// is not retained.
func (a *Archive) AppendSample(row Sample) error {
	if len(row.Values) != len(a.names) {
		return fmt.Errorf("%w: row has %d values, schema has %d", ErrSchema, len(row.Values), len(a.names))
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	cur := a.snap.Load()
	if cur.seenAny {
		if row.Timestamp == cur.lastTS {
			return nil // same daemon sample, nothing new
		}
		if row.Timestamp < cur.lastTS {
			return fmt.Errorf("%w: %d after %d", ErrOutOfOrder, row.Timestamp, cur.lastTS)
		}
	}
	own := Sample{Timestamp: row.Timestamp, Values: append([]uint64(nil), row.Values...)}

	next := &snapshot{
		blocks:      cur.blocks,
		tiers:       make([]tierSnap, len(cur.tiers)),
		last:        &own,
		lastTS:      own.Timestamp,
		seenAny:     true,
		rawSamples:  cur.rawSamples + 1,
		sealedBytes: cur.sealedBytes,
		appended:    cur.appended + 1,
		evicted:     cur.evicted,
		folded:      cur.folded,
		compactions: cur.compactions,
	}

	// Encode the row into the writer's tail buffer: a keyframe when the
	// tail is empty, deltas against the previous row otherwise.
	if len(cur.tail) == 0 {
		a.tailBuf = binary.AppendVarint(a.tailBuf[:0], own.Timestamp)
		for _, v := range own.Values {
			a.tailBuf = binary.AppendUvarint(a.tailBuf, v)
		}
		next.tail = append([]Sample(nil), own)
	} else {
		a.tailBuf = binary.AppendVarint(a.tailBuf, own.Timestamp-cur.last.Timestamp)
		for c, v := range own.Values {
			a.tailBuf = binary.AppendVarint(a.tailBuf, int64(v-cur.last.Values[c]))
		}
		next.tail = append(cur.tail, own)
	}
	next.tailBytes = len(a.tailBuf)

	// Rollup maintenance: fold the row into every tier's current bucket.
	for i := range cur.tiers {
		next.tiers[i] = updateTier(&cur.tiers[i], own, a.opts.MaxBuckets)
	}

	// Seal a full tail into an immutable indexed block.
	if len(next.tail) >= a.opts.BlockSamples {
		blk := sealBlock(a.tailBuf, next.tail)
		next.blocks = append(cur.blocks, blk)
		next.sealedBytes += len(blk.buf)
		next.tail, next.tailBytes = nil, 0
		a.tailBuf = nil
	}

	// Ring retention backstop: evict oldest sealed blocks past the byte
	// budget, always keeping the tail being written.
	for next.sealedBytes+next.tailBytes > a.opts.MaxBytes && len(next.blocks) > 0 {
		old := next.blocks[0]
		next.blocks = next.blocks[1:]
		next.sealedBytes -= len(old.buf)
		next.rawSamples -= old.Count
		next.evicted += old.Count
	}

	a.snap.Store(next)
	return nil
}

// sealBlock builds the immutable block for a finished tail: the encoded
// bytes plus the index entry and per-column summaries folded from rows.
func sealBlock(buf []byte, rows []Sample) *block {
	b := &block{buf: buf, Bucket: Bucket{Start: rows[0].Timestamp}}
	for _, r := range rows {
		b.addRow(r)
	}
	return b
}

// alignDown returns the bucket start covering ts at resolution res,
// correct for negative timestamps.
func alignDown(ts, res int64) int64 {
	q := ts / res
	if ts%res < 0 {
		q--
	}
	return q * res
}

// updateTier folds one row into a tier, copy-on-write: published buckets
// are never mutated in place.
func updateTier(t *tierSnap, row Sample, maxBuckets int) tierSnap {
	nt := tierSnap{res: t.res, done: t.done, evicted: t.evicted}
	nb := Bucket{Start: alignDown(row.Timestamp, t.res)}
	if t.cur != nil && nb.Start == t.cur.Start {
		// Extend the in-progress bucket. The previous sample is, by
		// construction, this bucket's Last: steps folded here are
		// strictly intra-bucket.
		nb = *t.cur
		nb.Cols = append([]ColAgg(nil), t.cur.Cols...)
	} else if t.cur != nil {
		nt.done = append(t.done, *t.cur)
		if drop := len(nt.done) - maxBuckets; drop > 0 {
			nt.done = nt.done[drop:]
			nt.evicted += drop
		}
	}
	nb.addRow(row)
	nt.cur = &nb
	return nt
}

// rowCursor streams one chunk's delta-encoded rows, the one decoder of
// the row encoding: next decodes the following row over the previous
// one in the single width-sized row the cursor owns.
type rowCursor struct {
	p    parser
	ts   int64
	vals []uint64 // the current row, overwritten by next
	n    int      // rows decoded
}

func newRowCursor(buf []byte, width int) rowCursor {
	return rowCursor{p: parser{buf: buf}, vals: make([]uint64, width)}
}

func (rc *rowCursor) next() error {
	if rc.n == 0 { // keyframe: absolute values
		rc.ts = rc.p.sv()
		for c := range rc.vals {
			rc.vals[c] = rc.p.uv()
		}
	} else {
		rc.ts += rc.p.sv()
		for c := range rc.vals {
			rc.vals[c] += uint64(rc.p.sv())
		}
	}
	rc.n++
	return rc.p.err
}

// row is the current row, valid until the following next.
func (rc *rowCursor) row() Sample { return Sample{Timestamp: rc.ts, Values: rc.vals} }

// decodeRows decodes count delta-encoded rows of the given width from
// buf. With strict set, trailing bytes after the last row are rejected.
func decodeRows(buf []byte, count, width int, strict bool) ([]Sample, error) {
	rows := make([]Sample, count)
	vals := make([]uint64, count*width)
	rc := newRowCursor(buf, width)
	for i := range rows {
		if err := rc.next(); err != nil {
			return nil, err
		}
		rows[i] = Sample{Timestamp: rc.ts, Values: append(vals[i*width:i*width:(i+1)*width], rc.vals...)}
	}
	if strict && len(rc.p.buf) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after block", ErrFormat, len(rc.p.buf))
	}
	return rows, nil
}

// decodeCached returns the block's rows, decoding once and caching the
// result behind the block's atomic pointer.
func (a *Archive) decodeCached(b *block) ([]Sample, error) {
	if p := b.dec.Load(); p != nil {
		return *p, nil
	}
	rows, err := decodeRows(b.buf, b.Count, len(a.names), false)
	if err != nil {
		return nil, err
	}
	b.dec.Store(&rows)
	return rows, nil
}

// cutAt splits block b at time t, FirstTS < t <= LastTS so that rows
// fall on both sides, in one pass over its bytes, or finds the cut in
// the ring. Racing readers may each parse the same cut; both results
// are the same and either may stay.
func (a *Archive) cutAt(b *block, t int64) (*blockCut, error) {
	if c := a.cuts[b.slot.Load()].Load(); c != nil && c.first == b.FirstTS && c.at == t {
		return c, nil
	}
	w := len(a.names)
	cols := make([]ColAgg, 2*w)
	c := &blockCut{first: b.FirstTS, at: t, before: Bucket{Cols: cols[:w:w]}, after: Bucket{Cols: cols[w:]}}
	rc := newRowCursor(b.buf, w)
	for rc.n < b.Count {
		if err := rc.next(); err != nil {
			return nil, err
		}
		if rc.ts < t {
			c.before.addRow(rc.row())
		} else {
			c.after.addRow(rc.row())
		}
	}
	i := a.cutNext.Add(1) % maxCuts
	a.cuts[i].Store(c)
	b.slot.Store(i)
	return c, nil
}

// Len returns the number of retained raw samples.
func (a *Archive) Len() int {
	return a.snap.Load().rawSamples
}

// TierStats describes one rollup tier's storage state.
type TierStats struct {
	Resolution Resolution
	Buckets    int // retained buckets (including the in-progress one)
	Evicted    int // buckets dropped by the MaxBuckets cap
}

// Stats describes the archive's storage state.
type Stats struct {
	Samples      int // retained raw rows
	Appended     int // rows ever accepted
	Evicted      int // rows dropped by ring retention
	Folded       int // rows folded out of raw by compaction after rollup handoff
	Compactions  int // Compact passes that ran
	EncodedBytes int // current encoded raw size
	RawBytes     int // what the retained raw rows would cost un-encoded
	Tiers        []TierStats
}

// Stats returns storage counters, including the raw-vs-encoded size so
// tests can assert the compression win.
func (a *Archive) Stats() Stats {
	s := a.snap.Load()
	st := Stats{
		Samples:      s.rawSamples,
		Appended:     s.appended,
		Evicted:      s.evicted,
		Folded:       s.folded,
		Compactions:  s.compactions,
		EncodedBytes: s.sealedBytes + s.tailBytes,
	}
	st.RawBytes = st.Samples * (8 + 8*len(a.names))
	for i := range s.tiers {
		t := &s.tiers[i]
		st.Tiers = append(st.Tiers, TierStats{
			Resolution: Resolution(t.res),
			Buckets:    t.count(),
			Evicted:    t.evicted,
		})
	}
	return st
}

// Span returns the timestamps of the oldest and newest retained raw
// samples. Rollup-only history (raw folded away) is visible through
// SpanAt instead.
func (a *Archive) Span() (first, last int64, ok bool) {
	s := a.snap.Load()
	return s.rawSpan()
}

func (s *snapshot) rawSpan() (first, last int64, ok bool) {
	switch {
	case len(s.blocks) > 0 && len(s.tail) > 0:
		return s.blocks[0].FirstTS, s.tail[len(s.tail)-1].Timestamp, true
	case len(s.blocks) > 0:
		return s.blocks[0].FirstTS, s.blocks[len(s.blocks)-1].LastTS, true
	case len(s.tail) > 0:
		return s.tail[0].Timestamp, s.tail[len(s.tail)-1].Timestamp, true
	}
	return 0, 0, false
}

// SpanAt returns the sample span covered at the given resolution: the
// raw span for ResRaw, or the first/last sample timestamps of the
// tier's retained buckets.
func (a *Archive) SpanAt(res Resolution) (first, last int64, ok bool) {
	if res == ResRaw {
		return a.Span()
	}
	s := a.snap.Load()
	t := s.tier(int64(res))
	if t == nil || t.count() == 0 {
		return 0, 0, false
	}
	return t.at(0).FirstTS, t.at(t.count() - 1).LastTS, true
}

func (s *snapshot) tier(res int64) *tierSnap {
	for i := range s.tiers {
		if s.tiers[i].res == res {
			return &s.tiers[i]
		}
	}
	return nil
}

// Samples returns every retained raw row with t0 <= Timestamp <= t1,
// oldest first. An empty interval (t0 > t1), an empty archive, or an
// interval outside the retained span all yield an empty result, not an
// error. Returned rows may share storage with the decoded-block cache.
func (a *Archive) Samples(t0, t1 int64) ([]Sample, error) {
	if t0 > t1 {
		return nil, nil
	}
	s := a.snap.Load()
	var out []Sample
	blocks := s.blocks
	// Binary search to the first block that can contain t0.
	lo := sort.Search(len(blocks), func(i int) bool { return blocks[i].LastTS >= t0 })
	for i := lo; i < len(blocks); i++ {
		b := blocks[i]
		if b.FirstTS > t1 {
			return out, nil
		}
		rows, err := a.decodeCached(b)
		if err != nil {
			return nil, err
		}
		if b.FirstTS >= t0 && b.LastTS <= t1 {
			out = append(out, rows...)
			continue
		}
		for _, r := range rows {
			if r.Timestamp >= t0 && r.Timestamp <= t1 {
				out = append(out, r)
			}
		}
	}
	for _, r := range s.tail {
		if r.Timestamp > t1 {
			break
		}
		if r.Timestamp >= t0 {
			out = append(out, r)
		}
	}
	return out, nil
}

// All returns every retained raw row, oldest first.
func (a *Archive) All() ([]Sample, error) { return a.Samples(math.MinInt64, math.MaxInt64) }

// Floor returns the newest raw sample with Timestamp <= t — the value a
// live daemon would have served at time t. ok is false if every retained
// sample is newer than t (or no raw samples are retained).
func (a *Archive) Floor(t int64) (Sample, bool) {
	s := a.snap.Load()
	if len(s.tail) > 0 && s.tail[0].Timestamp <= t {
		i := sort.Search(len(s.tail), func(i int) bool { return s.tail[i].Timestamp > t })
		return s.tail[i-1], true
	}
	blocks := s.blocks
	idx := sort.Search(len(blocks), func(i int) bool { return blocks[i].FirstTS > t }) - 1
	if idx < 0 {
		return Sample{}, false
	}
	b := blocks[idx]
	switch { // synthesized from summaries: no decode
	case t >= b.LastTS:
		return b.lastRow(), true
	case t == b.FirstTS:
		return b.firstRow(), true
	}
	// The row at the cut: the one stamped t if there is one, else the
	// last before it. A window ending at t reads the same cut.
	c, err := a.cutAt(b, t)
	if err != nil {
		return Sample{}, false
	}
	if c.after.FirstTS == t {
		return c.after.firstRow(), true
	}
	return c.before.lastRow(), true
}

// Rate returns the metric's average rate over [t0, t1] in units per
// second of simulated time — the quantity the paper's bandwidth figures
// plot. It is deliberately not a difference of two float64 endpoint
// values: near 2^64 adjacent float64 values are 2048 apart, so that
// would swallow exactly the small per-interval deltas a rate is made
// of. Instead each segment's wrap-corrected uint64 delta is summed
// directly, weighted by its fractional overlap with [t0, t1] (rawWindow).
func (a *Archive) Rate(pmid uint32, t0, t1 int64) (float64, error) {
	if t1 <= t0 {
		return 0, fmt.Errorf("archive: bad rate interval [%d, %d]", t0, t1)
	}
	c, ok := a.col[pmid]
	if !ok {
		return 0, fmt.Errorf("%w: %d", ErrNoPMID, pmid)
	}
	s := a.snap.Load()
	if s.rawSamples == 0 {
		return 0, ErrEmpty
	}
	_, _, delta, err := a.rawWindow(s, c, t0, t1)
	if err != nil {
		return 0, err
	}
	return delta / (float64(t1-t0) / 1e9), nil
}

// overlapFrac is the fraction of segment [lo, hi] covered by [t0, t1].
func overlapFrac(lo, hi, t0, t1 int64) float64 {
	if hi <= lo {
		return 0
	}
	s, e := max(t0, lo), min(t1, hi)
	if e <= s {
		return 0
	}
	return float64(e-s) / float64(hi-lo)
}

// rawWindow folds column c over the window on one snapshot: the n raw
// samples with t0 <= Timestamp < t1 into agg, and Σ frac·step over
// every consecutive-sample segment overlapping [t0, t1] into delta. A
// block the window covers merges its summary; a block one window edge
// splits merges the inner half of its cut there (cutAt), and the step
// across the cut comes from the halves' facing rows exactly as the step
// between two blocks does. Rows are walked only in the tail, in place,
// and in a block that holds both edges, through one cursor.
func (a *Archive) rawWindow(s *snapshot, c int, t0, t1 int64) (n int, agg ColAgg, delta float64, err error) {
	blocks := s.blocks
	take := func(run *Bucket) { // a run of rows wholly inside the window
		agg.merge(&run.Cols[c], n)
		n += run.Count
		delta += float64(run.Cols[c].Delta)
	}
	// seam adds the segment between two adjacent rows. Its step is the
	// mod-2^64 delta read as int64: a counter that wrapped between them
	// yields its true small increment, an instant metric that fell a
	// negative step.
	seam := func(loTS int64, lo uint64, hiTS int64, hi uint64) {
		if f := overlapFrac(loTS, hiTS, t0, t1); f > 0 {
			delta += f * float64(int64(pcp.CounterDelta(lo, hi)))
		}
	}
	between := func(lo, hi *Bucket) { seam(lo.LastTS, lo.Cols[c].Last, hi.FirstTS, hi.Cols[c].First) }
	var prevTS int64
	var prevV uint64
	walked := false
	walk := func(ts int64, v uint64) (more bool) { // a run taken row by row
		if walked {
			seam(prevTS, prevV, ts, v)
		}
		if ts >= t0 && ts < t1 {
			agg.add(v, n)
			n++
		}
		prevTS, prevV, walked = ts, v, true
		return ts < t1
	}
	lo := sort.Search(len(blocks), func(i int) bool { return blocks[i].LastTS >= t0 })
	for i := lo; i < len(blocks) && blocks[i].FirstTS < t1; i++ {
		b := blocks[i]
		switch splitLo, splitHi := b.FirstTS < t0, b.LastTS >= t1; {
		case splitLo && splitHi:
			for rc := newRowCursor(b.buf, len(a.names)); rc.n < b.Count; {
				if err := rc.next(); err != nil {
					return 0, ColAgg{}, 0, err
				}
				if !walk(rc.ts, rc.vals[c]) {
					break
				}
			}
		case splitLo: // the rows from t0 on are inside
			cut, err := a.cutAt(b, t0)
			if err != nil {
				return 0, ColAgg{}, 0, err
			}
			between(&cut.before, &cut.after)
			take(&cut.after)
		case splitHi: // the rows before t1 are inside
			cut, err := a.cutAt(b, t1)
			if err != nil {
				return 0, ColAgg{}, 0, err
			}
			take(&cut.before)
			between(&cut.before, &cut.after)
		default:
			take(&b.Bucket)
		}
	}
	// Segments between consecutive blocks: their facing rows come from
	// the summaries. Start one block early — the segment out of a block
	// that ends before t0 can still overlap the window.
	for i := max(lo-1, 0); i+1 < len(blocks) && blocks[i].LastTS < t1; i++ {
		between(&blocks[i].Bucket, &blocks[i+1].Bucket)
	}
	// The tail, entered from the newest block's last row.
	if nt, nb := len(s.tail), len(blocks); nt > 0 && s.tail[nt-1].Timestamp >= t0 {
		if walked = nb > 0; walked {
			prevTS, prevV = blocks[nb-1].LastTS, blocks[nb-1].Cols[c].Last
		}
		for _, r := range s.tail {
			if !walk(r.Timestamp, r.Values[c]) {
				break
			}
		}
	}
	return n, agg, delta, nil
}
