// Package archive implements the pmlogger analogue: an append-only
// time-series archive of PCP fetch results, so profiles and figures can
// be replayed from a recording instead of a live daemon — grown here
// into a small TSDB: multi-resolution rollup tiers, an indexed block
// store with lock-free snapshot reads, and bounded retention.
//
// Raw samples are stored varint-delta encoded — each row is the zigzag
// varint of the timestamp delta followed by one zigzag varint per
// counter delta — in fixed-size blocks whose first row is absolute, so
// any block decodes independently. Every sealed block carries the same
// summary a rollup bucket does ([FirstTS, LastTS], the row count and one
// ColAgg per column), so a window at any tier is one merge fold over
// runs of rows in time order. A raw window reads the whole buckets of
// the coarsest rollup tier that has one inside it for its interior, and
// raw blocks only at its two edges: a block an edge covers merges its
// summary, one an edge splits is cut there into two more such summaries
// that a bounded ring keeps, so a dashboard refreshing the same steps
// parses nothing, and a window on a tier's grid cuts nothing.
//
// Alongside the raw tier the archive maintains rollup tiers (10s and 5m
// buckets by default), updated incrementally on Append: each bucket
// stores count/first/last/min/max/sum per column plus the wrap-corrected
// intra-bucket delta, and the step between two adjacent buckets is
// recoverable exactly as pcp.CounterDelta(prev.Last, next.First) —
// adjacent buckets always hold adjacent samples at their facing edges —
// so rates over rollups are exact for wrapped counters on bucket-aligned
// windows. Every append retires the raw blocks that have aged past
// RawRetention once the rollups cover them (and those past the MaxBytes
// budget), the production retention pattern: raw for hours, 10s for
// days, 5m for months. The raw tier is bounded by construction, not by
// how often anything else runs.
//
// Appends serialize on a mutex and publish an immutable snapshot
// through an atomic pointer; readers load the pointer once and never
// block — the same publication pattern the PMCD daemon uses for its
// metric snapshots.
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
	"slices"
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
	// ErrRange rejects a timestamp so close to either end of int64 that
	// a rollup bucket covering it would overflow.
	ErrRange = errors.New("archive: timestamp outside the rollup tiers' range")
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
	// RawRetention is how much full-resolution history the raw tier
	// keeps, in nanoseconds: each append folds out the raw blocks
	// wholly older than newest-RawRetention that every rollup tier
	// covers with a completed bucket. 0 disables age-based folding
	// (raw is evicted only by the MaxBytes ring budget).
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

// clone is a copy of the bucket that shares nothing with it.
func (b Bucket) clone() *Bucket {
	b.Cols = slices.Clone(b.Cols)
	return &b
}

// rowRef is a row read where it is stored: a decoded row's values, or
// the first or last values of a summary's columns.
type rowRef struct {
	ts    int64
	vals  []uint64
	cols  []ColAgg
	first bool
}

func (r rowRef) value(c int) uint64 {
	switch {
	case r.vals != nil:
		return r.vals[c]
	case r.first:
		return r.cols[c].First
	}
	return r.cols[c].Last
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
// re-reads. A raw window on a rollup tier's grid cuts no block, one with
// an interior of whole buckets at most four (two per edge) and one
// without at most the two its edges split; a panel of S steps with a
// floor and a raw window shorter than a bucket per step cuts about
// 2(S+1) blocks and finds them all again on its next refresh while that
// fits, which two 240-step panels do. A longer scan parses each edge
// block once per pass, as an archive without the ring would.
const maxCuts = 1024

// tierSnap is one rollup tier inside a snapshot: its completed buckets,
// never changed once appended, and its in-progress one — a copy taken
// when the tail last sealed (sealed) or, between seals, that copy
// extended by the snapshot's tail rows, folded on first read (head).
type tierSnap struct {
	res     int64
	done    []Bucket
	evicted int      // buckets dropped by the MaxBuckets cap
	held    int      // evicted buckets done's backing array still holds (writer only)
	sealed  *Bucket  // the in-progress bucket at the last seal or load
	tail    []Sample // the snapshot's tail
	head    atomic.Pointer[Bucket]
}

func (t *tierSnap) count() int {
	if t.sealed == nil && len(t.tail) == 0 {
		return len(t.done)
	}
	return len(t.done) + 1
}

// search is the index of the first bucket with Start+w > x (Start >= x
// for w 1, ending past x for w res): ceil((x-w+1-start0)/res) on a tier
// without gaps, whose starts are consecutive multiples of res.
// That guess is checked against its neighbours; a gap falls back to a
// binary search.
func (t *tierSnap) search(x, w int64) int {
	n := t.count()
	past := func(i int) bool { // Start+w > x, without overflow
		st := t.at(i).Start
		return st > x || uint64(x-st) < uint64(w)
	}
	switch {
	case n == 0 || past(0):
		return 0
	case !past(n - 1): // a window at the head
		return n
	}
	d := uint64(x) - uint64(t.at(0).Start) - uint64(w) + 1 // >= 1, exact as uint64
	if i := int(min((d-1)/uint64(t.res)+1, uint64(n))); (i == n || past(i)) && !past(i-1) {
		return i
	}
	return sort.Search(n, past)
}

func (t *tierSnap) at(i int) *Bucket {
	if i < len(t.done) {
		return &t.done[i]
	}
	return t.inProgress()
}

// inProgress is the in-progress bucket: sealed, or folded from it and
// the tail on first read.
func (t *tierSnap) inProgress() *Bucket {
	if len(t.tail) == 0 {
		return t.sealed
	}
	if b := t.head.Load(); b != nil {
		return b
	}
	b := &Bucket{Start: alignDown(t.tail[len(t.tail)-1].Timestamp, t.res)}
	if t.sealed != nil && t.sealed.Start == b.Start {
		b = t.sealed.clone()
	}
	for _, r := range t.tail[sort.Search(len(t.tail), func(k int) bool { return t.tail[k].Timestamp >= b.Start }):] {
		b.addRow(r)
	}
	t.head.Store(b)
	return b
}

// snapshot is the immutable published state: readers load it once and
// work on it without locks. Writers build a new one under a.mu and
// store it atomically.
type snapshot struct {
	blocks  []*block // sealed raw blocks, ascending time
	tail    []Sample // decoded rows newer than the last sealed block
	tiers   []tierSnap
	lastTS  int64 // newest timestamp ever accepted (survives raw eviction)
	seenAny bool  // any sample ever accepted (or loaded)

	rawSamples  int // retained raw rows
	sealedBytes int // encoded bytes across sealed blocks
	tailBytes   int // encoded bytes of the tail
	appended    int // rows ever accepted
	evicted     int // rows dropped by the ring budget
	folded      int // rows retired from raw by an append once aged and covered by every tier
}

// Archive is an append-only recording. It is safe for concurrent use:
// reads are lock-free against the published snapshot.
type Archive struct {
	mu     sync.Mutex // serializes writers: Append and WriteTo capture
	names  []pcp.NameEntry
	byName map[string]uint32
	col    map[uint32]int // PMID -> column index
	opts   Options

	snap atomic.Pointer[snapshot]

	// The cut ring: readers put and find block cuts without a lock.
	cuts    [maxCuts]atomic.Pointer[blockCut]
	cutNext atomic.Uint32

	compactions atomic.Int64 // Compact passes that ran

	// Timestamps in [minTS, minTS+span] have rollup buckets whose start
	// and end fit in an int64; AppendSample rejects the rest.
	minTS int64
	span  uint64

	// Writer-only state, guarded by mu.
	tailBuf  []byte   // encoded form of the published tail
	tailVals []uint64 // the tail rows' values
	open     []Bucket // each tier's in-progress bucket, folded in place
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
		open:   make([]Bucket, len(opts.Rollups)),
		minTS:  math.MinInt64,
		span:   math.MaxUint64,
	}
	maxTS := int64(math.MaxInt64)
	for _, res := range opts.Rollups {
		a.minTS = max(a.minTS, math.MinInt64/res*res)
		maxTS = min(maxTS, alignDown(math.MaxInt64-res, res)+res-1)
	}
	a.span = uint64(maxTS) - uint64(a.minTS)
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
// skipped; an older timestamp is ErrOutOfOrder. A timestamp within one
// rollup width of either end of int64 is ErrRange.
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
	if uint64(row.Timestamp)-uint64(a.minTS) > a.span {
		return fmt.Errorf("%w: %d", ErrRange, row.Timestamp)
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
	tail := cur.tail
	if len(tail) == 0 { // a block's rows and their values take one allocation each
		tail, a.tailVals = make([]Sample, 0, a.opts.BlockSamples), make([]uint64, 0, a.opts.BlockSamples*len(row.Values))
	}
	a.tailVals = append(a.tailVals, row.Values...)
	tail = append(tail, Sample{Timestamp: row.Timestamp, Values: slices.Clip(a.tailVals[len(a.tailVals)-len(row.Values):])})
	own := &tail[len(tail)-1]

	next := &snapshot{
		blocks:      cur.blocks,
		tail:        tail,
		tiers:       make([]tierSnap, len(cur.tiers)),
		lastTS:      own.Timestamp,
		seenAny:     true,
		rawSamples:  cur.rawSamples + 1,
		sealedBytes: cur.sealedBytes,
		appended:    cur.appended + 1,
		evicted:     cur.evicted,
		folded:      cur.folded,
	}

	// Encode the row into the writer's tail buffer: a keyframe when the
	// tail is empty, deltas against the previous row otherwise.
	if len(cur.tail) == 0 {
		a.tailBuf = binary.AppendVarint(a.tailBuf[:0], own.Timestamp)
		for _, v := range own.Values {
			a.tailBuf = binary.AppendUvarint(a.tailBuf, v)
		}
	} else {
		prev := &cur.tail[len(cur.tail)-1]
		a.tailBuf = binary.AppendVarint(a.tailBuf, own.Timestamp-prev.Timestamp)
		for c, v := range own.Values {
			a.tailBuf = binary.AppendVarint(a.tailBuf, int64(v-prev.Values[c]))
		}
	}
	next.tailBytes = len(a.tailBuf)

	// Seal a full tail into an immutable indexed block.
	if len(next.tail) >= a.opts.BlockSamples {
		blk := sealBlock(a.tailBuf, next.tail)
		next.blocks = append(cur.blocks, blk)
		next.sealedBytes += len(blk.buf)
		next.tail, next.tailBytes = nil, 0
		a.tailBuf = nil
	}

	// Rollup maintenance: fold the row into every tier's in-progress
	// bucket, in place; a seal publishes a copy of it.
	for i := range cur.tiers {
		t, nt := &cur.tiers[i], &next.tiers[i]
		*nt = tierSnap{res: t.res, done: t.done, evicted: t.evicted, held: t.held, sealed: t.sealed, tail: next.tail}
		a.foldRow(nt, &a.open[i], *own)
		if next.tail == nil {
			nt.sealed = a.open[i].clone()
		}
	}

	a.retire(next)
	a.snap.Store(next)
	return nil
}

// retire drops the oldest sealed blocks that have left the raw tier's
// retention, always keeping the tail being written. A block wholly older
// than lastTS-RawRetention and covered by a completed bucket of every
// tier folds (its history stays in the rollups); past the MaxBytes
// budget a block is evicted. The cutoff and the coverage only move
// forward and blocks leave only from the front, so one step per append
// keeps the tier exactly as one pass over the finished archive would.
func (a *Archive) retire(s *snapshot) {
	limit := int64(math.MinInt64) // newest LastTS a block may have and fold
	if a.opts.RawRetention > 0 && len(s.tiers) > 0 {
		limit = s.lastTS - a.opts.RawRetention
		for i := range s.tiers {
			done := s.tiers[i].done
			if len(done) == 0 {
				limit = math.MinInt64
				break
			}
			limit = min(limit, done[len(done)-1].LastTS)
		}
	}
	drop := 0
	for ; drop < len(s.blocks); drop++ {
		b := s.blocks[drop]
		if b.LastTS <= limit {
			s.folded += b.Count
		} else if s.sealedBytes+s.tailBytes > a.opts.MaxBytes {
			s.evicted += b.Count
		} else {
			break
		}
		s.sealedBytes -= len(b.buf)
		s.rawSamples -= b.Count
	}
	// Re-slicing keeps the dropped blocks reachable through the shared
	// array until append next reallocates it: fine for the one block a
	// steady state drops, not for a lagging tier's minutes of them.
	if drop > 0 && drop >= len(s.blocks)-drop {
		s.blocks = slices.Clone(s.blocks[drop:])
	} else {
		s.blocks = s.blocks[drop:]
	}
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

// foldRow folds the next row into tier t's in-progress bucket o, in
// place. A row in a later bucket first appends o to t.done, past what
// older snapshots see, evicting past the MaxBuckets cap. Once the shared
// array holds evicted buckets an eighth of the live ones, the survivors
// move to a fresh one: an amortised O(1) copy per completed bucket.
func (a *Archive) foldRow(t *tierSnap, o *Bucket, row Sample) {
	if start := alignDown(row.Timestamp, t.res); o.Count == 0 || start != o.Start {
		if o.Count > 0 {
			t.done = append(t.done, *o)
			if drop := len(t.done) - a.opts.MaxBuckets; drop > 0 {
				t.done, t.evicted, t.held = t.done[drop:], t.evicted+drop, t.held+drop
				if n := len(t.done); t.held*8 >= n {
					t.done, t.held = append(make([]Bucket, 0, n+n/8+1), t.done...), 0
				}
			}
		}
		*o = Bucket{Start: start}
	}
	o.addRow(row)
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
	Folded       int // rows retired from raw by appends once every rollup tier covers them
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
		Compactions:  int(a.compactions.Load()),
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
	return a.snap.Load().rawSpan()
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
	return a.FloorAt(ResRaw, t)
}

// floor is Floor reading the row where it is stored: in the tail, at an
// edge of a block's summary, or at the block's cut — the row stamped t
// if there is one, else the last before it. A window ending at t reads
// the same cut.
func (a *Archive) floor(t int64) (rowRef, bool) {
	s := a.snap.Load()
	if len(s.tail) > 0 && s.tail[0].Timestamp <= t {
		r := s.tail[sort.Search(len(s.tail), func(i int) bool { return s.tail[i].Timestamp > t })-1]
		return rowRef{ts: r.Timestamp, vals: r.Values}, true
	}
	blocks := s.blocks
	idx := sort.Search(len(blocks), func(i int) bool { return blocks[i].FirstTS > t }) - 1
	if idx < 0 {
		return rowRef{}, false
	}
	b := blocks[idx]
	switch {
	case t >= b.LastTS:
		return rowRef{ts: b.LastTS, cols: b.Cols}, true
	case t == b.FirstTS:
		return rowRef{ts: t, cols: b.Cols, first: true}, true
	}
	c, err := a.cutAt(b, t)
	switch {
	case err != nil:
		return rowRef{}, false
	case c.after.FirstTS == t:
		return rowRef{ts: t, cols: c.after.Cols, first: true}, true
	}
	return rowRef{ts: c.before.LastTS, cols: c.before.Cols}, true
}

// overlapFrac is the fraction of segment [lo, hi] covered by [t0, t1].
func overlapFrac(lo, hi, t0, t1 int64) float64 {
	switch {
	case hi <= lo:
		return 0
	case t0 <= lo && hi <= t1:
		return 1
	}
	s, e := max(t0, lo), min(t1, hi)
	if e <= s {
		return 0
	}
	return float64(e-s) / float64(hi-lo)
}

// fold aggregates column c over the window [t0, t1) run by run, in time
// order; a run is a bucket, a block, a cut half or a row. The runs it
// takes merge into n and agg, and delta is Σ frac·step over every
// segment between consecutive rows, frac its overlap with [t0, t1]: a
// run's inner steps come from its Delta, the step between two runs from
// their facing rows, whichever tier the runs come from.
type fold struct {
	c      int
	t0, t1 int64
	n      int
	agg    ColAgg
	delta  float64
	prevTS int64 // the previous row, once have is set
	prev   uint64
	have   bool
}

// at makes (ts, v) the previous row, without a step to it.
func (f *fold) at(ts int64, v uint64) { f.prevTS, f.prev, f.have = ts, v, true }

// to steps on to the row (ts, v). The step is the mod-2^64 delta read
// as int64: a counter that wrapped yields its true small increment, an
// instant metric that fell a negative step.
func (f *fold) to(ts int64, v uint64) {
	if f.have {
		f.delta += overlapFrac(f.prevTS, ts, f.t0, f.t1) * float64(int64(pcp.CounterDelta(f.prev, v)))
	}
	f.at(ts, v)
}

// take folds the next run in: its rows count, and its Delta is weighted
// by the share of its span inside the window — all of it for a run
// inside, which is every run a raw window takes.
func (f *fold) take(b *Bucket) {
	g := &b.Cols[f.c]
	f.agg.merge(g, f.n)
	f.n += b.Count
	f.to(b.FirstTS, g.First)
	f.delta += overlapFrac(b.FirstTS, b.LastTS, f.t0, f.t1) * float64(g.Delta)
	f.at(b.LastTS, g.Last)
}

// row folds the next decoded row of a raw edge [lo, hi): a row before
// lo is the previous row, one inside is added, and the first from hi
// on is the row the edge steps on to last. It reports whether the edge
// goes on.
func (f *fold) row(ts int64, v uint64, lo, hi int64) bool {
	if ts < lo {
		f.at(ts, v)
		return true
	}
	f.to(ts, v)
	if ts >= hi {
		return false
	}
	f.agg.add(v, f.n)
	f.n++
	return true
}

// A plan is a window read on one snapshot with the column left out: the
// runs a fold takes, in time order. Planning does the searches and the
// block cuts; fold reads any column over the plan, so the PMIDs of one
// selector can share one walk of the index (Replay.EvalWindow).
type plan struct {
	snap   *snapshot
	res    Resolution
	t0, t1 int64
	tier   *tierSnap // the tier of runBuckets
	n      int
	runs   [maxRuns]run
}

// maxRuns is a plan's capacity: a raw window's buckets between two edges
// of five runs (the row before, a cut half, blocks, a cut's halves).
const maxRuns = 11

const (
	runAt      = iota // b's last row is the row before what follows
	runTo             // b's first row is the row after the edge or window
	runTake           // b, whole: a bucket, a block's summary or a cut half
	runBuckets        // the tier's buckets [lo, hi), whole
	runBlocks         // snap.blocks[lo:hi], whole
	runRows           // snap.tail, folded as rows of the edge [lo, hi)
	runWalk           // the rows of the block holding lo, folded as rows of the edge [lo, hi)
)

type run struct {
	kind   int
	b      *Bucket
	lo, hi int64
}

func (p *plan) add(r run) { // a row before what follows replaces one just added
	if r.kind == runAt && p.n > 0 && p.runs[p.n-1].kind == runAt {
		p.n--
	}
	p.runs[p.n] = r
	p.n++
}

// fold is the one executor of a plan: it folds column c over the runs.
func (p *plan) fold(c int) (WindowAgg, error) {
	f := fold{c: c, t0: p.t0, t1: p.t1}
	for k := range p.runs[:p.n] {
		r := &p.runs[k]
		switch r.kind {
		case runAt:
			f.at(r.b.LastTS, r.b.Cols[c].Last)
		case runTo:
			f.to(r.b.FirstTS, r.b.Cols[c].First)
		case runTake:
			f.take(r.b)
		case runBuckets:
			for x := r.lo; x < r.hi; x++ {
				f.take(p.tier.at(int(x)))
			}
		case runBlocks:
			for _, b := range p.snap.blocks[r.lo:r.hi] {
				f.take(&b.Bucket)
			}
		case runRows:
			for _, row := range p.snap.tail {
				if !f.row(row.Timestamp, row.Values[c], r.lo, r.hi) {
					break
				}
			}
		case runWalk:
			blocks := p.snap.blocks
			b := blocks[sort.Search(len(blocks), func(i int) bool { return blocks[i].LastTS >= r.lo })]
			for rc := newRowCursor(b.buf, len(b.Cols)); rc.n < b.Count; {
				if err := rc.next(); err != nil {
					return WindowAgg{}, err
				}
				if !f.row(rc.ts, rc.vals[c], r.lo, r.hi) {
					break
				}
			}
		}
	}
	out := WindowAgg{Resolution: p.res, Count: f.n, Seconds: float64(p.t1-p.t0) / 1e9}
	if f.n > 0 {
		out.Sum, out.Min, out.Max, out.Delta = f.agg.Sum, f.agg.Min, f.agg.Max, f.delta
	}
	return out, nil
}

// rawWindow plans the raw rows of the window [p.t0, p.t1) on p's
// snapshot. Its interior is the whole buckets [Start, Start+res) inside
// it of the coarsest tier that has one, from the first retained raw row
// on: every row they summarise is a retained raw row and, as rows and
// buckets are dropped only from the front, every retained row from the
// first one's Start to the last one's end is in one of them, so they
// stand for those rows and only the edges around them read raw blocks
// (rawEdge). On the tier's grid the edges are empty — the rows around
// the interior are the facing rows of the buckets beside it — and no
// block is cut.
func (a *Archive) rawWindow(p *plan) error {
	first, _, ok := p.snap.rawSpan()
	if !ok {
		return nil
	}
	lo := max(p.t0, first)
	for k := len(p.snap.tiers) - 1; k >= 0; k-- {
		t := &p.snap.tiers[k]
		if lo > p.t1 || uint64(p.t1-lo) < uint64(t.res) { // no whole bucket fits
			continue
		}
		i, j := t.search(lo, 1), t.search(p.t1, t.res)
		if i >= j {
			continue
		}
		if start := t.at(i).Start; start > p.t0 || i == 0 {
			if err := a.rawEdge(p, p.t0, start); err != nil {
				return err
			}
		} else if b := t.at(i - 1); b.LastTS >= first { // the row before the window is retained
			p.add(run{kind: runAt, b: b})
		}
		p.tier = t
		p.add(run{kind: runBuckets, lo: int64(i), hi: int64(j)})
		if end := t.at(j-1).Start + t.res; end < p.t1 {
			return a.rawEdge(p, end, p.t1)
		}
		if j < t.count() { // the row after the window
			p.add(run{kind: runTo, b: t.at(j)})
		}
		return nil
	}
	return a.rawEdge(p, p.t0, p.t1)
}

// rawEdge plans the raw rows with lo <= Timestamp < hi, stepping in
// from the row before lo and on to the first row from hi. The blocks
// the edge covers are one run; a block lo or hi splits is read through
// its cut there (cutAt), whose halves are runs. Rows are walked only in
// the tail, in place, and in a block holding both lo and hi — its two
// cuts could not be composed — through one cursor.
func (a *Archive) rawEdge(p *plan, lo, hi int64) error {
	blocks := p.snap.blocks
	i := sort.Search(len(blocks), func(i int) bool { return blocks[i].LastTS >= lo })
	if i > 0 {
		p.add(run{kind: runAt, b: &blocks[i-1].Bucket})
	}
	if i < len(blocks) && blocks[i].FirstTS < lo { // lo splits block i
		if hi <= blocks[i].LastTS {
			p.add(run{kind: runWalk, lo: lo, hi: hi})
			return nil
		}
		cut, err := a.cutAt(blocks[i], lo)
		if err != nil {
			return err
		}
		p.add(run{kind: runAt, b: &cut.before})
		p.add(run{kind: runTake, b: &cut.after})
		i++
	}
	j := i + sort.Search(len(blocks)-i, func(x int) bool { return blocks[i+x].LastTS >= hi })
	if i < j {
		p.add(run{kind: runBlocks, lo: int64(i), hi: int64(j)})
	}
	switch {
	case j == len(blocks): // the edge runs on into the tail
		p.add(run{kind: runRows, lo: lo, hi: hi})
	case blocks[j].FirstTS >= hi:
		p.add(run{kind: runTo, b: &blocks[j].Bucket})
	default: // hi splits block j
		cut, err := a.cutAt(blocks[j], hi)
		if err != nil {
			return err
		}
		p.add(run{kind: runTake, b: &cut.before})
		p.add(run{kind: runTo, b: &cut.after})
	}
	return nil
}
