// Package mem simulates the memory subsystem behind the POWER9 nest: a
// per-socket memory controller whose traffic is interleaved across eight
// MBA channels, each maintaining the PM_MBA*_READ_BYTES and
// PM_MBA*_WRITE_BYTES counters the paper measures.
//
// Two deliberate imperfections make the counters behave like the real
// ones:
//
//   - posting lag: traffic becomes visible in the counters only some
//     (stochastic) time after it occurs on the bus, so windows around
//     very short kernels miss part of their own traffic and catch strays
//     from earlier activity;
//   - background noise: the OS and other tenants generate traffic at a
//     heavy-tailed rate, and the act of reading the counters itself
//     pollutes memory (measurement overhead).
//
// Together these reproduce the noise floor of Figs. 2–3 that motivates
// the paper's adaptive-repetition scheme.
//
// Not-yet-visible traffic is held in a time-bucketed posting queue: a
// min-heap of per-post-time buckets, each aggregating bytes per
// (channel, direction). Traffic sharing a post time — every slice of an
// ideal transfer, all misses of a cache-simulated kernel at one simulated
// instant — collapses into a single bucket, and a counter read folds only
// the buckets that have become visible instead of scanning every pending
// event. Buckets are recycled on a free list, so the steady state
// allocates nothing; ReadInto and Totals are allocation-free.
package mem

import (
	"fmt"
	"sync"

	"papimc/internal/arch"
	"papimc/internal/simtime"
	"papimc/internal/units"
	"papimc/internal/xrand"
)

// TxBytes is the channel interleaving and counting granularity.
const TxBytes = units.MemTxBytes

// ChannelCounts is a snapshot of one MBA channel's byte counters.
type ChannelCounts struct {
	ReadBytes  uint64
	WriteBytes uint64
}

// postBucket aggregates all traffic becoming visible at one post time:
// read and write bytes per channel.
type postBucket struct {
	post  simtime.Time
	read  []int64
	write []int64
	chs   []int32 // channels with nonzero bytes, bounding the reset cost
}

// event is one stochastically lagged posting. Lag draws are almost never
// equal, so lagged traffic skips the bucket machinery and sits in a
// compact unsorted slice instead, partitioned on demand when a read
// crosses the earliest pending post time.
type event struct {
	post  simtime.Time
	bytes int64
	ch    int32
	read  bool
}

// Config configures a Controller.
type Config struct {
	Channels int
	Noise    arch.NoiseParams
	Seed     uint64
	// DisableNoise turns off background noise, measurement overhead and
	// posting lag, giving an ideal counter (used by validation tests to
	// separate modelling effects from noise).
	DisableNoise bool
}

// Controller is one socket's memory controller. It is safe for
// concurrent use.
type Controller struct {
	mu        sync.Mutex
	cfg       Config
	clock     *simtime.Clock
	rng       *xrand.Source
	counters  []ChannelCounts
	lastNoise simtime.Time

	// Posting queue: a min-heap of buckets ordered by post time, with a
	// free list for reuse. lastBucket coalesces runs of same-post
	// traffic (every slice of an ideal transfer, every miss of a
	// cache-simulated kernel at one instant) into a single bucket;
	// stochastically lagged events get one bucket each. Duplicate post
	// times in the heap are harmless — folding visits every bucket whose
	// post time has passed.
	heap       []*postBucket
	free       []*postBucket
	lastBucket *postBucket // most recently posted-to bucket (fast path)
	// Lagged postings sit unsorted; laggedMin lets a read skip the
	// partition pass entirely while nothing has become visible.
	lagged    []event
	laggedMin simtime.Time
	folded    simtime.Time
}

// NewController builds a controller with the given channel count and
// noise model. It panics if channels is not positive.
func NewController(cfg Config, clock *simtime.Clock) *Controller {
	if cfg.Channels <= 0 {
		panic(fmt.Sprintf("mem: invalid channel count %d", cfg.Channels))
	}
	return &Controller{
		cfg:      cfg,
		clock:    clock,
		rng:      xrand.New(cfg.Seed),
		counters: make([]ChannelCounts, cfg.Channels),
	}
}

// Channels returns the number of MBA channels.
func (c *Controller) Channels() int { return c.cfg.Channels }

// Clock returns the simulated clock driving this controller.
func (c *Controller) Clock() *simtime.Clock { return c.clock }

// AddTraffic records bytes of read or write traffic occurring over
// [start, end] at the given starting address. The traffic is interleaved
// across channels in 64-byte transactions and posts to the counters with
// the configured lag after end.
func (c *Controller) AddTraffic(read bool, addr, bytes int64, start, end simtime.Time) {
	if bytes <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.addLocked(read, addr, bytes, end)
	_ = start // start is kept in the signature for future DRAM-timing models
}

// bucketFor returns the (possibly new) bucket aggregating traffic that
// posts at the given time.
func (c *Controller) bucketFor(post simtime.Time) *postBucket {
	if b := c.lastBucket; b != nil && b.post == post {
		return b
	}
	var b *postBucket
	if n := len(c.free); n > 0 {
		b = c.free[n-1]
		c.free = c.free[:n-1]
	} else {
		b = &postBucket{
			read:  make([]int64, c.cfg.Channels),
			write: make([]int64, c.cfg.Channels),
			chs:   make([]int32, 0, c.cfg.Channels),
		}
	}
	b.post = post
	c.heapPush(b)
	c.lastBucket = b
	return b
}

// postLocked queues bytes on channel ch to become visible at post. If the
// post time is already folded into the counters, it posts directly — the
// allocation-free fast path taken whenever lag is disabled and the
// counters are read at (or past) the traffic's own instant.
func (c *Controller) postLocked(read bool, ch int, bytes int64, post simtime.Time) {
	if post <= c.folded {
		if read {
			c.counters[ch].ReadBytes += uint64(bytes)
		} else {
			c.counters[ch].WriteBytes += uint64(bytes)
		}
		return
	}
	b := c.bucketFor(post)
	if read {
		if b.read[ch] == 0 && b.write[ch] == 0 {
			b.chs = append(b.chs, int32(ch))
		}
		b.read[ch] += bytes
	} else {
		if b.read[ch] == 0 && b.write[ch] == 0 {
			b.chs = append(b.chs, int32(ch))
		}
		b.write[ch] += bytes
	}
}

func (c *Controller) addLocked(read bool, addr, bytes int64, at simtime.Time) {
	tx := units.TxCount(bytes)
	n := int64(c.cfg.Channels)
	base := tx / n
	rem := tx % n
	first := (addr / TxBytes) % n
	if first < 0 {
		first = -first
	}
	lagged := !c.cfg.DisableNoise && c.cfg.Noise.CounterPostLatency > 0
	for i := int64(0); i < n; i++ {
		chTx := base
		// The remainder lands on the channels immediately following the
		// starting address's channel, as interleaving would place it.
		if (i-first+n)%n < rem {
			chTx++
		}
		if chTx == 0 {
			continue
		}
		if lagged {
			lag := simtime.Duration(float64(c.cfg.Noise.CounterPostLatency) * c.rng.ExpFloat64())
			c.pushEvent(event{post: at.Add(lag), ch: int32(i), read: read, bytes: chTx * TxBytes})
			continue
		}
		c.postLocked(read, int(i), chTx*TxBytes, at)
	}
}

// AddTrafficSpread records bytes of traffic distributed uniformly over
// [start, end] in the given number of slices, so that counter samples
// taken inside the window see the transfer progressing rather than one
// lump at the end. Use it for long DMA transfers and copies.
func (c *Controller) AddTrafficSpread(read bool, addr, bytes int64, start, end simtime.Time, slices int) {
	if bytes <= 0 {
		return
	}
	if slices < 1 {
		slices = 1
	}
	span := end.Sub(start)
	per := bytes / int64(slices)
	for s := 0; s < slices; s++ {
		b := per
		if s == slices-1 {
			b = bytes - per*int64(slices-1)
		}
		t1 := start.Add(simtime.Duration(int64(span) * int64(s+1) / int64(slices)))
		t0 := start.Add(simtime.Duration(int64(span) * int64(s) / int64(slices)))
		c.AddTraffic(read, addr+int64(s)*TxBytes, b, t0, t1)
	}
}

// InjectMeasurementOverhead models the memory traffic caused by one
// counter-read operation (daemon wakeup, context switches, cache
// pollution of the measuring process).
func (c *Controller) InjectMeasurementOverhead(t simtime.Time) {
	if c.cfg.DisableNoise || c.cfg.Noise.MeasurementOverheadBytes <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	// Log-normal with unit mean: exp(-σ²/2 + σZ).
	const sigma = 0.5
	mag := c.rng.LogNormal(-sigma*sigma/2, sigma)
	bytes := int64(c.cfg.Noise.MeasurementOverheadBytes * mag)
	// Overhead is mostly reads (instruction fetch, page metadata), with
	// a smaller write component.
	c.addLocked(true, int64(c.rng.Uint64()%(1<<30)), bytes*2/3, t)
	c.addLocked(false, int64(c.rng.Uint64()%(1<<30)), bytes/3, t)
}

// noiseStep is the granularity at which background noise is synthesized.
const noiseStep = simtime.Millisecond

// advanceNoiseLocked synthesizes background traffic from lastNoise to t.
func (c *Controller) advanceNoiseLocked(t simtime.Time) {
	if c.cfg.DisableNoise || c.cfg.Noise.BackgroundBytesPerSec <= 0 {
		c.lastNoise = t
		return
	}
	sigma := c.cfg.Noise.BackgroundBurstSigma
	for c.lastNoise < t {
		step := simtime.Duration(noiseStep)
		if remaining := t.Sub(c.lastNoise); remaining < step {
			step = remaining
		}
		mag := 1.0
		if sigma > 0 {
			mag = c.rng.LogNormal(-sigma*sigma/2, sigma)
		}
		bytes := int64(c.cfg.Noise.BackgroundBytesPerSec * step.Seconds() * mag)
		at := c.lastNoise.Add(step)
		addr := int64(c.rng.Uint64() % (1 << 30))
		c.addLocked(true, addr, bytes*3/5, at)
		c.addLocked(false, addr, bytes*2/5, at)
		c.lastNoise = at
	}
}

// foldLocked advances noise to t and folds everything posted at or
// before t — queued buckets and lagged events — into the cumulative
// counters.
func (c *Controller) foldLocked(t simtime.Time) {
	c.advanceNoiseLocked(t)
	for len(c.heap) > 0 && c.heap[0].post <= t {
		b := c.heapPop()
		for _, ch := range b.chs {
			c.counters[ch].ReadBytes += uint64(b.read[ch])
			c.counters[ch].WriteBytes += uint64(b.write[ch])
			b.read[ch] = 0
			b.write[ch] = 0
		}
		if c.lastBucket == b {
			c.lastBucket = nil
		}
		b.chs = b.chs[:0]
		c.free = append(c.free, b)
	}
	if len(c.lagged) > 0 && c.laggedMin <= t {
		// Single partition pass: fold everything visible, keep the rest
		// in place and recompute the watermark. Reads that precede the
		// earliest pending post skip this entirely.
		kept := c.lagged[:0]
		min := simtime.Time(1<<63 - 1)
		for _, e := range c.lagged {
			if e.post <= t {
				if e.read {
					c.counters[e.ch].ReadBytes += uint64(e.bytes)
				} else {
					c.counters[e.ch].WriteBytes += uint64(e.bytes)
				}
				continue
			}
			if e.post < min {
				min = e.post
			}
			kept = append(kept, e)
		}
		c.lagged = kept
		c.laggedMin = min
	}
	if t > c.folded {
		c.folded = t
	}
}

// ReadInto snapshots every channel's counters as visible at simulated
// time t — all traffic posted at or before t, plus background noise up
// to t — into a caller-provided buffer, growing it if needed (nil
// allocates one); with a buffer of sufficient capacity it does not
// allocate.
func (c *Controller) ReadInto(t simtime.Time, dst []ChannelCounts) []ChannelCounts {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.foldLocked(t)
	dst = dst[:0]
	dst = append(dst, c.counters...)
	return dst
}

// Totals returns the summed read and write bytes across channels at t.
// It sums in place under the lock and does not allocate.
func (c *Controller) Totals(t simtime.Time) (readBytes, writeBytes uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.foldLocked(t)
	for i := range c.counters {
		readBytes += c.counters[i].ReadBytes
		writeBytes += c.counters[i].WriteBytes
	}
	return readBytes, writeBytes
}

// PendingBuckets returns the number of unfolded posting-queue entries:
// coalesced buckets plus lagged events (test instrumentation).
func (c *Controller) PendingBuckets() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.heap) + len(c.lagged)
}

// --- posting-queue min-heap (ordered by post time) ---------------------

func (c *Controller) heapPush(b *postBucket) {
	c.heap = append(c.heap, b)
	i := len(c.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if c.heap[parent].post <= c.heap[i].post {
			break
		}
		c.heap[parent], c.heap[i] = c.heap[i], c.heap[parent]
		i = parent
	}
}

func (c *Controller) heapPop() *postBucket {
	top := c.heap[0]
	n := len(c.heap) - 1
	c.heap[0] = c.heap[n]
	c.heap[n] = nil
	c.heap = c.heap[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && c.heap[l].post < c.heap[min].post {
			min = l
		}
		if r < n && c.heap[r].post < c.heap[min].post {
			min = r
		}
		if min == i {
			break
		}
		c.heap[i], c.heap[min] = c.heap[min], c.heap[i]
		i = min
	}
	return top
}

// pushEvent queues one lagged posting, folding it directly when its post
// time is already inside the folded window.
func (c *Controller) pushEvent(e event) {
	if e.post <= c.folded {
		if e.read {
			c.counters[e.ch].ReadBytes += uint64(e.bytes)
		} else {
			c.counters[e.ch].WriteBytes += uint64(e.bytes)
		}
		return
	}
	if len(c.lagged) == 0 || e.post < c.laggedMin {
		c.laggedMin = e.post
	}
	c.lagged = append(c.lagged, e)
}

// Port adapts the controller to the cache simulator's MemPort: each
// MemRead/MemWrite is traffic at the clock's current instant.
type Port struct {
	C *Controller
}

// MemRead implements cache.MemPort.
func (p Port) MemRead(addr, bytes int64) {
	now := p.C.clock.Now()
	p.C.AddTraffic(true, addr, bytes, now, now)
}

// MemWrite implements cache.MemPort.
func (p Port) MemWrite(addr, bytes int64) {
	now := p.C.clock.Now()
	p.C.AddTraffic(false, addr, bytes, now, now)
}
