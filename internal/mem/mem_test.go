package mem

import (
	"testing"
	"testing/quick"

	"papimc/internal/arch"
	"papimc/internal/simtime"
)

func idealController() (*Controller, *simtime.Clock) {
	clock := simtime.NewClock()
	c := NewController(Config{Channels: 8, DisableNoise: true}, clock)
	return c, clock
}

func noisyController(seed uint64) (*Controller, *simtime.Clock) {
	clock := simtime.NewClock()
	c := NewController(Config{Channels: 8, Noise: arch.Summit().Noise, Seed: seed}, clock)
	return c, clock
}

func TestIdealCountersExact(t *testing.T) {
	c, _ := idealController()
	c.AddTraffic(true, 0, 64*100, 0, 0)
	c.AddTraffic(false, 0, 64*50, 0, 0)
	r, w := c.Totals(0)
	if r != 6400 || w != 3200 {
		t.Errorf("totals = %d/%d, want 6400/3200", r, w)
	}
}

func TestChannelInterleaving(t *testing.T) {
	c, _ := idealController()
	// 16 transactions over 8 channels: exactly 2 per channel.
	c.AddTraffic(true, 0, 64*16, 0, 0)
	for i, ch := range c.ReadInto(0, nil) {
		if ch.ReadBytes != 128 {
			t.Errorf("channel %d = %d bytes, want 128", i, ch.ReadBytes)
		}
	}
}

func TestInterleavingRemainderFollowsAddress(t *testing.T) {
	c, _ := idealController()
	// 3 transactions starting at address 5*64: channels 5,6,7 get one each.
	c.AddTraffic(true, 5*64, 3*64, 0, 0)
	counts := c.ReadInto(0, nil)
	for i, ch := range counts {
		want := uint64(0)
		if i >= 5 {
			want = 64
		}
		if ch.ReadBytes != want {
			t.Errorf("channel %d = %d, want %d", i, ch.ReadBytes, want)
		}
	}
}

func TestTrafficRoundsUpToTransactions(t *testing.T) {
	c, _ := idealController()
	c.AddTraffic(true, 0, 1, 0, 0) // 1 byte still costs a 64-byte transaction
	r, _ := c.Totals(0)
	if r != 64 {
		t.Errorf("1-byte traffic counted as %d, want 64", r)
	}
}

func TestZeroAndNegativeTrafficIgnored(t *testing.T) {
	c, _ := idealController()
	c.AddTraffic(true, 0, 0, 0, 0)
	c.AddTraffic(true, 0, -10, 0, 0)
	if r, w := c.Totals(0); r != 0 || w != 0 {
		t.Errorf("empty traffic produced counts %d/%d", r, w)
	}
}

func TestPostingLagHidesRecentTraffic(t *testing.T) {
	c, _ := noisyController(1)
	start := simtime.Time(simtime.Second) // let noise baseline exist
	r0, w0 := c.Totals(start)
	c.AddTraffic(true, 0, 1<<20, start, start)
	// Immediately at `start` the traffic has not posted yet.
	r1, _ := c.Totals(start)
	if r1 != r0 {
		t.Errorf("traffic visible instantly despite posting lag: %d -> %d", r0, r1)
	}
	// Well after the lag it is fully visible (modulo noise, which only adds).
	r2, _ := c.Totals(start.Add(simtime.Second))
	if r2-r0 < 1<<20 {
		t.Errorf("posted traffic missing: delta = %d, want >= %d", r2-r0, 1<<20)
	}
	_ = w0
}

func TestBackgroundNoiseAccumulates(t *testing.T) {
	c, _ := noisyController(2)
	r1, w1 := c.Totals(simtime.Time(simtime.Second))
	r2, w2 := c.Totals(simtime.Time(2 * simtime.Second))
	if r2 <= r1 || w2 <= w1 {
		t.Errorf("background noise did not accumulate: %d->%d reads, %d->%d writes", r1, r2, w1, w2)
	}
	// ~24 MiB/s nominal: over 1s expect single-digit-MiB to tens of MiB.
	delta := float64(r2 - r1 + w2 - w1)
	if delta < 1e6 || delta > 1e9 {
		t.Errorf("noise magnitude implausible: %v bytes/s", delta)
	}
}

func TestMeasurementOverheadInjection(t *testing.T) {
	// Isolate the overhead term: no background noise, no posting lag.
	c := NewController(Config{
		Channels: 8,
		Noise:    arch.NoiseParams{MeasurementOverheadBytes: 1 << 20},
		Seed:     3,
	}, simtime.NewClock())
	t0 := simtime.Time(simtime.Second)
	if r, w := c.Totals(t0); r != 0 || w != 0 {
		t.Fatalf("unexpected baseline traffic %d/%d", r, w)
	}
	c.InjectMeasurementOverhead(t0)
	r, w := c.Totals(t0)
	total := float64(r + w)
	// Log-normal with unit mean around 1 MiB: accept a wide band.
	if total < 1<<17 || total > 1<<24 {
		t.Errorf("overhead traffic = %v bytes, want on the order of 1 MiB", total)
	}
	if w == 0 || r == 0 {
		t.Errorf("overhead should contain both reads (%d) and writes (%d)", r, w)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() (uint64, uint64) {
		c, _ := noisyController(42)
		c.AddTraffic(true, 128, 1<<16, 0, simtime.Time(10*simtime.Millisecond))
		c.InjectMeasurementOverhead(simtime.Time(20 * simtime.Millisecond))
		return c.Totals(simtime.Time(simtime.Second))
	}
	r1, w1 := run()
	r2, w2 := run()
	if r1 != r2 || w1 != w2 {
		t.Errorf("same seed produced different totals: %d/%d vs %d/%d", r1, w1, r2, w2)
	}
}

func TestCountersMonotonic(t *testing.T) {
	c, _ := noisyController(7)
	var lastR, lastW uint64
	for i := 1; i <= 20; i++ {
		tm := simtime.Time(i) * simtime.Time(50*simtime.Millisecond)
		c.AddTraffic(i%2 == 0, int64(i)*64, int64(i)*1024, tm, tm)
		r, w := c.Totals(tm)
		if r < lastR || w < lastW {
			t.Fatalf("counters decreased at step %d: %d/%d after %d/%d", i, r, w, lastR, lastW)
		}
		lastR, lastW = r, w
	}
}

func TestPanicsOnBadChannels(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for zero channels")
		}
	}()
	NewController(Config{Channels: 0}, simtime.NewClock())
}

// Property: for an ideal controller, total counted bytes equal the
// rounded-up transaction bytes of everything added, split exactly across
// channels (conservation).
func TestConservationProperty(t *testing.T) {
	f := func(chunks []uint16, readMask uint32) bool {
		c, _ := idealController()
		var wantR, wantW uint64
		for i, raw := range chunks {
			bytes := int64(raw)
			if bytes == 0 {
				continue
			}
			read := readMask>>(uint(i)%32)&1 == 1
			rounded := (bytes + 63) / 64 * 64
			if read {
				wantR += uint64(rounded)
			} else {
				wantW += uint64(rounded)
			}
			c.AddTraffic(read, int64(i)*64, bytes, 0, 0)
		}
		r, w := c.Totals(0)
		return r == wantR && w == wantW
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: channel shares differ by at most one transaction for a
// single bulk transfer.
func TestBalanceProperty(t *testing.T) {
	f := func(txCount uint16, addrTx uint16) bool {
		c, _ := idealController()
		if txCount == 0 {
			return true
		}
		c.AddTraffic(true, int64(addrTx)*64, int64(txCount)*64, 0, 0)
		counts := c.ReadInto(0, nil)
		min, max := counts[0].ReadBytes, counts[0].ReadBytes
		for _, ch := range counts {
			if ch.ReadBytes < min {
				min = ch.ReadBytes
			}
			if ch.ReadBytes > max {
				max = ch.ReadBytes
			}
		}
		return max-min <= 64
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPortAdapter(t *testing.T) {
	c, clock := idealController()
	p := Port{C: c}
	clock.Advance(100)
	p.MemRead(0, 128)
	p.MemWrite(64, 64)
	r, w := c.Totals(clock.Now())
	if r != 128 || w != 64 {
		t.Errorf("port traffic = %d/%d, want 128/64", r, w)
	}
}
