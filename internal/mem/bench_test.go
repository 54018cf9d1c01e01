package mem

import (
	"testing"

	"papimc/internal/arch"
	"papimc/internal/simtime"
)

// BenchmarkRead: the counter-snapshot hot path under realistic noise —
// every PMU read, daemon sample and profile tick goes through it.
func BenchmarkRead(b *testing.B) {
	c, _ := noisyController(1)
	t := simtime.Time(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t = t.Add(100 * simtime.Microsecond)
		c.AddTraffic(true, int64(i)*64, 1<<16, t, t)
		c.ReadInto(t, nil)
	}
}

// BenchmarkTotals: the summed variant used by the nest metrics.
func BenchmarkTotals(b *testing.B) {
	c, _ := noisyController(2)
	t := simtime.Time(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t = t.Add(100 * simtime.Microsecond)
		c.AddTraffic(false, int64(i)*64, 1<<16, t, t)
		c.Totals(t)
	}
}

// BenchmarkAddTraffic: posting one 64 KiB transfer (ideal counters) —
// the cache simulator's MemPort emits these once per miss.
func BenchmarkAddTraffic(b *testing.B) {
	c, _ := idealController()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.AddTraffic(true, int64(i)*64, 1<<16, 0, 0)
	}
	b.StopTimer()
	c.Totals(0)
}

// BenchmarkAddTrafficNoisy: the same under posting lag, where every
// channel slice takes its own stochastic post time. Background noise is
// off so the measurement isolates the posting-queue cost.
func BenchmarkAddTrafficNoisy(b *testing.B) {
	clock := simtime.NewClock()
	noise := arch.Summit().Noise
	noise.BackgroundBytesPerSec = 0
	c := NewController(Config{Channels: 8, Noise: noise, Seed: 3}, clock)
	t := simtime.Time(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t = t.Add(simtime.Microsecond)
		c.AddTraffic(true, int64(i)*64, 1<<16, t, t)
		if i%1024 == 1023 { // drain periodically as a sampler would
			c.ReadInto(t.Add(simtime.Second), nil)
		}
	}
}
