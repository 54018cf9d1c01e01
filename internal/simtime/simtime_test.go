package simtime

import (
	"encoding/json"
	"sync"
	"testing"
)

func TestAddSub(t *testing.T) {
	t0 := Time(100)
	t1 := t0.Add(50)
	if t1 != 150 {
		t.Errorf("Add: got %d, want 150", t1)
	}
	if d := t1.Sub(t0); d != 50 {
		t.Errorf("Sub: got %d, want 50", d)
	}
}

func TestDurationSeconds(t *testing.T) {
	if s := (2 * Second).Seconds(); s != 2 {
		t.Errorf("Seconds = %v, want 2", s)
	}
	if s := (500 * Millisecond).Seconds(); s != 0.5 {
		t.Errorf("Seconds = %v, want 0.5", s)
	}
}

func TestFromSeconds(t *testing.T) {
	if d := FromSeconds(1.5); d != 1500*Millisecond {
		t.Errorf("FromSeconds(1.5) = %v", d)
	}
}

func TestDurationString(t *testing.T) {
	cases := []struct {
		d    Duration
		want string
	}{
		{5, "5ns"},
		{2 * Microsecond, "2.000µs"},
		{3 * Millisecond, "3.000ms"},
		{Second + 500*Millisecond, "1.500s"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int64(c.d), got, c.want)
		}
	}
}

func TestClockMonotonic(t *testing.T) {
	c := NewClock()
	if c.Now() != 0 {
		t.Fatal("new clock not at 0")
	}
	c.Advance(100)
	if c.Now() != 100 {
		t.Errorf("Now = %d, want 100", c.Now())
	}
	c.Advance(-50) // ignored
	if c.Now() != 100 {
		t.Errorf("negative Advance moved clock: %d", c.Now())
	}
	c.AdvanceTo(80) // ignored, in the past
	if c.Now() != 100 {
		t.Errorf("AdvanceTo moved clock backwards: %d", c.Now())
	}
	c.AdvanceTo(200)
	if c.Now() != 200 {
		t.Errorf("AdvanceTo = %d, want 200", c.Now())
	}
}

func TestClockConcurrent(t *testing.T) {
	c := NewClock()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Advance(1)
			}
		}()
	}
	wg.Wait()
	if c.Now() != 8000 {
		t.Errorf("concurrent advances lost updates: %d, want 8000", c.Now())
	}
}

// TestDurationUnmarshalJSON: a duration is a time.ParseDuration string;
// a bare number, whose unit would be a guess, is rejected, and null
// leaves the value alone.
func TestDurationUnmarshalJSON(t *testing.T) {
	for src, want := range map[string]Duration{
		`"400us"`: 400 * Microsecond,
		`"2m"`:    120 * Second,
		`"1h30m"`: 5400 * Second,
		`null`:    7,
	} {
		d := Duration(7)
		if err := json.Unmarshal([]byte(src), &d); err != nil || d != want {
			t.Errorf("%s: got %v, %v; want %v", src, d, err, want)
		}
	}
	for _, src := range []string{`90`, `"90"`, `"soon"`, `true`, `{}`} {
		var d Duration
		if err := json.Unmarshal([]byte(src), &d); err == nil {
			t.Errorf("%s: accepted as %v", src, d)
		}
	}
}
