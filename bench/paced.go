package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"
)

// pacedPass offers the stack 25, 50 and 75 % of its closed-loop rate on
// a fixed schedule and reports latency from each op's due time — the
// load–latency points — plus how late the generator itself ran. Each
// worker paces its own share of the schedule by spinning and yielding:
// a sleeping generator reads its own wake-up latency (see README.md).
func pacedPass(l *ladder, st *stack, closedOpsPerS float64, step time.Duration) error {
	var late []uint32
	for _, pct := range []int{25, 50, 75} {
		every := time.Duration(float64(len(st.workers)) / (closedOpsPerS * float64(pct) / 100) * float64(time.Second))
		type sample struct{ lat, late []uint32 }
		out := make([]sample, len(st.workers))
		errs := make([]error, len(st.workers))
		start := time.Now().Add(10 * time.Millisecond)
		drive(st, func(i int, w *worker) {
			n := int(step / every)
			s := &out[i]
			s.lat, s.late = make([]uint32, 0, n), make([]uint32, 0, n)
			for k := 0; k < n; k++ {
				due := start.Add(time.Duration(k) * every)
				for time.Now().Before(due) {
					runtime.Gosched()
				}
				t0, d, err := w.do()
				if err != nil && errs[i] == nil {
					errs[i] = err
				}
				s.lat = append(s.lat, ns32(t0.Add(d).Sub(due)))
				s.late = append(s.late, ns32(t0.Sub(due)))
			}
		})

		var lat []uint32
		for i, s := range out {
			if errs[i] != nil {
				return fmt.Errorf("paced pass at %d%%: %w", pct, errs[i])
			}
			lat = append(lat, s.lat...)
			late = append(late, s.late...)
		}
		slices.Sort(lat)
		l.out[fmt.Sprintf("loadgen.rate%d_p50_us", pct)] = quantileU32(lat, 0.50) / 1e3
		l.out[fmt.Sprintf("loadgen.rate%d_p99_us", pct)] = quantileU32(lat, 0.99) / 1e3
	}
	slices.Sort(late)
	l.out["loadgen.gen_late_p99_us"] = quantileU32(late, 0.99) / 1e3
	return nil
}
