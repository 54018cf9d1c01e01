// Package leakcheck fails a test that leaves goroutines running. It
// imports only the standard library, so the internal tests of every
// package — pcp and pmproxy included, which internal/testutil imports —
// can use it.
package leakcheck

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// NoGoroutineLeak fails t if goroutines started during the test are
// still running once it — and every cleanup registered after this call —
// has finished. Call it first in the test: it snapshots the live
// goroutines now and, from a cleanup, polls until every goroutine not in
// that snapshot has exited (servers and clients wind down
// asynchronously after Close returns to their peers), reporting the
// stragglers' stacks after two seconds.
func NoGoroutineLeak(t *testing.T) {
	t.Helper()
	before := make(map[string]bool)
	for id := range goroutineStacks() {
		before[id] = true
	}
	t.Cleanup(func() {
		deadline := time.Now().Add(2 * time.Second)
		for {
			var leaked []string
			for id, stack := range goroutineStacks() {
				if !before[id] {
					leaked = append(leaked, stack)
				}
			}
			if len(leaked) == 0 {
				return
			}
			if time.Now().After(deadline) {
				t.Errorf("%d goroutine(s) leaked:\n\n%s", len(leaked), strings.Join(leaked, "\n\n"))
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
	})
}

// goroutineStacks returns every live goroutine's stack trace keyed by
// its "goroutine N" header (IDs are never reused within a process).
func goroutineStacks() map[string]string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	stacks := make(map[string]string)
	for _, g := range strings.Split(string(buf), "\n\n") {
		id, _, _ := strings.Cut(g, " [")
		stacks[id] = g
	}
	return stacks
}
