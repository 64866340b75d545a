package testutil

import (
	"os"
	"runtime"
	"testing"
	"time"
)

// openFDs counts the process's open file descriptors; ok is false where
// /proc is absent.
func openFDs() (n int, ok bool) {
	entries, err := os.ReadDir("/proc/self/fd")
	return len(entries), err == nil
}

// NoLeaks snapshots the goroutine and open-descriptor counts and
// returns the check to run once the code under test has returned: both
// counts must be back at (or below) the snapshot within two seconds —
// teardown may finish asynchronously, a leak never does. The descriptor
// half is skipped where /proc is absent.
func NoLeaks(tb testing.TB) (check func()) {
	tb.Helper()
	goroutines := runtime.NumGoroutine()
	fds, haveFDs := openFDs()
	return func() {
		tb.Helper()
		deadline := time.Now().Add(2 * time.Second)
		for {
			g := runtime.NumGoroutine()
			f, _ := openFDs()
			if g <= goroutines && (!haveFDs || f <= fds) {
				return
			}
			if time.Now().After(deadline) {
				tb.Errorf("leak: goroutines %d -> %d, open descriptors %d -> %d", goroutines, g, fds, f)
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
}
