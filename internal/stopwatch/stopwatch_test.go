package stopwatch

import (
	"sync"
	"testing"
	"time"
)

func TestAddAndGet(t *testing.T) {
	var tm PhaseTimer
	tm.Add("a", 10*time.Millisecond)
	tm.Add("a", 5*time.Millisecond)
	tm.Add("b", time.Millisecond)
	if got := tm.Get("a"); got != 15*time.Millisecond {
		t.Errorf("Get(a) = %v", got)
	}
	if got := tm.Get("b"); got != time.Millisecond {
		t.Errorf("Get(b) = %v", got)
	}
	if got := tm.Get("missing"); got != 0 {
		t.Errorf("Get(missing) = %v", got)
	}
	if a, b, missing := tm.Count("a"), tm.Count("b"), tm.Count("missing"); a != 2 || b != 1 || missing != 0 {
		t.Errorf("Count = %d, %d, %d; want 2, 1, 0", a, b, missing)
	}
}

func TestTime(t *testing.T) {
	var tm PhaseTimer
	stop := tm.Time(PhaseSignVerify)
	time.Sleep(2 * time.Millisecond)
	stop()
	if got := tm.Get(PhaseSignVerify); got < time.Millisecond {
		t.Errorf("timed phase = %v, want >= 1ms", got)
	}
}

func TestPhases(t *testing.T) {
	var tm PhaseTimer
	if len(tm.Phases()) != 0 || tm.Get("a") != 0 {
		t.Error("a new timer holds phases")
	}
	tm.Add("z", 1)
	tm.Add("a", 1)
	ph := tm.Phases()
	if len(ph) != 2 || ph[0] != "a" || ph[1] != "z" {
		t.Errorf("Phases() = %v", ph)
	}
}

func TestConcurrentAdd(t *testing.T) {
	var tm PhaseTimer
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				tm.Add("p", time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if got := tm.Get("p"); got != 800*time.Microsecond {
		t.Errorf("concurrent total = %v, want 800µs", got)
	}
}
