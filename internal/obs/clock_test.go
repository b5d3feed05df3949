package obs

import (
	"math"
	"sync"
	"testing"
)

// pingSample builds the four NTP-style timestamps of one heartbeat echo
// for a worker whose clock reads master+offset, with symmetric one-way
// delay `wire` and worker-side processing time `proc` (all nanoseconds,
// master clock for t0/t3).
func pingSample(sendAt, offset, wire, proc int64) (t0, t1, t2, t3 int64) {
	t0 = sendAt
	t1 = sendAt + wire + offset // arrival, worker clock
	t2 = t1 + proc              // pong departure, worker clock
	t3 = sendAt + wire + proc + wire
	return
}

// TestClockSyncRecoversOffset pins the estimator on the textbook case:
// with symmetric delays the 4-timestamp formula recovers the planted
// offset exactly, and RTT excludes the worker's processing time.
func TestClockSyncRecoversOffset(t *testing.T) {
	cs := NewClockSync(2)
	const offset = 3_000_000 // worker runs 3ms ahead
	t0, t1, t2, t3 := pingSample(1_000_000, offset, 250_000, 40_000)
	cs.Sample(1, t0, t1, t2, t3)

	if got := cs.Offset(1); got != offset {
		t.Fatalf("Offset = %d, want %d", got, offset)
	}
	if got := cs.RTT(1); got != 500_000 {
		t.Fatalf("RTT = %d, want 500000 (processing time must be excluded)", got)
	}
	if cs.Samples(1) != 1 {
		t.Fatalf("Samples = %d, want 1", cs.Samples(1))
	}
	// Worker 0 never sampled: identity offset, zero everything.
	if cs.Offset(0) != 0 || cs.RTT(0) != 0 || cs.Samples(0) != 0 {
		t.Fatal("unsampled worker is not at the identity estimate")
	}
}

// TestClockSyncNegativeOffset covers a worker whose clock runs behind the
// master.
func TestClockSyncNegativeOffset(t *testing.T) {
	cs := NewClockSync(1)
	t0, t1, t2, t3 := pingSample(5_000_000, -2_000_000, 100_000, 10_000)
	cs.Sample(0, t0, t1, t2, t3)
	if got := cs.Offset(0); got != -2_000_000 {
		t.Fatalf("Offset = %d, want -2000000", got)
	}
}

// TestClockSyncEWMAConverges feeds a drifting sequence of samples and
// checks the estimate moves monotonically toward the new offset and
// lands near it.
func TestClockSyncEWMAConverges(t *testing.T) {
	cs := NewClockSync(1)
	t0, t1, t2, t3 := pingSample(0, 1_000_000, 200_000, 10_000)
	cs.Sample(0, t0, t1, t2, t3)
	first := cs.Offset(0)
	if first != 1_000_000 {
		t.Fatalf("first sample should initialize exactly, got %d", first)
	}
	// The clock steps to 2ms; the estimate must move monotonically toward
	// it and land within 10% after enough samples.
	prev := first
	for i := 0; i < 60; i++ {
		t0, t1, t2, t3 := pingSample(int64(i+1)*10_000_000, 2_000_000, 200_000, 10_000)
		cs.Sample(0, t0, t1, t2, t3)
		cur := cs.Offset(0)
		if cur < prev {
			t.Fatalf("sample %d: estimate moved away from the target (%d -> %d)", i, prev, cur)
		}
		prev = cur
	}
	if math.Abs(float64(cs.Offset(0))-2_000_000) > 200_000 {
		t.Fatalf("after 60 samples Offset = %d, want within 10%% of 2000000", cs.Offset(0))
	}
}

// TestClockSyncPrefersMinimumDelay pins the clock filter: a ping whose
// outbound leg stalls has a long RTT and a skewed θ, and must not move
// the offset; once every sample in the window has the new path's RTT,
// the estimate follows it.
func TestClockSyncPrefersMinimumDelay(t *testing.T) {
	cs := NewClockSync(1)
	const offset = 1_000_000
	t0, t1, t2, t3 := pingSample(0, offset, 20_000, 5_000)
	cs.Sample(0, t0, t1, t2, t3)
	// Outbound leg 420µs, return leg 20µs: θ reads 200µs high.
	cs.Sample(0, 10_000_000, 10_420_000+offset, 10_425_000+offset, 10_445_000)
	if got := cs.Offset(0); got != offset {
		t.Fatalf("Offset = %d after a stalled ping, want %d (the minimum-delay sample's)", got, offset)
	}
	if got := cs.ErrorBound(0); got < 20_000 {
		t.Fatalf("ErrorBound = %d, want at least the selected sample's rtt/2 = 20000", got)
	}
	// The path slows for good: after a window of slower samples the
	// fast one has aged out and the offset is the new clock's.
	for i := 0; i < clockWindow; i++ {
		t0, t1, t2, t3 := pingSample(int64(i+2)*10_000_000, 1_500_000, 60_000, 5_000)
		cs.Sample(0, t0, t1, t2, t3)
	}
	if got := cs.Offset(0); got != 1_500_000 {
		t.Fatalf("Offset = %d after the window turned over, want 1500000", got)
	}
}

// TestClockSyncErrorBound pins the bound's two ingredients: half the RTT
// (the asymmetry ambiguity) plus the observed offset jitter.
func TestClockSyncErrorBound(t *testing.T) {
	cs := NewClockSync(1)
	t0, t1, t2, t3 := pingSample(0, 1_000_000, 300_000, 0)
	cs.Sample(0, t0, t1, t2, t3)
	if got := cs.ErrorBound(0); got != 300_000 {
		t.Fatalf("single-sample ErrorBound = %d, want rtt/2 = 300000", got)
	}
	// A second sample with a different apparent offset raises the bound by
	// the jitter term.
	t0, t1, t2, t3 = pingSample(10_000_000, 1_400_000, 300_000, 0)
	cs.Sample(0, t0, t1, t2, t3)
	if got := cs.ErrorBound(0); got <= 300_000 {
		t.Fatalf("post-jitter ErrorBound = %d, want > rtt/2", got)
	}
}

// TestClockSyncRejectsGarbage pins the guards: out-of-range workers and
// causality-violating timestamps are dropped without panicking or
// polluting the estimate.
func TestClockSyncRejectsGarbage(t *testing.T) {
	cs := NewClockSync(1)
	cs.Sample(-1, 0, 1, 2, 3)
	cs.Sample(5, 0, 1, 2, 3)
	cs.Sample(0, 100, 50, 40, 90) // t2 < t1: worker time ran backwards
	cs.Sample(0, 100, 110, 120, 90)
	if cs.Samples(0) != 0 {
		t.Fatalf("garbage samples were accepted: %d", cs.Samples(0))
	}
	var nilCS *ClockSync
	nilCS.Sample(0, 0, 1, 2, 3)
	if nilCS.Offset(0) != 0 || nilCS.RTT(0) != 0 || nilCS.ErrorBound(0) != 0 || nilCS.Samples(0) != 0 {
		t.Fatal("nil ClockSync is not inert")
	}
}

// TestClockSyncConcurrent hammers Sample and the getters from multiple
// goroutines — meaningful under -race.
func TestClockSyncConcurrent(t *testing.T) {
	cs := NewClockSync(4)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				t0, t1, t2, t3 := pingSample(int64(i)*1_000_000, int64(w)*100_000, 50_000, 5_000)
				cs.Sample(w, t0, t1, t2, t3)
				_ = cs.Offset(w)
				_ = cs.ErrorBound(w)
			}
		}(w)
	}
	wg.Wait()
	for w := 0; w < 4; w++ {
		if got := cs.Offset(w); got != int64(w)*100_000 {
			t.Fatalf("worker %d Offset = %d, want %d", w, got, int64(w)*100_000)
		}
	}
}
