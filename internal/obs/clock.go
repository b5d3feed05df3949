package obs

import "sync"

// clockAlpha is the EWMA coefficient of the RTT and jitter estimators.
// Small enough to smooth scheduler noise on individual pings, large
// enough to track real drift across a heartbeat cadence of seconds.
const clockAlpha = 0.125

// clockWindow is how many recent samples the offset estimate is chosen
// from (NTP's clock filter keeps 8).
const clockWindow = 8

// clockSample is one exchange's offset θ and round trip.
type clockSample struct{ thetaNs, rttNs float64 }

// clockState is one worker's clock relation to the master.
type clockState struct {
	samples  uint64
	recent   [clockWindow]clockSample // ring; the newest is at (samples-1)%clockWindow
	best     clockSample              // minimum-RTT sample in recent: the offset estimate
	rttNs    float64                  // EWMA of the ping round trip
	jitterNs float64                  // EWMA of |θ_sample − θ_estimate|
}

// ClockSync estimates each worker's clock offset and round-trip time
// from NTP-style 4-timestamp ping exchanges, so worker-side trace
// events can be rebased onto the master timebase.
//
// Convention: a worker timestamp tW corresponds to master time tW −
// Offset(n). Each sample carries (t0, t1, t2, t3) = master send, worker
// receive, worker send, master receive; its offset is
// θ = ((t1−t0)+(t2−t3))/2 and its RTT is (t3−t0)−(t2−t1). The error of
// a single sample is bounded by rtt/2 (the asymmetric-path worst case).
// As in NTP's clock filter, the estimate is the θ of the minimum-RTT
// sample among the last clockWindow: one ping stalled on one leg has a
// long RTT and cannot drag the offset the way an average of all samples
// would. ErrorBound reports that sample's rtt/2 plus the observed offset
// jitter.
//
// All methods are safe for concurrent use and nil-receiver-safe. Sample
// runs on the heartbeat path (per ping, not per request), so a mutex
// and float math are fine here.
type ClockSync struct {
	mu      sync.Mutex
	workers []clockState
}

// NewClockSync builds an estimator for `workers` workers.
func NewClockSync(workers int) *ClockSync {
	if workers < 0 {
		workers = 0
	}
	return &ClockSync{workers: make([]clockState, workers)}
}

// Sample folds one 4-timestamp exchange for worker n into the
// estimates. Timestamps are nanoseconds: t0/t3 on the master clock,
// t1/t2 on the worker clock. Out-of-range workers and non-causal
// samples (t3 < t0 or t2 < t1) are dropped.
func (c *ClockSync) Sample(n int, t0, t1, t2, t3 int64) {
	if c == nil || n < 0 || n >= len(c.workers) || t3 < t0 || t2 < t1 {
		return
	}
	s := clockSample{
		thetaNs: (float64(t1-t0) + float64(t2-t3)) / 2,
		rttNs:   float64(t3-t0) - float64(t2-t1),
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	st := &c.workers[n]
	if st.samples == 0 {
		st.rttNs, st.jitterNs = s.rttNs, 0
	} else {
		dev := s.thetaNs - st.best.thetaNs
		if dev < 0 {
			dev = -dev
		}
		st.jitterNs += clockAlpha * (dev - st.jitterNs)
		st.rttNs += clockAlpha * (s.rttNs - st.rttNs)
	}
	st.recent[st.samples%clockWindow] = s
	st.samples++
	// Ties go to the newest sample, so a clock that steps is followed.
	st.best = s
	for i := uint64(1); i < min(st.samples, clockWindow); i++ {
		if r := st.recent[(st.samples-1-i)%clockWindow]; r.rttNs < st.best.rttNs {
			st.best = r
		}
	}
}

// Offset returns worker n's clock offset θ in nanoseconds
// (worker_clock = master_clock + θ), from the minimum-RTT recent sample.
// Zero before the first sample — the correct identity for an in-process
// worker sharing the master's clock.
func (c *ClockSync) Offset(n int) int64 {
	if c == nil || n < 0 {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if n >= len(c.workers) {
		return 0
	}
	return int64(c.workers[n].best.thetaNs)
}

// RTT returns worker n's smoothed ping round trip in nanoseconds.
func (c *ClockSync) RTT(n int) int64 {
	if c == nil || n < 0 {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if n >= len(c.workers) {
		return 0
	}
	return int64(c.workers[n].rttNs)
}

// Samples returns how many exchanges worker n has contributed.
func (c *ClockSync) Samples(n int) uint64 {
	if c == nil || n < 0 {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if n >= len(c.workers) {
		return 0
	}
	return c.workers[n].samples
}

// ErrorBound returns the estimated worst-case rebasing error for worker
// n's events in nanoseconds: half the RTT of the sample the offset comes
// from (the asymmetric-path bound of one NTP sample) plus the observed
// offset jitter. Zero before
// the first sample (shared-clock deployments rebase exactly).
func (c *ClockSync) ErrorBound(n int) int64 {
	if c == nil || n < 0 {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if n >= len(c.workers) {
		return 0
	}
	st := &c.workers[n]
	return int64(st.best.rttNs/2 + st.jitterNs)
}
