package obs

import (
	"fmt"
	"io"
	"strconv"

	"repro/internal/metrics"
)

// Source bundles everything a scrape exports. Any field may be nil (or,
// for Alive, absent): the corresponding metric families are simply
// omitted.
type Source struct {
	Handle   *Handle
	Traffic  *metrics.Traffic
	Recovery *metrics.Recovery
	// Alive reports per-worker liveness (the Supervisor's view via
	// Executor.DeadMask, inverted). Feeds vela_worker_alive and /healthz.
	Alive func() []bool
	// Rejoining reports how many redialed workers are parked awaiting
	// step-boundary re-admission (Supervisor.PendingRejoins). Feeds the
	// /healthz "rejoining" count and vela_workers_rejoining, so
	// operators can tell "down" from "coming back".
	Rejoining func() int
}

// WriteMetrics writes the full metric catalogue in Prometheus text
// exposition format (one HELP/TYPE header per family, cumulative
// histogram buckets with le labels).
func WriteMetrics(w io.Writer, s Source) error {
	pw := &promWriter{w: w}
	h := s.Handle
	if h != nil {
		pw.header("vela_steps_total", "counter", "Completed training steps.")
		pw.sample("vela_steps_total", "", float64(h.Steps()))
		pw.header("vela_trace_events_total", "counter", "Trace events recorded since start.")
		pw.sample("vela_trace_events_total", "", float64(h.Trace.Total()))
		pw.header("vela_trace_events_dropped_total", "counter", "Trace events overwritten by ring wraparound.")
		pw.sample("vela_trace_events_dropped_total", "", float64(h.Trace.Dropped()))

		pw.header("vela_phase_seconds_total", "counter", "Cumulative seconds per step phase.")
		for _, st := range h.Breakdown() {
			pw.sample("vela_phase_seconds_total", `phase="`+st.Phase.String()+`"`, st.TotalSec)
		}
		pw.header("vela_phase_spans_total", "counter", "Completed spans per step phase.")
		for _, st := range h.Breakdown() {
			pw.sample("vela_phase_spans_total", `phase="`+st.Phase.String()+`"`, float64(st.Count))
		}

		pw.histogram("vela_queue_wait_seconds", "Time requests waited for an in-flight window slot.", "", h.QueueWait.Snapshot())
		for n := range h.ReqLatency {
			lbl := `worker="` + strconv.Itoa(n) + `"`
			pw.histogram("vela_request_latency_seconds", "Send-to-reply latency per worker.", lbl, h.ReqLatency[n].Snapshot())
		}
		for n := range h.Compute {
			if h.Compute[n].Count() == 0 {
				continue
			}
			lbl := `worker="` + strconv.Itoa(n) + `"`
			pw.histogram("vela_worker_compute_seconds", "Expert compute time per worker.", lbl, h.Compute[n].Snapshot())
		}
		for n := range h.StragglerGap {
			lbl := `worker="` + strconv.Itoa(n) + `"`
			pw.histogram("vela_straggler_gap_seconds", "Slowest-worker-minus-this-worker gap per exchange round.", lbl, h.StragglerGap[n].Snapshot())
		}
		pw.histogram("vela_frame_bytes", "Encoded frame sizes.", `dir="tx"`, h.FrameTx.Snapshot())
		pw.histogram("vela_frame_bytes", "", `dir="rx"`, h.FrameRx.Snapshot())

		if c := h.Clocks; c != nil {
			sampled := false
			for n := 0; n < h.Workers(); n++ {
				if c.Samples(n) > 0 {
					sampled = true
					break
				}
			}
			// Only workers with at least one echo get series: exporting the
			// identity estimate for a never-sampled worker would read as a
			// measured zero offset.
			if sampled {
				pw.header("vela_trace_clock_offset_ns", "gauge", "Clock offset of each worker vs the master (worker = master + offset), from the minimum-RTT recent ping.")
				for n := 0; n < h.Workers(); n++ {
					if c.Samples(n) > 0 {
						pw.sample("vela_trace_clock_offset_ns", `worker="`+strconv.Itoa(n)+`"`, float64(c.Offset(n)))
					}
				}
				pw.header("vela_trace_clock_rtt_ns", "gauge", "EWMA ping round-trip time per worker (clock-sync exchange).")
				for n := 0; n < h.Workers(); n++ {
					if c.Samples(n) > 0 {
						pw.sample("vela_trace_clock_rtt_ns", `worker="`+strconv.Itoa(n)+`"`, float64(c.RTT(n)))
					}
				}
				pw.header("vela_trace_clock_error_bound_ns", "gauge", "Worst-case rebasing error of worker trace events (rtt/2 + offset jitter).")
				for n := 0; n < h.Workers(); n++ {
					if c.Samples(n) > 0 {
						pw.sample("vela_trace_clock_error_bound_ns", `worker="`+strconv.Itoa(n)+`"`, float64(c.ErrorBound(n)))
					}
				}
			}
		}

		if drift := h.Drift.Drift(); drift != nil {
			pw.header("vela_p_drift_l1", "gauge", "Per-layer L1 distance between EWMA routing estimate and placement-time P.")
			for l, v := range drift {
				pw.sample("vela_p_drift_l1", `layer="`+strconv.Itoa(l)+`"`, v)
			}
			pw.header("vela_p_drift_max_l1", "gauge", "Largest per-layer P drift (placement staleness signal).")
			pw.sample("vela_p_drift_max_l1", "", h.Drift.MaxDrift())
		}
		if pred, meas := h.Drift.CommGauges(); pred > 0 || meas > 0 {
			pw.header("vela_step_comm_seconds", "gauge", "Per-step expert-exchange communication time: placement objective prediction vs EWMA of measurement.")
			pw.sample("vela_step_comm_seconds", `kind="predicted"`, pred)
			pw.sample("vela_step_comm_seconds", `kind="measured"`, meas)
		}
		if r := h.Replace.Snapshot(); r.Checks > 0 {
			pw.counter("vela_replace_checks_total", "Re-placement controller step-boundary signal evaluations.", float64(r.Checks))
			pw.counter("vela_replace_triggers_total", "Hysteresis-confirmed triggers (placement re-solved).", float64(r.Triggers))
			pw.counter("vela_replace_migrations_total", "Executed live migration plans.", float64(r.Migrations))
			pw.counter("vela_replace_moves_total", "Experts moved across all executed plans.", float64(r.Moves))
			pw.counter("vela_replace_cost_skips_total", "Re-solves discarded because predicted savings did not cover the migration cost.", float64(r.CostSkips))
			pw.header("vela_replace_cooldown_steps", "gauge", "Steps of post-migration cooldown remaining.")
			pw.sample("vela_replace_cooldown_steps", "", float64(r.Cooldown))
			pw.header("vela_replace_last_migration_step", "gauge", "Step of the last executed migration (-1 before the first).")
			pw.sample("vela_replace_last_migration_step", "", float64(r.LastStep))
			pw.header("vela_replace_decision_seconds", "gauge", "Latest re-solve economics: predicted comm savings per step vs one-time migration cost.")
			pw.sample("vela_replace_decision_seconds", `kind="savings_per_step"`, r.Savings)
			pw.sample("vela_replace_decision_seconds", `kind="move_cost"`, r.MoveCost)
		}
		if c := h.Ckpt.Snapshot(); c.Writes > 0 || c.Skips > 0 || c.Failures > 0 || c.ResumeSec > 0 {
			pw.counter("vela_ckpt_writes_total", "Run-level checkpoint generations durably written.", float64(c.Writes))
			pw.counter("vela_ckpt_skips_total", "Step boundaries skipped because a checkpoint write was in flight.", float64(c.Skips))
			pw.counter("vela_ckpt_failures_total", "Run-level checkpoint write attempts that errored.", float64(c.Failures))
			pw.header("vela_ckpt_generation", "gauge", "Newest durably written run-checkpoint generation.")
			pw.sample("vela_ckpt_generation", "", float64(c.Generation))
			pw.header("vela_ckpt_last_bytes", "gauge", "Encoded size of the newest generation.")
			pw.sample("vela_ckpt_last_bytes", "", float64(c.LastBytes))
			pw.header("vela_ckpt_write_seconds", "gauge", "Wall seconds of checkpoint writes: newest generation vs cumulative.")
			pw.sample("vela_ckpt_write_seconds", `kind="last"`, c.LastWrite)
			pw.sample("vela_ckpt_write_seconds", `kind="total"`, c.TotalWrite)
			pw.header("vela_ckpt_resume_seconds", "gauge", "Wall seconds the last run-level resume took (0 = fresh run).")
			pw.sample("vela_ckpt_resume_seconds", "", c.ResumeSec)
			pw.header("vela_ckpt_resume_generation", "gauge", "Generation the last resume reconstructed from.")
			pw.sample("vela_ckpt_resume_generation", "", float64(c.ResumeGen))
		}
	}

	if s.Traffic != nil {
		per := s.Traffic.Snapshot()
		pw.header("vela_traffic_bytes_total", "counter", "Logical bytes exchanged with each worker.")
		for n, t := range per {
			lbl := `worker="` + strconv.Itoa(n) + `",direction="`
			pw.sample("vela_traffic_bytes_total", lbl+`to_worker"`, float64(t.BytesToWorker))
			pw.sample("vela_traffic_bytes_total", lbl+`from_worker"`, float64(t.BytesFromWorker))
		}
		pw.header("vela_traffic_tokens_total", "counter", "Token-copies exchanged with each worker.")
		for n, t := range per {
			lbl := `worker="` + strconv.Itoa(n) + `",direction="`
			pw.sample("vela_traffic_tokens_total", lbl+`to_worker"`, float64(t.TokensToWorker))
			pw.sample("vela_traffic_tokens_total", lbl+`from_worker"`, float64(t.TokensFromWorker))
		}
		pw.header("vela_traffic_messages_total", "counter", "Messages exchanged with each worker.")
		for n, t := range per {
			pw.sample("vela_traffic_messages_total", `worker="`+strconv.Itoa(n)+`"`, float64(t.Messages))
		}
	}

	if s.Recovery != nil {
		c := s.Recovery.Snapshot()
		pw.header("vela_recovery_heartbeats_total", "counter", "Supervisor heartbeat probes by outcome.")
		pw.sample("vela_recovery_heartbeats_total", `outcome="answered"`, float64(c.HeartbeatsSent-c.HeartbeatsMissed))
		pw.sample("vela_recovery_heartbeats_total", `outcome="missed"`, float64(c.HeartbeatsMissed))
		pw.counter("vela_recovery_recv_timeouts_total", "Reply deadlines that expired.", float64(c.RecvTimeouts))
		pw.counter("vela_recovery_recv_retries_total", "Bounded in-round reply-wait retries.", float64(c.RecvRetries))
		pw.counter("vela_recovery_stale_replies_total", "Replies from abandoned rounds discarded.", float64(c.StaleReplies))
		pw.counter("vela_recovery_duplicate_replies_total", "Duplicate-Seq replies discarded.", float64(c.DuplicateReplies))
		pw.counter("vela_recovery_step_retries_total", "Training steps re-driven after recovery.", float64(c.StepRetries))
		pw.counter("vela_recovery_worker_failovers_total", "Workers declared dead and failed over.", float64(c.WorkerFailovers))
		pw.counter("vela_recovery_experts_recovered_total", "Experts restored onto survivors from snapshots.", float64(c.ExpertsRecovered))
		pw.counter("vela_recovery_snapshots_total", "Completed expert-state checkpoint pulls.", float64(c.Snapshots))
		pw.counter("vela_recovery_worker_rejoins_total", "Dead workers re-admitted after a successful rejoin handshake.", float64(c.WorkerRejoins))
	}

	if s.Alive != nil {
		alive := s.Alive()
		pw.header("vela_worker_alive", "gauge", "Per-worker liveness from the supervisor's view (1=alive).")
		up := 0
		for n, ok := range alive {
			v := 0.0
			if ok {
				v = 1
				up++
			}
			pw.sample("vela_worker_alive", `worker="`+strconv.Itoa(n)+`"`, v)
		}
		pw.header("vela_workers_alive", "gauge", "Count of live workers.")
		pw.sample("vela_workers_alive", "", float64(up))
		pw.header("vela_workers_total", "gauge", "Size of the worker pool.")
		pw.sample("vela_workers_total", "", float64(len(alive)))
	}

	if s.Rejoining != nil {
		pw.header("vela_workers_rejoining", "gauge", "Dead workers redialed and parked awaiting step-boundary re-admission.")
		pw.sample("vela_workers_rejoining", "", float64(s.Rejoining()))
	}

	return pw.err
}

// promWriter emits exposition lines, latching the first write error so
// callers check once.
type promWriter struct {
	w   io.Writer
	err error
}

func (p *promWriter) printf(format string, args ...any) {
	if p.err != nil {
		return
	}
	_, p.err = fmt.Fprintf(p.w, format, args...)
}

func (p *promWriter) header(name, typ, help string) {
	if help != "" {
		p.printf("# HELP %s %s\n", name, help)
	}
	p.printf("# TYPE %s %s\n", name, typ)
}

func (p *promWriter) sample(name, labels string, v float64) {
	if labels == "" {
		p.printf("%s %s\n", name, formatValue(v))
		return
	}
	p.printf("%s{%s} %s\n", name, labels, formatValue(v))
}

func (p *promWriter) counter(name, help string, v float64) {
	p.header(name, "counter", help)
	p.sample(name, "", v)
}

// histogram writes one histogram series in Prometheus convention:
// cumulative _bucket samples with le labels (ending at +Inf), then _sum
// and _count. An empty help suppresses the header (for subsequent label
// sets of the same family).
func (p *promWriter) histogram(name, help, labels string, s HistogramSnapshot) {
	if help != "" {
		p.header(name, "histogram", help)
	}
	sep := ""
	if labels != "" {
		sep = ","
	}
	var cum uint64
	for i, b := range s.Bounds {
		cum += s.Counts[i]
		p.printf("%s_bucket{%s%sle=%q} %d\n", name, labels, sep, formatValue(b), cum)
	}
	cum += s.Counts[len(s.Counts)-1]
	p.printf("%s_bucket{%s%sle=\"+Inf\"} %d\n", name, labels, sep, cum)
	p.sample(name+"_sum", labels, s.Sum)
	p.sample(name+"_count", labels, float64(s.Count))
}

func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
