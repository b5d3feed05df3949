package main

// layerStats folds the traced steps into per-layer numbers.
type layerStats struct {
	steps      int
	predicted  float64            // placement.Evaluate comm seconds per step
	spanNs     map[string]float64 // summed span time by name
	spanCalls  map[string]int
	wallNs     float64
	selfNs     float64 // step time no child span covers: backbone forward/backward, gate, loss
	sumErrNs   float64 // |Σ child spans − their union|: time counted twice
	masterSelf float64 // exchange time no request's [T0,T5] covers
	critical   float64 // slowest worker's T5−T0 per exchange
	imbalance  []float64
	// Summed request intervals: T1−T0, T2−T1, T3−T2, T4−T3, T5−T4.
	phase      [5]float64
	values     float64
	frames     float64
	incomplete int
}

func newLayerStats() *layerStats {
	return &layerStats{spanNs: map[string]float64{}, spanCalls: map[string]int{}}
}

// endStep folds one traced step, [t0, t1), into the totals.
func (l *layerStats) endStep(r *recorder, t0, t1, frames int64) {
	l.steps++
	l.wallNs += float64(t1 - t0)
	l.frames += float64(frames)
	byExch := map[int64][]*request{}
	for _, q := range r.tap.drain() {
		if q.exch == 0 {
			continue // issued inside a span taken by do, which times it
		}
		if q.have != 1<<6-1 {
			l.incomplete++
			continue
		}
		byExch[q.exch] = append(byExch[q.exch], q)
		for i := range l.phase {
			l.phase[i] += float64(q.t[i+1] - q.t[i])
		}
		l.values += float64(q.values)
	}
	var children []interval
	var childNs int64
	for _, sp := range r.spans {
		children = append(children, interval{sp.start, sp.end})
		childNs += sp.end - sp.start
		l.spanNs[sp.name] += float64(sp.end - sp.start)
		l.spanCalls[sp.name]++
		if sp.name == "exchange" {
			l.exchange(sp, byExch[sp.id])
		}
	}
	cov := covered(children, t0, t1)
	l.selfNs += float64(t1 - t0 - cov)
	l.sumErrNs += float64(abs(childNs - cov))
}

func abs(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

func (l *layerStats) exchange(sp span, reqs []*request) {
	ivs := make([]interval, 0, len(reqs))
	first := map[int]int64{}
	last := map[int]int64{}
	for _, q := range reqs {
		ivs = append(ivs, interval{q.t[0], q.t[5]})
		if t, ok := first[q.worker]; !ok || q.t[0] < t {
			first[q.worker] = q.t[0]
		}
		last[q.worker] = max(last[q.worker], q.t[5])
	}
	l.masterSelf += float64(sp.end - sp.start - covered(ivs, sp.start, sp.end))
	var slowest int64
	for n, t := range first {
		slowest = max(slowest, last[n]-t)
	}
	l.critical += float64(slowest)
	total, most := 0, 0
	for _, rows := range sp.rows {
		total += rows
		most = max(most, rows)
	}
	if total > 0 {
		l.imbalance = append(l.imbalance, float64(most)/(float64(total)/float64(len(sp.rows))))
	}
}

// metrics returns the per-layer metrics the spans and stamps give.
// Span times are per timed step, unless named per call.
func (l *layerStats) metrics() map[string]metric {
	steps := float64(max(l.steps, 1))
	perStep := func(ns float64) float64 { return ns / 1e6 / steps }
	perCall := func(name string) float64 {
		if l.spanCalls[name] == 0 {
			return 0
		}
		return l.spanNs[name] / 1e6 / float64(l.spanCalls[name])
	}
	comm := l.phase[0] + l.phase[1] + l.phase[3] + l.phase[4]
	ratio := 0.0
	if comm > 0 {
		ratio = l.predicted / (comm / 1e9 / steps)
	}
	nsPerValue := 0.0
	if l.values > 0 {
		nsPerValue = (l.phase[0] + l.phase[3]) / l.values
	}
	imb := 0.0
	for _, v := range l.imbalance {
		imb += v / float64(len(l.imbalance))
	}
	sumErr := 0.0
	if l.wallNs > 0 {
		sumErr = l.sumErrNs / l.wallNs
	}
	ms := func(v float64) metric { return metric{Value: v, Unit: "ms"} }
	return map[string]metric{
		"trace.step_ms":             ms(l.wallNs / 1e6 / steps),
		"trace.sum_err_frac":        {Value: sumErr, Unit: "ratio"},
		"moe.backbone_self_ms":      ms(perStep(l.selfNs)),
		"nn.backbone_opt_ms":        ms(perStep(l.spanNs["opt"])),
		"broker.exchange_ms":        ms(perStep(l.spanNs["exchange"])),
		"broker.master_self_ms":     ms(perStep(l.masterSelf)),
		"broker.worker_service_ms":  ms(perStep(l.phase[2])),
		"broker.critical_ms":        ms(perStep(l.critical)),
		"broker.load_imbalance":     {Value: imb, Unit: "ratio"},
		"broker.control_ms":         ms(perStep(l.spanNs["control"])),
		"broker.snapshot_ms":        ms(perStep(l.spanNs["snapshot"])),
		"broker.migrate_ms":         ms(perCall("migrate")),
		"replace.onstep_ms":         ms(perCall("replace")),
		"replace.reprofile_ms":      ms(perCall("reprofile")),
		"checkpoint.capture_ms":     ms(perCall("capture")),
		"wire.master_send_ms":       ms(perStep(l.phase[0])),
		"wire.worker_send_ms":       ms(perStep(l.phase[3])),
		"wire.values_per_step":      {Value: l.values / steps, Unit: "count"},
		"wire.ns_per_value":         {Value: nsPerValue, Unit: "ns"},
		"transport.in_ms":           ms(perStep(l.phase[1])),
		"transport.out_ms":          ms(perStep(l.phase[4])),
		"transport.frames_per_step": {Value: l.frames / steps, Unit: "count"},
		"placement.model_ratio":     {Value: ratio, Unit: "ratio"},
	}
}
