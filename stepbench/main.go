// Command stepbench is the repository's end-to-end benchmark: it runs
// LoRA fine-tuning steps through the shipped broker path on one of three
// workloads, checks the outputs, and prints the end-to-end metrics
// (--trace 0) or the per-layer metrics of a separately traced run
// (--trace 1) as the last line of standard output.
//
// Build and run it from the repository root with
//
//	bash stepbench/run.sh --workload narrow-tcp --seed 1 --seconds 30 --trace 0
//
// Load model: a closed loop, one trainer with one step in flight; the
// master and all six workers run in this process.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/checkpoint"
)

// A run times at least minSetups set-ups (setup_s is their median) and
// minTimed steps, so that step_ms_p90 has ten samples beyond it.
const (
	minSetups = 3
	minTimed  = 100
	// maxMeasure stops starting episodes, whatever the counts, so that a
	// run on a slow machine still ends in time.
	maxMeasure = 100 * time.Second
)

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "narrow-tcp | wide-chan | durable-shift")
	seed := flag.Int64("seed", 1, "workload seed: corpus windows, batchers, splice step")
	seconds := flag.Int("seconds", 30, "how long to measure")
	trace := flag.Int("trace", 0, "1 prints the per-layer metrics of a traced run")
	pretrainOnly := flag.Bool("pretrain-only", false, "build the workload's checkpoint and exit")
	flag.Parse()
	wl, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "stepbench: bad arguments (workload %q)\n", *name)
		return 2
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	b := &bench{wl: &wl, in: makeInputs(&wl, *seed), traced: *trace == 1,
		dir: filepath.Join(".bench_build", "stepbench")}
	var err error
	if *pretrainOnly {
		err = pretrain(&wl, checkpointPath(&wl, b.dir))
	} else {
		err = b.run(time.Duration(*seconds) * time.Second)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "stepbench: %v\n", err)
		return 1
	}
	return 0
}

// run measures the workload and prints the context line and the result.
func (b *bench) run(d time.Duration) error {
	if err := os.MkdirAll(b.dir, 0o755); err != nil {
		return err
	}
	runDir, err := os.MkdirTemp(b.dir, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(runDir)
	b.runDir = runDir
	if b.ckpt, err = ensureCheckpoint(b.wl, b.dir); err != nil {
		return err
	}
	steal0, total0 := cpuTicks()
	if err := b.measure(d); err != nil {
		return err
	}
	ctx, res := b.report()
	if steal1, total1 := cpuTicks(); total1 > total0 {
		// Time the hypervisor gave this machine's CPUs to others: a shared
		// host shows up here, not in the program.
		ctx["cpu_steal_frac"] = float64(steal1-steal0) / float64(total1-total0)
	}
	for _, v := range []any{map[string]any{"context": ctx}, res} {
		line, err := json.Marshal(v)
		if err != nil {
			return err
		}
		fmt.Println(string(line))
	}
	return nil
}

// bench is one run: several episodes of the workload, each a fresh
// deployment from the same checkpoint driven for the same steps.
type bench struct {
	wl     *workload
	in     *inputs
	traced bool
	dir    string
	runDir string
	ckpt   string

	setups     []setupTimes
	tracedSets []setupTimes
	eps        []*episode
	checks     []string // failed output checks
	layers     *layerStats
	memAlloc   float64 // MB allocated per timed step, untraced episode
	memPause   float64 // GC pause ms per timed step, untraced episode
	ckptMB     float64
	ckptWrites int   // run checkpoint generations written
	ckptTries  int   // checkpointing steps
	moved      []int // experts moved, per durable episode
}

// episode is one deployment's timed steps.
type episode struct {
	traced  bool
	stepMs  []float64 // timed steps, hooks included
	losses  []float64 // every step
	bytes   int64     // timed steps, both ways, all connections
	cross   int64     // the part of bytes on connections to other nodes
	tokens  int
	timedNs int64
	// attempted and failed count timed steps; a failed episode check
	// fails all of them.
	attempted, failed int
}

func (e *episode) hash() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, l := range e.losses {
		u := math.Float64bits(l)
		for i := range buf {
			buf[i] = byte(u >> (8 * i))
		}
		h.Write(buf[:])
	}
	return h.Sum64()
}

// timedSteps counts the timed steps of the kind the run reports: traced
// ones in a traced run, untraced ones otherwise.
func (b *bench) timedSteps() int {
	n := 0
	for _, ep := range b.eps {
		if ep.traced == b.traced {
			n += len(ep.stepMs)
		}
	}
	return n
}

func (b *bench) fail(format string, args ...any) {
	b.checks = append(b.checks, fmt.Sprintf(format, args...))
}

// measure runs episodes until the time is up. A traced run starts with
// one untraced episode, the reference for the tracing overhead and the
// loss-series check, and then runs traced ones.
func (b *bench) measure(d time.Duration) error {
	start := time.Now()
	for i := 0; ; i++ {
		traced := b.traced && i > 0
		el := time.Since(start)
		if i > 0 && (el >= maxMeasure || el >= d && b.timedSteps() >= minTimed && (!b.traced || i > 1)) {
			break
		}
		if err := b.episode(i, traced); err != nil {
			return err
		}
	}
	for len(b.setups) < minSetups {
		dep, err := deploy(b.wl, b.in, b.ckpt, filepath.Join(b.runDir, "setup"), false)
		if terr := dep.teardown(); err == nil {
			err = terr
		}
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		b.setups = append(b.setups, dep.setup)
	}
	b.verify()
	return nil
}

func (b *bench) episode(i int, traced bool) error {
	wl := b.wl
	dir := filepath.Join(b.runDir, fmt.Sprintf("ep%d", i))
	dep, err := deploy(wl, b.in, b.ckpt, dir, traced)
	if err != nil {
		dep.teardown()
		return fmt.Errorf("set-up: %w", err)
	}
	b.setups = append(b.setups, dep.setup)
	if traced {
		b.tracedSets = append(b.tracedSets, dep.setup)
		if b.layers == nil {
			b.layers = newLayerStats()
		}
	}
	timed := wl.steps - wl.warmup
	ep := &episode{traced: traced, attempted: timed}
	b.eps = append(b.eps, ep)
	var m0, m1 runtime.MemStats
	var stepErr error
	for s := 0; s < wl.steps; s++ {
		if s == wl.warmup {
			runtime.ReadMemStats(&m0)
		}
		dep.ft.StartStep = s
		bytes0, cross0, frames0 := dep.tap.totalBytes(nil), dep.tap.totalBytes(dep.crossNode), dep.tap.frames.Load()
		if dep.rec != nil {
			dep.rec.spans = dep.rec.spans[:0]
		}
		t0 := now()
		stepErr = dep.ft.Run(s+1, nil)
		t1 := now()
		if stepErr != nil {
			ep.failed += wl.steps - max(s, wl.warmup)
			break
		}
		loss := dep.ft.Losses.Values[s]
		ep.losses = append(ep.losses, loss)
		if s < wl.warmup {
			dep.tap.drain()
			continue
		}
		if math.IsNaN(loss) || math.IsInf(loss, 0) {
			ep.failed++
			b.fail("step %d loss %v", s, loss)
		}
		ep.stepMs = append(ep.stepMs, float64(t1-t0)/1e6)
		ep.timedNs += t1 - t0
		ep.tokens += wl.batch * wl.seqLen
		ep.bytes += dep.tap.totalBytes(nil) - bytes0
		ep.cross += dep.tap.totalBytes(dep.crossNode) - cross0
		if dep.rec != nil {
			b.layers.endStep(dep.rec, t0, t1, dep.tap.frames.Load()-frames0)
		}
	}
	runtime.ReadMemStats(&m1)
	if !traced && stepErr == nil && b.memAlloc == 0 {
		b.memAlloc = float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6 / float64(timed)
		b.memPause = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6 / float64(timed)
	}
	if traced {
		b.layers.predicted = dep.predicted
	}
	terr := dep.teardown()
	if stepErr != nil {
		b.fail("episode %d: %v", i, stepErr)
		return nil
	}
	if terr != nil {
		b.fail("episode %d teardown: %v", i, terr)
	}
	if wl.durable {
		b.checkDurable(i, dep, ep)
	}
	return nil
}

// checkDurable checks that the newest run checkpoint loads and that its
// loss series is a bit-exact prefix of the episode's, and that the
// scripted re-placement moved experts.
func (b *bench) checkDurable(i int, dep *deployment, ep *episode) {
	moved := dep.moved + dep.mig.moved
	b.moved = append(b.moved, moved)
	if moved < 1 {
		b.failEpisode(ep, "episode %d moved no expert", i)
	}
	st := dep.handle.Ckpt.Snapshot()
	b.ckptWrites += int(st.Writes)
	b.ckptTries += dep.captures
	rs, err := dep.store.LoadLatest()
	if err != nil {
		b.failEpisode(ep, "episode %d: loading newest run checkpoint: %v", i, err)
		return
	}
	if rs.Generation != st.Generation || len(rs.Losses) > len(ep.losses) || len(rs.Losses) == 0 {
		b.failEpisode(ep, "episode %d: newest generation %d (%d losses), writer reports %d", i, rs.Generation, len(rs.Losses), st.Generation)
		return
	}
	for k, l := range rs.Losses {
		if math.Float64bits(l) != math.Float64bits(ep.losses[k]) {
			b.failEpisode(ep, "episode %d: checkpointed loss %d differs", i, k)
			return
		}
	}
	if fi, err := os.Stat(filepath.Join(dep.store.Dir, checkpoint.RunGenFile(rs.Generation))); err == nil {
		b.ckptMB = float64(fi.Size()) / 1e6
	}
}

// failEpisode records a failed check that invalidates a whole episode:
// all its timed steps count as failed.
func (b *bench) failEpisode(ep *episode, format string, args ...any) {
	b.fail(format, args...)
	ep.failed = ep.attempted
}

// verify checks that every episode, traced or not, trained the same loss
// series, and that the traced spans nest inside the steps.
func (b *bench) verify() {
	var ref *episode
	for i, ep := range b.eps {
		if len(ep.losses) != b.wl.steps {
			continue // already failed
		}
		if ref == nil {
			ref = ep
			continue
		}
		if ep.hash() != ref.hash() {
			b.failEpisode(ep, "episode %d loss series differs from episode 0", i)
		}
		if ep.bytes != ref.bytes || ep.cross != ref.cross {
			b.failEpisode(ep, "episode %d wire bytes %d/%d differ from %d/%d", i, ep.bytes, ep.cross, ref.bytes, ref.cross)
		}
	}
	if l := b.layers; l != nil {
		if l.incomplete > 0 {
			b.fail("%d exchange requests lack a stamp", l.incomplete)
		}
		if l.wallNs > 0 && l.sumErrNs/l.wallNs > sumTolerance {
			b.fail("traced spans overlap: sum error %.4f of step time", l.sumErrNs/l.wallNs)
		}
	}
}

// sumTolerance bounds how far the traced parts of a step may add up past
// its wall time (overlapping spans) before the trace counts as wrong.
const sumTolerance = 0.01

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (b *bench) report() (map[string]any, result) {
	var steps, tracedSteps []float64
	var tokens int
	var timedNs, bytes, cross int64
	var nSteps, attempted, failed int
	var ref *episode
	for _, ep := range b.eps {
		attempted += ep.attempted
		failed += ep.failed
		if ep.traced {
			tracedSteps = append(tracedSteps, ep.stepMs...)
			continue
		}
		if ref == nil && len(ep.losses) == b.wl.steps {
			ref = ep
		}
		steps = append(steps, ep.stepMs...)
		tokens += ep.tokens
		timedNs += ep.timedNs
		bytes += ep.bytes
		cross += ep.cross
		nSteps += len(ep.stepMs)
	}
	res := result{Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	res.Correct = len(b.checks) == 0 && failed == 0 && nSteps > 0
	for _, c := range b.checks {
		fmt.Fprintf(os.Stderr, "stepbench: check failed: %s\n", c)
	}
	set := func(name, unit string, v float64) { res.Metrics[name] = metric{Value: v, Unit: unit} }
	if !b.traced {
		var loss float64
		if ref != nil {
			for _, l := range ref.losses[len(ref.losses)-10:] {
				loss += l / 10
			}
		}
		per := float64(max(nSteps, 1))
		set("step_ms_p50", "ms", quantile(steps, 0.5))
		set("step_ms_p90", "ms", quantile(steps, 0.9))
		set("tokens_per_s", "tokens/s", float64(tokens)/(float64(max(timedNs, 1))/1e9))
		set("setup_s", "s", median(pluck(b.setups, func(s setupTimes) float64 { return s.total })))
		set("wire_mb_per_step", "MB", float64(bytes)/1e6/per)
		set("cross_node_mb_per_step", "MB", float64(cross)/1e6/per)
		set("loss_final", "nats", loss)
		set("steps_ok_frac", "ratio", 1-float64(failed)/float64(max(attempted, 1)))
		set("peak_rss_mb", "MB", peakRSSMB())
	} else if l := b.layers; l != nil {
		for k, v := range l.metrics() {
			set(k, v.Unit, v.Value)
		}
		ts := b.tracedSets
		set("checkpoint.load_ms", "ms", 1e3*median(pluck(ts, func(s setupTimes) float64 { return s.load })))
		set("trainer.profile_ms", "ms", 1e3*median(pluck(ts, func(s setupTimes) float64 { return s.profile })))
		set("placement.solve_ms", "ms", 1e3*median(pluck(ts, func(s setupTimes) float64 { return s.solve })))
		set("broker.distribute_ms", "ms", 1e3*median(pluck(ts, func(s setupTimes) float64 { return s.distribute })))
		moved := 0.0
		for _, n := range b.moved {
			moved += float64(n) / float64(len(b.moved))
		}
		set("broker.experts_moved", "count", moved)
		set("checkpoint.mb", "MB", b.ckptMB)
		set("checkpoint.written_frac", "ratio", float64(b.ckptWrites)/float64(max(b.ckptTries, 1)))
		set("runtime.alloc_mb_per_step", "MB", b.memAlloc)
		set("runtime.gc_pause_ms_per_step", "ms", b.memPause)
		if len(steps) > 0 && len(tracedSteps) > 0 {
			set("trace.overhead_frac", "ratio", quantile(tracedSteps, 0.5)/quantile(steps, 0.5)-1)
		}
	} else {
		res.Correct = false
	}
	wl := b.wl
	transportName := "chan"
	if wl.tcp {
		transportName = "tcp-loopback"
	}
	ctx := map[string]any{
		"workload": wl.name, "seed": b.in.seed, "trace": b.traced,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		"geometry": map[string]int{
			"d": wl.cfg.D, "hidden": wl.cfg.Hidden, "layers": wl.cfg.Layers, "experts": wl.cfg.Experts,
			"topk": wl.cfg.TopK, "batch": wl.batch, "seq_len": wl.seqLen, "workers": workers, "nodes": workers / devicesPerNode,
		},
		"encoding": wl.enc.String(), "transport": transportName, "obs": wl.obs,
		"episodes": len(b.eps), "steps_per_episode": wl.steps, "warmup_steps": wl.warmup,
		"timed_steps": nSteps, "traced_steps": len(tracedSteps),
		"percentile_samples": map[string]int{"step_ms_p50": len(steps), "step_ms_p90": len(steps), "setup_s": len(b.setups)},
		"loss_hash":          fmt.Sprintf("%016x", hashOf(ref)),
		"episode_p50_ms":     episodeP50s(b.eps),
		"splice_step":        b.in.spliceAt, "replace_step": b.in.movingAt,
		"failed_checks": strings.Join(b.checks, "; "),
	}
	return ctx, res
}

func episodeP50s(eps []*episode) []float64 {
	out := make([]float64, len(eps))
	for i, ep := range eps {
		out[i] = quantile(ep.stepMs, 0.5)
	}
	return out
}

func hashOf(e *episode) uint64 {
	if e == nil {
		return 0
	}
	return e.hash()
}

func pluck(s []setupTimes, f func(setupTimes) float64) []float64 {
	out := make([]float64, len(s))
	for i, v := range s {
		out[i] = f(v)
	}
	return out
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile interpolates linearly between the closest ranks.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// cpuTicks reads the steal and total jiffies of all CPUs from /proc/stat.
func cpuTicks() (steal, total int64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	for i := 1; i < len(f); i++ {
		var v int64
		if _, err := fmt.Sscan(f[i], &v); err != nil {
			return 0, 0
		}
		if i <= 8 { // user .. steal; guest time is already inside user
			total += v
		}
		if i == 8 {
			steal = v
		}
	}
	return steal, total
}

// peakRSSMB reads VmHWM, the process's peak resident memory.
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" {
			var kb float64
			if _, err := fmt.Sscan(f[1], &kb); err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}
