package main

import (
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"time"

	"repro/internal/broker"
	"repro/internal/checkpoint"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/metrics"
	"repro/internal/moe"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/replace"
	"repro/internal/trainer"
	"repro/internal/transport"
	"repro/internal/wire"
)

// The paper's testbed: 3 nodes × 2 devices, one worker per device, the
// master on node 0.
const (
	workers        = 6
	devicesPerNode = 2
	corpusSize     = 20000
	ckptEvery      = 5 // durable-shift run checkpoint cadence, in steps
)

// workload is one fine-tuning configuration the benchmark drives.
type workload struct {
	name          string
	cfg           moe.Config
	batch, seqLen int
	enc           wire.Encoding
	tcp           bool // loopback TCP instead of the in-process pipe
	obs           bool // an obs.Handle on master and workers
	durable       bool // supervisor, run checkpoints, controller, splice and re-placement
	timeout       time.Duration
	steps, warmup int // steps per episode; the first warmup are not timed
	profile       int // profiling batches at set-up
	pretrain      int // pre-training steps of the checkpoint
}

// narrow is velamaster's exchange configuration at TinyMistral geometry.
var narrow = workload{
	name: "narrow-tcp", cfg: moe.TinyMistralConfig(), batch: 2, seqLen: 32,
	enc: wire.EncFP16, tcp: true, obs: true, timeout: 10 * time.Second,
	steps: 43, warmup: 3, profile: 20, pretrain: 120,
}

var workloads = map[string]workload{
	"narrow-tcp": narrow,
	// core.Deploy's defaults (chan, fp64, obs off) with coalesced
	// dispatch, at the paper's h/d ratio and 128-row expert batches.
	"wide-chan": {
		name:  "wide-chan",
		cfg:   moe.Config{Vocab: data.VocabSize, D: 128, Heads: 4, Hidden: 352, Layers: 2, Experts: 6, TopK: 2},
		batch: 4, seqLen: 96, enc: wire.EncFP64,
		steps: 53, warmup: 3, profile: 6, pretrain: 60,
	},
	"durable-shift": func() workload {
		w := narrow
		w.name, w.durable, w.steps = "durable-shift", true, 40
		return w
	}(),
}

// profileSeed draws the profiling batches, velamaster's value.
const profileSeed = 41

// inputs are everything the workload seed decides: the batches the
// fine-tuning draws and where durable-shift splices the corpora. The
// pre-trained checkpoint and the profiling that drives placement are not
// among them: like the paper's downloaded weights and its one profiling
// pass they are fixed per workload. A seeded profile would let the LP pick
// another of its near-tie placements, and with it another busiest worker,
// on every seed.
type inputs struct {
	seed               int64
	corpus, after      *data.Corpus // fine-tuning corpus; spliced-in corpus (durable-shift)
	batchSeed          int64
	afterSeed          int64
	spliceAt, movingAt int // step of the corpus splice and of the scripted re-placement
}

func makeInputs(wl *workload, seed int64) *inputs {
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{
		seed:      seed,
		corpus:    data.WikiText(corpusSize),
		after:     data.Alpaca(corpusSize),
		batchSeed: rng.Int63(),
		afterSeed: rng.Int63(),
	}
	in.spliceAt = wl.warmup + 5 + rng.Intn(10)
	in.movingAt = in.spliceAt + 5
	return in
}

func checkpointPath(wl *workload, dir string) string {
	c := wl.cfg
	return filepath.Join(dir, fmt.Sprintf("ckpt-d%d-h%d-l%d-e%d-p%d.vck", c.D, c.Hidden, c.Layers, c.Experts, wl.pretrain))
}

// ensureCheckpoint returns the workload's pre-trained checkpoint under
// dir, building it first if needed, like velamaster -ckpt. It is built
// once per geometry, in a child process so that pre-training's memory
// stays out of this run's peak_rss_mb.
func ensureCheckpoint(wl *workload, dir string) (string, error) {
	path := checkpointPath(wl, dir)
	if _, err := os.Stat(path); err == nil {
		return path, nil
	}
	self, err := os.Executable()
	if err != nil {
		return "", err
	}
	cmd := exec.Command(self, "--workload", wl.name, "--pretrain-only")
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("pre-training: %w", err)
	}
	return path, nil
}

// pretrain builds the checkpoint and saves it to path.
func pretrain(wl *workload, path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	pcfg := trainer.DefaultPretrain()
	pcfg.Steps = wl.pretrain
	model, grid, err := trainer.BuildPretrained(wl.cfg, corpusSize, pcfg)
	if err != nil {
		return fmt.Errorf("pre-training: %w", err)
	}
	return checkpoint.SaveFile(path, model, grid)
}

// setupTimes splits one set-up, in seconds.
type setupTimes struct {
	total, load, profile, solve, distribute float64
}

// deployment is one master with its six workers, assembled the way
// examples/distributed and velamaster do it.
type deployment struct {
	wl        *workload
	in        *inputs
	rec       *recorder // nil when untraced
	tap       *tap
	topo      cluster.Topology
	crossNode []bool
	model     *moe.Model
	exec      *broker.Executor
	handle    *obs.Handle
	predicted float64 // placement.Evaluate comm seconds per step
	ft        *trainer.Finetuner
	sup       *broker.Supervisor
	writer    *checkpoint.AsyncWriter
	store     *checkpoint.RunStore
	mig       *migTap
	moved     int // experts the scripted re-placement moved
	captures  int // checkpointing steps
	setup     setupTimes

	conns   []transport.Conn
	serving int
	served  chan error
}

func secs(a, b int64) float64 { return float64(b-a) / 1e9 }

// deploy loads the checkpoint and brings a deployment to its first step.
// The returned deployment must be torn down even when err is non-nil.
func deploy(wl *workload, in *inputs, ckpt, runDir string, traced bool) (*deployment, error) {
	d := &deployment{wl: wl, in: in, tap: newTap(workers, traced), served: make(chan error, workers)}
	if traced {
		d.rec = &recorder{tap: d.tap}
	}
	cfg := wl.cfg
	t0 := now()
	model, grid, err := checkpoint.LoadFile(ckpt)
	if err != nil {
		return d, fmt.Errorf("loading checkpoint: %w", err)
	}
	tLoad := now()
	d.model = model
	model.BindLocalExperts(grid)
	lora := trainer.PaperLoRA()
	trainer.PrepareForFinetune(model, grid, lora)
	tProf := now()
	stats, err := trainer.Profile(model, in.corpus, wl.profile, wl.batch, wl.seqLen, profileSeed)
	if err != nil {
		return d, err
	}
	tSolve := now()
	d.topo = cluster.Uniform(workers, devicesPerNode,
		(cfg.Layers*cfg.Experts+workers-1)/workers+2, 18.3*cluster.GB, 1.17*cluster.GB)
	prob := d.problem(stats)
	assign, err := placement.LocalityLP{}.Place(prob)
	if err != nil {
		return d, fmt.Errorf("placing experts: %w", err)
	}
	tPlaced := now()
	m, err := placement.Evaluate(prob, assign)
	if err != nil {
		return d, err
	}
	d.predicted = m.CommTime
	if err := d.connect(); err != nil {
		return d, err
	}
	tDist := now()

	exec := broker.NewExecutor(d.conns, assign)
	d.exec = exec
	exec.WireEncoding = wl.enc
	exec.Coalesce = true
	exec.BytesPerValue = float64(core.DefaultBitDepth) / 8
	exec.RequestTimeout = wl.timeout
	d.crossNode = make([]bool, workers)
	for n := range d.crossNode {
		d.crossNode[n] = d.topo.CrossNode(n)
	}
	exec.Traffic = metrics.NewTraffic(workers, d.crossNode)
	if wl.obs {
		exec.Recovery = &metrics.Recovery{}
		d.handle = obs.NewHandle(obs.Config{Workers: workers, Layers: cfg.Layers, Experts: cfg.Experts})
		d.handle.Drift.SetBaseline(stats.Prob())
		d.handle.Drift.SetPredictedComm(m.CommTime)
		exec.Obs = d.handle
		model.SetObs(d.handle)
	}
	spec := broker.ExpertSpec{D: cfg.D, Hidden: cfg.Hidden, LoRARank: lora.Rank, LoRAAlpha: lora.Alpha}
	if err := exec.Distribute(grid, spec); err != nil {
		return d, fmt.Errorf("distributing experts: %w", err)
	}
	tReady := now()

	backbone := nn.CollectTrainable(model.Params())
	adam := nn.NewAdamW(backbone, nn.PaperAdamWConfig())
	first := data.NewBatcher(in.corpus, wl.batch, wl.seqLen, in.batchSeed)
	var batches trainer.BatchSource = first
	var sw *data.SwitchBatcher
	if wl.durable {
		sw = data.NewSwitchBatcher(first, data.NewBatcher(in.after, wl.batch, wl.seqLen, in.afterSeed), in.spliceAt)
		batches = sw
	}
	ft := &trainer.Finetuner{
		Model: model, Backbone: backbone, Opt: adam, Batcher: batches,
		ExpertZero: exec.ZeroGrads, ExpertStep: exec.Step, Obs: d.handle,
	}
	d.ft = ft
	model.SetExecutor(exec)
	if r := d.rec; r != nil {
		model.SetExecutor(&execTap{Executor: exec, rec: r})
		ft.Opt = &optTap{Optimizer: adam, rec: r}
		ft.ExpertZero = func() error { return r.do("control", exec.ZeroGrads) }
		ft.ExpertStep = func() error { return r.do("control", exec.Step) }
	}
	if wl.durable {
		if err := d.arm(prob, spec, adam, sw, runDir); err != nil {
			return d, err
		}
	}
	// Wiring the step-boundary hooks is part of being ready to step.
	d.setup = setupTimes{
		total: secs(t0, now()), load: secs(t0, tLoad),
		profile: secs(tProf, tSolve), solve: secs(tSolve, tPlaced),
		distribute: secs(tDist, tReady),
	}
	return d, nil
}

func (d *deployment) problem(stats *moe.AccessStats) *placement.Problem {
	routings := float64(d.wl.batch * d.wl.seqLen * d.wl.cfg.TopK)
	return core.PlacementProblem(d.topo, stats, routings, d.wl.cfg.D, core.DefaultBitDepth, d.wl.enc)
}

// connect starts the six workers and connects the master to them.
func (d *deployment) connect() error {
	wcfg := func(n int) broker.WorkerConfig {
		c := broker.DefaultWorkerConfig()
		if d.wl.obs {
			// A velaworker owns its own handle.
			c.Obs = obs.NewHandle(obs.Config{Workers: n + 1})
		}
		return c
	}
	workerEnd := func(c transport.Conn, n int) transport.Conn {
		if d.rec == nil {
			return c
		}
		return &tapConn{Conn: c, t: d.tap, worker: n}
	}
	for n := 0; n < workers; n++ {
		w := broker.NewWorker(n, wcfg(n))
		var master transport.Conn
		if d.wl.tcp {
			l, err := transport.Listen("127.0.0.1:0")
			if err != nil {
				return err
			}
			d.serving++
			go func(n int) {
				c, err := l.Accept()
				l.Close()
				if err != nil {
					d.served <- err
					return
				}
				err = w.Serve(workerEnd(c, n))
				c.Close()
				d.served <- err
			}(n)
			if master, err = transport.Dial(l.Addr()); err != nil {
				l.Close()
				return err
			}
		} else {
			var wEnd transport.Conn
			master, wEnd = transport.Pipe()
			d.serving++
			go func(n int) { d.served <- w.Serve(workerEnd(wEnd, n)) }(n)
		}
		d.conns = append(d.conns, &tapConn{Conn: master, t: d.tap, worker: n, master: true})
	}
	return nil
}

// arm wires velamaster's step-boundary hooks: the supervisor's
// heartbeat and per-step expert snapshot, the re-placement controller,
// periodic run checkpoints through the async writer, and the scripted
// re-placement after the corpus splice.
func (d *deployment) arm(prob *placement.Problem, spec broker.ExpertSpec, adam *nn.AdamW, sw *data.SwitchBatcher, runDir string) error {
	exec, h, r, ft := d.exec, d.handle, d.rec, d.ft
	d.sup = broker.NewSupervisor(exec, prob, broker.SupervisorConfig{HeartbeatInterval: 2 * time.Second})
	d.sup.Obs = h
	ft.Recover = d.sup.Recover
	d.mig = &migTap{Executor: exec}
	ctrl, err := replace.New(prob, h, d.mig, replace.Config{DriftThreshold: 0.1, ExpertBytes: spec.PayloadBytes()})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return err
	}
	d.store = &checkpoint.RunStore{Dir: runDir, Keep: checkpoint.DefaultRunKeep}
	d.writer = checkpoint.NewAsyncWriter(d.store, h.Ckpt)
	runCk := &core.RunCheckpointer{Every: ckptEvery, W: d.writer, Stats: h.Ckpt, Cap: &core.RunCapture{
		Backbone: ft.Backbone, Opt: adam, Exec: exec, Sup: d.sup,
		Cursor: sw.Cursor, Seek: sw.SeekTo, Drift: h.Drift, Ctrl: ctrl,
		Losses: &ft.Losses, Seeds: []int64{d.in.seed},
	}}
	ft.OnStep = func(step int) error {
		if err := r.do("snapshot", func() error { return d.sup.Checkpoint(step) }); err != nil {
			return err
		}
		before := d.mig.moved
		if err := r.do("replace", func() error { return ctrl.OnStep(step) }); err != nil {
			return err
		}
		if r != nil && d.mig.moved != before {
			r.spans[len(r.spans)-1].name = "migrate"
		}
		if step == d.in.movingAt {
			if err := d.replaceScripted(); err != nil {
				return err
			}
		}
		if (step+1)%ckptEvery != 0 {
			return runCk.OnStep(step)
		}
		d.captures++
		return r.do("capture", func() error { return runCk.OnStep(step) })
	}
	d.sup.Start()
	return nil
}

// replaceScripted re-profiles on the spliced-in corpus, re-solves the
// locality LP and migrates the experts whose worker changed.
func (d *deployment) replaceScripted() error {
	wl, r := d.wl, d.rec
	var next *placement.Assignment
	err := r.do("reprofile", func() error {
		stats, err := trainer.Profile(d.model, d.in.after, wl.profile, wl.batch, wl.seqLen, profileSeed)
		if err != nil {
			return err
		}
		next, err = placement.LocalityLP{}.Place(d.problem(stats))
		return err
	})
	if err != nil {
		return fmt.Errorf("re-placement: %w", err)
	}
	return r.do("migrate", func() error {
		n, err := d.exec.Rebalance(next)
		d.moved += n
		return err
	})
}

// teardown stops the hooks, shuts the workers down and waits for every
// goroutine the deployment started. It returns the first error.
func (d *deployment) teardown() error {
	var first error
	keep := func(err error) {
		if first == nil && err != nil {
			first = err
		}
	}
	if d.sup != nil {
		d.sup.Stop()
	}
	if d.writer != nil {
		keep(d.writer.Close())
	}
	if d.exec != nil {
		if err := d.exec.Shutdown(); err != nil {
			keep(err)
			d.exec = nil
		}
	}
	if d.exec == nil {
		// No clean shutdown: sever the connections so the workers return.
		for _, c := range d.conns {
			c.Close()
		}
	}
	for i := 0; i < d.serving; i++ {
		keep(<-d.served)
	}
	for _, c := range d.conns {
		c.Close()
	}
	return first
}
