package main

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"fedmigr/internal/agg"
	"fedmigr/internal/checkpoint"
	"fedmigr/internal/core"
	"fedmigr/internal/data"
	"fedmigr/internal/fednet"
	"fedmigr/internal/nn"
	"fedmigr/internal/sched"
	"fedmigr/internal/tensor"
)

// Layer replay: the driver calls each layer's public functions itself, at
// the workload's exact shapes, on one goroutine. Two numbers come out of every
// timing loop. The reported unit cost is the median wall time of one call,
// which is steady. The attribution — unit × per-round count, as a share of
// cpu_ms_per_round — bills the loop's mean process CPU per call instead, so
// the garbage-collector work an allocating call causes is charged to it, as
// it is inside a real round. How much collector work that is depends on idle
// Ps (idle Ps run mark workers flat out), so the replay mirrors the round:
// the simulators keep every P busy, and their replay runs on one P; net
// sessions leave Ps idle while nodes wait on each other, and their replay
// keeps all W. Neither side of a share is scaled by box speed: the replay
// follows the run it is compared with within seconds, in the same process,
// and two estimates of the box's speed would add more noise than the drift
// between them. Either way the replay is a lone busy thread: on a box whose
// vCPUs are one core's hyperthreads a round's W contending threads cost more
// CPU for the same work, which nothing here corrects, so shares there are
// understated.

const benchMinIters = 30

// Variables only so the smoke test can shorten them.
var (
	benchMinTime = 20 * time.Millisecond
	benchBudget  = 200 * time.Millisecond
)

// timeStages runs body repeatedly — at least benchMinIters iterations and
// benchMinTime, or until benchBudget is spent, but never fewer than three
// iterations — and returns the median wall seconds of each stage and the
// mean process-CPU seconds of one whole iteration. body calls lap() as each
// of its stages ends.
func timeStages(stages int, body func(lap func())) (stage []float64, cpu float64) {
	samples := make([][]float64, stages)
	begin, cpu0 := time.Now(), cpuTime()
	iters := 0
	for ; ; iters++ {
		el := time.Since(begin)
		if iters >= 3 && (el >= benchBudget || (iters >= benchMinIters && el >= benchMinTime)) {
			break
		}
		i, prev := 0, time.Now()
		body(func() {
			now := time.Now()
			samples[i] = append(samples[i], now.Sub(prev).Seconds())
			i, prev = i+1, now
		})
	}
	cpu = (cpuTime() - cpu0).Seconds() / float64(iters)
	stage = make([]float64, stages)
	for i, s := range samples {
		stage[i] = median(s)
	}
	return stage, cpu
}

// timeOp returns the median wall seconds of one call of fn.
func timeOp(fn func()) float64 {
	wall, _ := timeOpCPU(fn)
	return wall
}

// timeOpCPU returns the median wall seconds and the mean process-CPU seconds
// of one call of fn.
func timeOpCPU(fn func()) (wall, cpu float64) {
	stage, cpu := timeStages(1, func(lap func()) { fn(); lap() })
	return stage[0], cpu
}

// allocsPer returns the mean heap allocations of one call of fn.
func allocsPer(fn func()) float64 {
	const runs = 10
	fn()
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / runs
}

// replayIn is what the replay needs to know about a workload's round.
type replayIn struct {
	model, peer *nn.Sequential // trained instances the finished run no longer needs
	train, test *data.Dataset  // one host's local data; the evaluation set
	lr          float64
	// batches maps a mini-batch size to how many such batches one global
	// round trains, over all replicas and local epochs.
	batches map[int]int
	evals   int   // test-set evaluations per round
	folds   []int // slot count of each agg fold per round
	copies  int   // replica ← global parameter copies per round
	jobs    int   // training jobs per local-epoch region
	regions int   // scheduler regions per round
	workers int
	seed    int64
}

// attribution is CPU-milliseconds of one round the replay accounts for.
type attribution struct {
	train, wire, migrator, other float64
}

func (a attribution) total() float64 { return a.train + a.wire + a.migrator + a.other }

// fullBatch is the round's most-trained batch size, the one unit costs are
// reported at.
func (in *replayIn) fullBatch() int {
	best := 0
	for b, n := range in.batches {
		if n > in.batches[best] || (n == in.batches[best] && b > best) {
			best = b
		}
	}
	return best
}

// replayTraining times the local-update path at every batch size the round
// uses: batch assembly, forward, loss, backward, optimizer step.
func replayTraining(r *passResult, in *replayIn, at *attribution) {
	c, h, w := in.train.Spec()
	opt := nn.NewSGDMomentum(in.lr, 0)
	full := in.fullBatch()
	sizes := make([]int, 0, len(in.batches))
	for b := range in.batches {
		sizes = append(sizes, b)
	}
	sort.Ints(sizes)
	for _, b := range sizes {
		step := func(lap func()) {
			x := tensor.GetScratch(b, c, h, w)
			y := in.train.BatchInto(x.Data(), 0, b)
			lap()
			in.model.ZeroGrad()
			out := in.model.Forward(x, true)
			lap()
			_, grad := nn.CrossEntropy(out, y)
			lap()
			in.model.Backward(grad)
			lap()
			opt.Step(in.model)
			tensor.PutScratch(x)
			lap()
		}
		t, cpu := timeStages(5, step)
		at.train += float64(in.batches[b]) * cpu * 1e3
		if b == full {
			r.set("data.batch_into_us", "us", t[0]*1e6)
			r.set("nn.fwd_ms_per_batch", "ms", t[1]*1e3)
			r.set("nn.loss_ms_per_batch", "ms", t[2]*1e3)
			r.set("nn.bwd_ms_per_batch", "ms", t[3]*1e3)
			r.set("nn.sgd_step_ms_per_batch", "ms", t[4]*1e3)
			r.set("nn.allocs_per_batch", "count", allocsPer(func() { step(func() {}) }))
		}
	}
}

// kernel is one tensor-kernel family's per-round total.
type kernel struct {
	ms    float64
	flops float64
}

// replayKernels derives the tensor-kernel calls one training step makes, and
// their shapes, from the model's layer list; times each kernel alone on the
// step's real operands; and totals them per round. Real operands matter: the
// matmul kernels skip zero multiplicands, so their cost depends on how
// sparse ReLU and max-pool left the activations and gradients. The result is
// the breakdown inside nn.fwd/bwd, so it is not attributed a second time.
func replayKernels(r *passResult, in *replayIn) {
	ks := map[string]*kernel{}
	add := func(name string, n, flops float64, fn func()) {
		k := ks[name]
		if k == nil {
			k = &kernel{}
			ks[name] = k
		}
		k.ms += n * timeOp(fn) * 1e3
		k.flops += n * flops
	}
	c, h, w := in.train.Spec()
	layers := in.model.Layers
	for b, count := range in.batches {
		n := float64(count)
		// One real step, kept layer by layer: acts[i] enters layer i and
		// grads[i+1] is the gradient arriving at its output.
		x := tensor.New(b, c, h, w)
		y := in.train.BatchInto(x.Data(), 0, b)
		acts := []*tensor.Tensor{x}
		for _, l := range layers {
			acts = append(acts, l.Forward(acts[len(acts)-1], true))
		}
		grads := make([]*tensor.Tensor, len(layers)+1)
		_, grads[len(layers)] = nn.CrossEntropy(acts[len(layers)], y)
		for i := len(layers) - 1; i >= 0; i-- {
			grads[i] = layers[i].Backward(grads[i+1])
		}
		in.model.ZeroGrad()
		for i, l := range layers {
			xin, gout := acts[i], grads[i+1]
			switch l := l.(type) {
			case *nn.Conv2D:
				f, p := l.K.Dim(0), l.P
				cols := tensor.Im2Col(xin, p)
				rows, ckk := cols.Dim(0), cols.Dim(1)
				kmat := l.K.Reshape(f, ckk)
				gm := convGradMatrix(gout)
				mm := 2 * float64(rows) * float64(ckk) * float64(f)
				add("tensor.im2col_ms", n, 0, func() { tensor.PutScratch(tensor.Im2Col(xin, p)) })
				add("tensor.matmul_transb_ms", n, mm, func() { tensor.MatMulTransB(cols, kmat) })
				add("tensor.matmul_transa_ms", n, mm, func() { tensor.MatMulTransA(gm, cols) })
				add("tensor.matmul_ms", n, mm, func() { tensor.MatMul(gm, kmat) })
				dcols := tensor.MatMul(gm, kmat)
				add("tensor.col2im_ms", n, 0, func() {
					tensor.Col2Im(dcols, xin.Dim(0), xin.Dim(1), xin.Dim(2), xin.Dim(3), p)
				})
			case *nn.Dense:
				mm := 2 * float64(xin.Dim(0)) * float64(l.W.Dim(1)) * float64(l.W.Dim(0))
				add("tensor.matmul_transb_ms", n, mm, func() { tensor.MatMulTransB(xin, l.W) })
				add("tensor.matmul_transa_ms", n, mm, func() { tensor.MatMulTransA(gout, xin) })
				add("tensor.matmul_ms", n, mm, func() { tensor.MatMul(gout, l.W) })
			case *nn.MaxPool2D:
				p := l.P
				_, arg := tensor.MaxPool2D(xin, p)
				add("tensor.maxpool_ms", n, 0, func() {
					_, a := tensor.MaxPool2D(xin, p)
					sched.PutIntBuf(a)
				})
				add("tensor.maxpool_bwd_ms", n, 0, func() { tensor.MaxPool2DBackward(gout, arg, xin.Shape()) })
				sched.PutIntBuf(arg)
			}
		}
	}
	mmMS, flops := 0.0, 0.0
	for name, k := range ks {
		r.set(name, "ms", k.ms)
		if k.flops > 0 {
			mmMS += k.ms
			flops += k.flops
		}
	}
	if mmMS > 0 {
		r.set("tensor.matmul_gflops", "GFLOP/s", flops/(mmMS*1e-3)/1e9)
	}
}

// convGradMatrix rearranges an (N,F,OH,OW) output gradient into the
// (N·OH·OW, F) matrix Conv2D.Backward multiplies with.
func convGradMatrix(g *tensor.Tensor) *tensor.Tensor {
	n, f, pos := g.Dim(0), g.Dim(1), g.Dim(2)*g.Dim(3)
	gm := tensor.New(n*pos, f)
	gd, md := g.Data(), gm.Data()
	for ni := 0; ni < n; ni++ {
		for fi := 0; fi < f; fi++ {
			for p := 0; p < pos; p++ {
				md[(ni*pos+p)*f+fi] = gd[(ni*f+fi)*pos+p]
			}
		}
	}
	return gm
}

// replayModelOps times the whole-model operations around training:
// evaluation, parameter (de)serialization and copies, the streaming
// aggregation fold, TrainState hand-off and checkpoint I/O.
func replayModelOps(r *passResult, in *replayIn, history []core.RoundMetrics, at *attribution) error {
	m := in.model
	evalS, evalCPU := timeOpCPU(func() {
		const evalBatch = 256
		for lo := 0; lo < in.test.Len(); lo += evalBatch {
			hi := lo + evalBatch
			if hi > in.test.Len() {
				hi = in.test.Len()
			}
			x, y := in.test.Batch(lo, hi)
			nn.Accuracy(m.Forward(x, false), y)
		}
	})
	r.set("nn.eval_fwd_ms", "ms", evalS*1e3)
	at.other += float64(in.evals) * evalCPU * 1e3

	var blob []byte
	var err error
	r.set("nn.marshal_params_ms", "ms", timeOp(func() { blob, err = m.MarshalParams() })*1e3)
	if err != nil {
		return err
	}
	r.set("nn.unmarshal_params_ms", "ms", timeOp(func() { err = in.peer.UnmarshalParams(blob) })*1e3)
	if err != nil {
		return err
	}
	r.set("nn.param_vector_roundtrip_ms", "ms", timeOp(func() { in.peer.SetParamVector(m.ParamVector()) })*1e3)
	copyS, copyCPU := timeOpCPU(func() { in.peer.CopyParamsFrom(m) })
	r.set("nn.copy_params_ms", "ms", copyS*1e3)
	at.other += float64(in.copies) * copyCPU * 1e3

	// One fold per distinct slot count; the report carries the largest
	// (cohort-many slots at the model's dimension).
	dim := m.NumParams()
	seen := map[int]float64{}
	largest := 0
	for _, slots := range in.folds {
		if _, ok := seen[slots]; !ok {
			var peak int
			t, cpu := timeStages(2, func(lap func()) {
				acc := agg.New(slots, dim)
				for s := 0; s < slots; s++ {
					leaf := acc.Leaf()
					m.ParamVectorInto(leaf)
					if e := acc.AddLeaf(s, leaf, 1/float64(slots)); e != nil {
						err = e
					}
				}
				lap()
				tensor.PutScratch(acc.Finish(1))
				peak = acc.PeakLive()
				lap()
			})
			seen[slots] = cpu * 1e3
			if slots > largest {
				largest = slots
				r.set("agg.add_ms_per_slot", "ms", t[0]*1e3/float64(slots))
				r.set("agg.finish_ms", "ms", t[1]*1e3)
				r.set("agg.fold_round_ms", "ms", (t[0]+t[1])*1e3)
				r.set("agg.peak_live_nodes", "count", float64(peak))
			}
		}
		at.other += seen[slots]
	}
	if err != nil {
		return err
	}

	order := []int{0, 1, 2, 3}
	opt, opt2 := nn.NewSGDMomentum(in.lr, 0), nn.NewSGDMomentum(in.lr, 0)
	r.set("core.trainstate_roundtrip_ms", "ms", timeOp(func() {
		b, e := core.CaptureTrainState(0, 0, in.seed, order, 1, 0.5, m, opt).Marshal()
		if e == nil {
			var ts *core.TrainState
			if ts, e = core.UnmarshalTrainState(b); e == nil {
				e = ts.Restore(in.peer, opt2)
			}
		}
		if e != nil {
			err = e
		}
	})*1e3)
	if err != nil {
		return err
	}

	// Checkpoints go to a scratch directory inside the working directory,
	// removed before the pass returns.
	dir, err := os.MkdirTemp(".", ".fedmigr-bench-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	r.set("checkpoint.save_ms", "ms", timeOp(func() {
		if e := checkpoint.SaveRunState(dir, m, history); e != nil {
			err = e
		}
	})*1e3)
	r.set("checkpoint.load_ms", "ms", timeOp(func() {
		if _, e := checkpoint.LoadRunState(dir, in.peer); e != nil {
			err = e
		}
	})*1e3)
	if err != nil {
		return err
	}
	size := int64(0)
	for _, name := range []string{checkpoint.RunStateModel, checkpoint.RunStateMetrics} {
		fi, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		size += fi.Size()
	}
	r.set("checkpoint.bytes", "B", float64(size))
	return nil
}

// replaySched times the scheduler's fixed costs: dispatching one region of
// no-op jobs on W workers, and one arena get/put of a batch-sized buffer.
func replaySched(r *passResult, in *replayIn, at *attribution) {
	pool := sched.New(in.workers)
	defer pool.Close()
	dispatch, cpu := timeOpCPU(func() { pool.ForEach("", in.jobs, func(int) {}) })
	r.set("sched.foreach_dispatch_us", "us", dispatch*1e6)
	at.other += float64(in.regions) * cpu * 1e3
	c, h, w := in.train.Spec()
	n := in.fullBatch() * c * h * w
	r.set("sched.arena_getput_ns", "ns", timeOp(func() { sched.PutBuf(sched.GetBuf(n)) })*1e9)
}

// replayWire times the fednet frame codec on a model frame of the workload's
// size — one whole hop (marshal, write, read, unmarshal) through a
// bytes.Buffer, the same frame across a real 127.0.0.1 pair — and on a
// control frame. It returns one hop's CPU milliseconds.
func replayWire(r *passResult, in *replayIn) (hopMS float64, err error) {
	var buf bytes.Buffer
	var params []byte
	t, cpu := timeStages(4, func(lap func()) {
		p, e := in.model.MarshalParams()
		lap()
		buf.Reset()
		if e == nil {
			e = fednet.WriteMessage(&buf, &fednet.Message{Type: fednet.MsgModelTransfer, Round: 1, ModelID: 1, Params: p})
		}
		lap()
		var m *fednet.Message
		if e == nil {
			m, e = fednet.ReadMessage(bytes.NewReader(buf.Bytes()))
		}
		lap()
		if e == nil {
			e = in.peer.UnmarshalParams(m.Params)
		}
		lap()
		if e != nil {
			err = e
		}
		params = p
	})
	if err != nil {
		return 0, err
	}
	frame := &fednet.Message{Type: fednet.MsgModelTransfer, Round: 1, ModelID: 1, Params: params}
	encoded := buf.Len()
	r.set("fednet.write_msg_ms", "ms", t[1]*1e3)
	r.set("fednet.read_msg_ms", "ms", t[2]*1e3)
	r.set("fednet.frame_overhead_bytes", "B", float64(encoded-len(params)))
	r.set("fednet.allocs_per_frame", "count", allocsPer(func() {
		buf.Reset()
		_ = fednet.WriteMessage(&buf, frame)
		_, _ = fednet.ReadMessage(bytes.NewReader(buf.Bytes()))
	}))
	ctrl := &fednet.Message{Type: fednet.MsgCompletion, Round: 1, Loss: 0.75}
	r.set("fednet.ctrl_frame_us", "us", timeOp(func() {
		buf.Reset()
		if e := fednet.WriteMessage(&buf, ctrl); e != nil {
			err = e
		}
		if _, e := fednet.ReadMessage(&buf); e != nil {
			err = e
		}
	})*1e6)
	if err != nil {
		return 0, err
	}
	hop, err := loopbackHop(frame)
	if err != nil {
		return 0, err
	}
	r.set("fednet.loopback_hop_ms", "ms", hop*1e3)
	return cpu * 1e3, nil
}

// loopbackHop times write→read of one frame across a real 127.0.0.1 TCP
// pair, the writer on its own goroutine as a peer would be.
func loopbackHop(frame *fednet.Message) (float64, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	tx, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return 0, err
	}
	defer tx.Close()
	rx, err := ln.Accept()
	if err != nil {
		return 0, err
	}
	defer rx.Close()
	t := timeOp(func() {
		if err != nil {
			return
		}
		werr := make(chan error, 1)
		go func() { werr <- fednet.WriteMessage(tx, frame) }()
		if _, e := fednet.ReadMessage(rx); e != nil {
			err = e
			rx.Close() // unblocks a writer the failed read left mid-frame
		}
		if e := <-werr; e != nil && err == nil {
			err = e
		}
	})
	if err != nil {
		return 0, fmt.Errorf("loopback hop: %w", err)
	}
	return t, nil
}
