// Command capsnet-infer demonstrates the functional CapsNet library:
// it trains a small capsule network on a seeded synthetic dataset and
// compares classification accuracy under exact host numerics and the
// PIM-CapsNet processing-element approximations, with and without the
// accuracy-recovery multiply (the mechanism behind the paper's
// Table 5).
//
// Usage:
//
//	capsnet-infer [-classes 5] [-iters 3] [-epochs 25] [-samples 30]
//	              [-trace-out eval.json]
//
// With -trace-out, the exact-math evaluation pass is stage-timed (conv,
// PrimaryCaps, prediction vectors, each routing iteration, ...) and the
// timeline written as Chrome trace-event JSON — load it in Perfetto to
// see the inference Gantt chart the paper's Figure 3 breakdown
// corresponds to.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"pimcapsnet/internal/capsnet"
	"pimcapsnet/internal/dataset"
	"pimcapsnet/internal/obs"
	"pimcapsnet/internal/tensor"
)

func main() {
	classes := flag.Int("classes", 5, "number of synthetic classes")
	iters := flag.Int("iters", 3, "dynamic routing iterations")
	epochs := flag.Int("epochs", 25, "training epochs")
	perClass := flag.Int("samples", 30, "training samples per class")
	savePath := flag.String("save", "", "write the trained network checkpoint here")
	loadPath := flag.String("load", "", "load a checkpoint instead of training")
	traceOut := flag.String("trace-out", "", "write a stage-timed Chrome trace of the exact-math evaluation here")
	flag.Parse()

	spec := dataset.Tiny(*classes)
	spec.Noise = 0.05
	gen := dataset.NewGenerator(spec)
	train := gen.Generate(*classes * *perClass)
	test := gen.Generate(*classes * 10)

	cfg := capsnet.TinyConfig(*classes)
	cfg.RoutingIterations = *iters
	var net *capsnet.Network
	var err error
	if *loadPath != "" {
		net, err = capsnet.LoadFile(*loadPath)
		if err != nil {
			panic(err)
		}
		cfg = net.Config
		fmt.Printf("loaded checkpoint %s\n", *loadPath)
	} else {
		net, err = capsnet.New(cfg)
		if err != nil {
			panic(err)
		}
	}
	defer net.Close()
	fmt.Printf("CapsNet: %dx%d input → %d conv ch → %d primary caps (%dD) → %d class caps (%dD), %d routing iterations\n",
		cfg.InputH, cfg.InputW, cfg.ConvChannels, net.NumPrimaryCaps(), cfg.PrimaryDim,
		cfg.Classes, cfg.DigitDim, cfg.RoutingIterations)

	tr := capsnet.NewTrainer(net, 1.0)
	imgLen := spec.Channels * spec.H * spec.W
	n := train.Images.Dim(0)
	batch := 4 * *classes
	if batch > n {
		batch = n
	}
	if *loadPath != "" {
		*epochs = 0 // checkpoint already trained
	}
	for ep := 0; ep < *epochs; ep++ {
		var loss float32
		steps := 0
		for s := 0; s+batch <= n; s += batch {
			img := tensor.FromSlice(train.Images.Data()[s*imgLen:(s+batch)*imgLen],
				batch, spec.Channels, spec.H, spec.W)
			l, _ := tr.TrainBatch(img, train.Labels[s:s+batch])
			loss += l
			steps++
		}
		if ep%5 == 0 || ep == *epochs-1 {
			fmt.Printf("epoch %2d  margin loss %.4f\n", ep, loss/float32(steps))
		}
	}

	fmt.Println()
	// With -trace-out, stage-time the exact-math evaluation: all
	// forward-pass stages land on one timeline written as Chrome trace
	// JSON afterwards.
	var evalTrace *obs.Trace
	if *traceOut != "" {
		evalTrace = &obs.Trace{ID: "eval-exact", Start: time.Now()}
		rec := obs.NewStageRecorder(nil, nil)
		rec.SetCurrent(evalTrace)
		net.Stages = rec
	}
	fmt.Printf("test accuracy, exact FP32 routing:        %.2f%%\n",
		100*capsnet.Evaluate(net, test.Images, test.Labels, capsnet.ExactMath{}))
	if evalTrace != nil {
		net.Stages = nil // approx-math passes below stay untimed
		if err := writeTrace(*traceOut, evalTrace); err != nil {
			fmt.Fprintf(os.Stderr, "writing trace: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote evaluation stage trace to %s (%d spans)\n", *traceOut, len(evalTrace.Spans()))
	}
	fmt.Printf("test accuracy, PE approx (no recovery):   %.2f%%\n",
		100*capsnet.Evaluate(net, test.Images, test.Labels, capsnet.NewPEMathNoRecovery()))
	fmt.Printf("test accuracy, PE approx (with recovery): %.2f%%\n",
		100*capsnet.Evaluate(net, test.Images, test.Labels, capsnet.NewPEMath()))

	if *savePath != "" {
		// SaveFile is crash-safe: temp file + fsync + rename, so an
		// interrupted save never leaves a torn checkpoint at the path.
		if err := net.SaveFile(*savePath); err != nil {
			panic(err)
		}
		fmt.Printf("saved checkpoint to %s\n", *savePath)
	}
}

// writeTrace exports one stage timeline as Chrome trace-event JSON.
func writeTrace(path string, t *obs.Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteChromeTrace(f, []*obs.Trace{t}, t.Start); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
