package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"

	"repro/internal/analyze"
	"repro/internal/analyze/cost"
	"repro/internal/ast"
	"repro/internal/blame"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/irgen"
	"repro/internal/parser"
	"repro/internal/postmortem"
	"repro/internal/sampler"
	"repro/internal/sem"
	"repro/internal/serve"
	"repro/internal/source"
	"repro/internal/views"
	"repro/internal/vm"
)

// replay runs a normalized request through the pipeline one layer at a
// time, in the order serve.Execute calls them, and records a span under
// parent around each layer call. Its outcome must equal Execute's byte
// for byte; the workloads check that on every traced request.
//
// It covers the request shapes the workloads send: views data, code,
// comm and hybrid, and static with lint, with an auto-scaled threshold.
// Two things Execute does are not reachable from outside package serve
// and are left out: the compile and analysis memos (every request is
// salted, so they would miss anyway) and the streaming monitor the
// server wraps around the sampler, which only emits progress events.
func replay(req *serve.Request, ctl *serve.RunControl, rec *Recorder, rid, parent int) (*serve.Outcome, error) {
	if req.FaultSpec != "" || req.PerLocale || req.Threshold != 0 ||
		(req.Lint && req.View != "static") || !replayViews[req.View] {
		return nil, fmt.Errorf("replay: unsupported request %s", req.Summary())
	}
	lim := req.Limit
	if lim < 0 {
		lim = 0
	}
	span := func(name string, f func() (map[string]int64, error)) error {
		id := rec.Start(rid, parent, name)
		counts, err := f()
		rec.End(id, counts)
		return err
	}

	fset := source.NewFileSet()
	var (
		astProg *ast.Program
		info    *sem.Info
		prog    *ir.Program
	)
	if err := span("compile.parse", func() (c map[string]int64, err error) {
		astProg, err = parser.ParseFile(fset, req.Name, req.Source)
		return nil, err
	}); err != nil {
		return nil, err
	}
	if err := span("compile.sem", func() (c map[string]int64, err error) {
		info, err = sem.Check(fset, astProg)
		return nil, err
	}); err != nil {
		return nil, err
	}
	if err := span("compile.irgen", func() (map[string]int64, error) {
		var err error
		if prog, err = irgen.Generate(info, astProg); err != nil {
			return nil, err
		}
		var n int64
		for _, f := range prog.Funcs {
			for _, b := range f.Blocks {
				n += int64(len(b.Instrs))
			}
		}
		return map[string]int64{"ir_instrs": n}, nil
	}); err != nil {
		return nil, err
	}

	var progOut bytes.Buffer
	cfg := blame.DefaultConfig()
	cfg.VM.NumCores = req.Cores
	cfg.VM.NumLocales = req.Locales
	cfg.VM.Stdout = &progOut
	cfg.VM.MaxCycles = 10_000_000_000
	cfg.VM.Configs = req.Configs
	cfg.Skid = req.Skid
	cfg.Core = core.Options{
		ImplicitTransfer: !req.NoImplicit,
		Interprocedural:  !req.NoInterproc,
		LineGranularity:  req.Lines,
		TrackPaths:       true,
	}
	cfg.VM.NoOwnerComputes = req.NoOwnerComputes
	if req.CommAggregate {
		cfg.VM.CommAggregate = true
		cfg.VM.CommCacheCap = req.CommCache
		cfg.VM.CommInspector = req.CommInspector
	}
	if req.CommAggregate || req.Locales > 1 {
		span("analyze.commplan", func() (map[string]int64, error) {
			cfg.VM.CommPlan = analyze.CommPlan(prog)
			return nil, nil
		})
	}
	if ctl != nil {
		cfg.VM.Cancel = ctl.Cancel
	}

	if req.View == "static" {
		var pred *cost.Prediction
		span("cost.predict", func() (map[string]int64, error) {
			opts := cost.DefaultOptions()
			opts.VM = cfg.VM
			opts.Core = cfg.Core
			pred = cost.Predict(prog, opts)
			return nil, nil
		})
		var text string
		span("views.render", func() (map[string]int64, error) {
			text = views.Predicted(pred, lim)
			return nil, nil
		})
		if req.Lint {
			span("analyze.lint", func() (map[string]int64, error) {
				text += "\n" + analyze.Run(prog).Text()
				return nil, nil
			})
		}
		return &serve.Outcome{Text: text}, nil
	}

	// Calibration run, then a threshold targeting ~4000 samples.
	if err := span("vm.calib", func() (map[string]int64, error) {
		st, err := vm.New(prog, cfg.VM).Run()
		if err != nil {
			return nil, err
		}
		progOut.Reset()
		th := st.TotalCycles / 4001
		if th < 101 {
			th = 101
		}
		cfg.Threshold = th | 1
		return map[string]int64{"calib_instrs": int64(st.Instructions)}, nil
	}); err != nil {
		return nil, err
	}
	cfg.SampleBuffer = req.SampleBuffer

	// blame.Profile, step by step.
	var an *core.Analysis
	span("core.analyze", func() (map[string]int64, error) {
		an = core.Analyze(prog, cfg.Core)
		return nil, nil
	})
	var (
		smp   *sampler.Sampler
		stats vm.Stats
	)
	if err := span("vm.profiled", func() (map[string]int64, error) {
		var opts []sampler.Option
		if cfg.Skid > 0 {
			opts = append(opts, sampler.WithSkid(cfg.Skid))
		}
		if cfg.SampleBuffer > 0 {
			opts = append(opts, sampler.WithRingBuffer(cfg.SampleBuffer))
		}
		smp = sampler.New(prog, cfg.Threshold, opts...)
		vmCfg := cfg.VM
		vmCfg.Listener = smp
		if vmCfg.CommAggregate && vmCfg.CommPlan == nil {
			vmCfg.CommPlan = analyze.CommPlan(prog)
		}
		var err error
		stats, err = vm.New(prog, vmCfg).Run()
		return map[string]int64{"instrs": int64(stats.Instructions), "messages": int64(stats.CommMessages)}, err
	}); err != nil {
		return nil, err
	}
	var prof *postmortem.Profile
	span("postmortem.process", func() (map[string]int64, error) {
		prof = postmortem.New(prog, an, smp.Spawns).Process(smp.Samples, cfg.Threshold, stats)
		prof.Dropped += smp.Dropped
		return map[string]int64{"samples": int64(prof.TotalSamples)}, nil
	})

	var text strings.Builder
	span("views.render", func() (map[string]int64, error) {
		switch req.View {
		case "data":
			text.WriteString(views.DataCentric(prof, lim))
		case "code":
			text.WriteString(views.CodeCentric(prof, lim))
		case "hybrid":
			text.WriteString(views.Hybrid(prof, lim))
		case "comm":
			r := &blame.Result{Profile: prof, Analysis: an, Sampler: smp, Stats: stats}
			text.WriteString(views.CommCentric(r.CommBlame(), lim))
		}
		return nil, nil
	})
	var profJSON bytes.Buffer
	if err := span("postmortem.json", func() (map[string]int64, error) {
		return nil, prof.WriteJSON(&profJSON)
	}); err != nil {
		return nil, err
	}
	return &serve.Outcome{
		Text:        text.String(),
		ProfileJSON: profJSON.Bytes(),
		Output:      progOut.String(),
		Stats:       stats,
		Threshold:   cfg.Threshold,
		Samples:     prof.TotalSamples,
	}, nil
}

var replayViews = map[string]bool{"data": true, "code": true, "comm": true, "hybrid": true, "static": true}

// outcomeDigest digests every byte of an outcome the workloads compare
// between serve.Execute and the replay: text, program output, profile
// JSON, threshold and sample count.
func outcomeDigest(o *serve.Outcome) string {
	h := sha256.New()
	for _, part := range [][]byte{[]byte(o.Text), []byte(o.Output), o.ProfileJSON,
		[]byte(fmt.Sprintf("%d %d", o.Threshold, o.Samples))} {
		fmt.Fprintf(h, "%d:", len(part))
		h.Write(part)
	}
	return hex.EncodeToString(h.Sum(nil))
}
