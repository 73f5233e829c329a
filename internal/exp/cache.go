package exp

import (
	"sort"
	"strings"

	"repro/internal/analyze"
	"repro/internal/benchprog"
	"repro/internal/blame"
	"repro/internal/comm"
	"repro/internal/compile"
	"repro/internal/ir"
	"repro/internal/memo"
)

// The table functions re-derive the same deterministic quantities many
// times: profileProgram(LULESH original) alone backs Fig4, Table6,
// Table8's first column, the baseline comparison and the overhead table.
// Every VM run here is bit-reproducible (fixed scheduler, fixed cost
// model, no host time), so run results are pure functions of
// (program, config) and safe to share — including across the parallel
// suite driver's goroutines. Each quantity is a memo.Shared stage.

// cfgKey canonicalizes a config-const override map for cache keys.
func cfgKey(cfgs map[string]string) string {
	if len(cfgs) == 0 {
		return ""
	}
	keys := make([]string, 0, len(cfgs))
	for k := range cfgs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(cfgs[k])
		b.WriteByte(';')
	}
	return b.String()
}

type timeKey struct {
	name string
	fast bool
	cfgs string
}

// runShape captures the execution-shape knobs that change a profile
// beyond (program, config consts): locale count, comm runtime mode and
// fault injection. It is part of profKey so a shaped run can never
// alias the default-shape cache entry — the experiment-level analogue
// of the full-Options keys in compile.SourceCached / core.AnalyzeCached
// (and of serve.Request.Key, which hashes the same dimensions).
type runShape struct {
	locales   int
	commAgg   bool
	commInsp  bool
	commCache int
	noOwner   bool
	faultSpec string
	faultSeed uint64
}

// defaultShape is the single-locale, comm-off, fault-free shape every
// table experiment uses.
func defaultShape() runShape { return runShape{locales: 1} }

type profKey struct {
	name  string
	cfgs  string
	shape runShape
}

// Size estimates for the experiment stages. A profile keeps its raw
// samples and their attributed instances: 215-350 bytes per sample
// across the embedded benchmarks.
func profileSize(r *blame.Result) int64 {
	return 300*int64(len(r.Sampler.Samples)) + 64*int64(len(r.Sampler.Comms))
}

func reportSize(r *analyze.Report) int64 { return 1024 * int64(1+len(r.Diags)) }
func planSize(p *comm.Plan) int64        { return 1024 + 128*int64(len(p.Sites)) }
func secondsSize(float64) int64          { return 64 }
func stringSize(s string) int64          { return 64 + int64(len(s)) }

// analysisReport memoizes the default diagnostics report per program
// (reports are immutable once built).
func analysisReport(prog *ir.Program) *analyze.Report {
	rep, _ := memo.Do(memo.Shared, "exp.report", prog, func() (*analyze.Report, error) {
		return analyze.Run(prog), nil
	}, reportSize)
	return rep
}

// commPlanFor memoizes the static comm-pattern plan per program (the VM
// and the aggregation runtime only read it).
func commPlanFor(prog *ir.Program) *comm.Plan {
	plan, _ := memo.Do(memo.Shared, "exp.commplan", prog, func() (*comm.Plan, error) {
		return analyze.CommPlan(prog), nil
	}, planSize)
	return plan
}

// timedSeconds memoizes timeProgram results: unmonitored runs are
// deterministic, so one (program, fast, configs) run serves Table3,
// Table5, Table7 and Table9 alike.
func timedSeconds(p benchprog.Program, fast bool, cfgs map[string]string) (float64, error) {
	return memo.Do(memo.Shared, "exp.time", timeKey{p.Name, fast, cfgKey(cfgs)}, func() (float64, error) {
		res, err := p.Compile(compile.Options{Fast: fast})
		if err != nil {
			return 0, err
		}
		return timeRun(res, cfgs)
	}, secondsSize)
}

// profiled memoizes profileProgram results. The *blame.Result (profile,
// analysis, sampler) is read-only for every consumer, so the LULESH
// profile runs once and feeds Fig4, Table6, Table8, the baseline and the
// overhead tables.
func profiled(p benchprog.Program, cfgs map[string]string) (*blame.Result, error) {
	return profiledShaped(p, cfgs, defaultShape())
}

// profiledShaped is profiled with an explicit run shape; distinct shapes
// get distinct cache entries.
func profiledShaped(p benchprog.Program, cfgs map[string]string, shape runShape) (*blame.Result, error) {
	return memo.Do(memo.Shared, "exp.profile", profKey{p.Name, cfgKey(cfgs), shape}, func() (*blame.Result, error) {
		return profileUncached(p, cfgs, shape)
	}, profileSize)
}
