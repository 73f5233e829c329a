// Package serve is the blame-as-a-service layer: it exposes the full
// compile → analyze → run → sample → postmortem pipeline as concurrent
// profiling sessions behind an HTTP/JSON API (cmd/blamed). The package
// is organized as
//
//   - Request / Execute   the one profiling code path, shared byte-for-
//     byte with cmd/blame (the CLI is a thin shell over Execute)
//   - outcome cache       a memo.Store of finished Outcomes keyed by
//     Request.Key, bounded by Options.CacheBytes; the compile and
//     analysis stages beneath it live in memo.Shared
//   - Scheduler           a priority job queue with per-session
//     deadlines, cancellation, and request batching (identical
//     submissions coalesce into one pipeline execution)
//   - Session             the per-submission state machine with
//     streaming progress events (sampler progress, incremental blame
//     ranks)
//   - Server              the HTTP handlers, SSE/NDJSON streaming and
//     the /metrics observability surface
package serve

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
	"strings"

	"repro/internal/comm"
	"repro/internal/fault"
)

// Byte/size bounds protecting a long-running server from abusive
// requests. They are generous for every embedded benchmark.
const (
	MaxSourceBytes = 1 << 20 // 1 MiB of MiniChapel source
	MaxLocales     = 64
	MaxCores       = 512
	MaxLimit       = 10_000
)

// Request is the profiling request schema — the knobs of cmd/blame,
// JSON-addressable. Exactly one of Bench or Source selects the program.
// Priority, DeadlineMs and NoCache steer scheduling only and are
// excluded from the content-addressed cache key.
type Request struct {
	// Bench names a built-in benchmark (see Benches). Mutually exclusive
	// with Source.
	Bench string `json:"bench,omitempty"`
	// Source is inline MiniChapel source text.
	Source string `json:"source,omitempty"`
	// Name is the display name for inline source (default "prog.mchpl").
	Name string `json:"name,omitempty"`
	// Configs overrides `config const` values (./prog --name=value).
	Configs map[string]string `json:"configs,omitempty"`

	// Locales / Cores shape the simulated machine (defaults 1 / 12).
	Locales int `json:"locales,omitempty"`
	Cores   int `json:"cores,omitempty"`

	// View selects the rendering: data | code | hybrid | all | baseline |
	// comm | static | lint-json (default data). Lint mirrors the CLI's
	// -lint: it runs the static diagnostics and prints the blame-guided
	// advisor instead of View (or appends the report under View "static").
	View  string `json:"view,omitempty"`
	Lint  bool   `json:"lint,omitempty"`
	Limit int    `json:"limit,omitempty"`

	// Threshold is the PMU overflow threshold (0 = auto-scale via a
	// calibration run, like the CLI).
	Threshold uint64 `json:"threshold,omitempty"`
	// Skid injects PMU interrupt skid (instructions).
	Skid int `json:"skid,omitempty"`
	// PerLocale additionally renders per-locale profiles.
	PerLocale bool `json:"per_locale,omitempty"`
	// SampleBuffer bounds the monitor's sample ring buffer (0 =
	// unbounded).
	SampleBuffer int `json:"sample_buffer,omitempty"`

	// Analysis ablation knobs (CLI -no-implicit / -no-interproc / -lines).
	NoImplicit  bool `json:"no_implicit,omitempty"`
	NoInterproc bool `json:"no_interproc,omitempty"`
	Lines       bool `json:"lines,omitempty"`

	// Modeled communication runtime knobs.
	CommAggregate bool `json:"comm_aggregate,omitempty"`
	// CommCache is the per-locale software-cache capacity in elements:
	// 0 selects comm.DefaultCacheCap, negative disables caching. Only
	// meaningful with CommAggregate.
	CommCache int `json:"comm_cache,omitempty"`
	// CommInspector enables the inspector–executor path for irregular
	// (data-dependent subscript) sites; implies CommAggregate.
	CommInspector   bool `json:"comm_inspector,omitempty"`
	NoOwnerComputes bool `json:"no_owner_computes,omitempty"`

	// Per-session fault injection (CLI -fault-spec / -fault-seed).
	FaultSpec string `json:"fault_spec,omitempty"`
	FaultSeed uint64 `json:"fault_seed,omitempty"`

	// Scheduling-only fields (not cache-keyed).
	Priority   int   `json:"priority,omitempty"`
	DeadlineMs int64 `json:"deadline_ms,omitempty"`
	NoCache    bool  `json:"no_cache,omitempty"`
}

// Views the server accepts (CLI -view values plus the execution-free
// modes).
var validViews = map[string]bool{
	"data": true, "code": true, "hybrid": true, "all": true,
	"baseline": true, "comm": true, "static": true, "lint-json": true,
}

// Normalize validates the request, resolves a bench name to its source
// text, and fills defaults, so that two requests meaning the same thing
// produce the same Key. It mutates the receiver.
func (r *Request) Normalize() error {
	if (r.Bench == "") == (r.Source == "") {
		return fmt.Errorf("exactly one of bench or source must be set")
	}
	if r.Bench != "" {
		src, name, err := ResolveBench(r.Bench)
		if err != nil {
			return err
		}
		r.Source, r.Name = src, name
	}
	if len(r.Source) > MaxSourceBytes {
		return fmt.Errorf("source too large (%d bytes, max %d)", len(r.Source), MaxSourceBytes)
	}
	if r.Name == "" {
		r.Name = "prog.mchpl"
	}
	if r.Locales == 0 {
		r.Locales = 1
	}
	if r.Locales < 1 || r.Locales > MaxLocales {
		return fmt.Errorf("locales %d out of range [1, %d]", r.Locales, MaxLocales)
	}
	if r.Cores == 0 {
		r.Cores = 12
	}
	if r.Cores < 1 || r.Cores > MaxCores {
		return fmt.Errorf("cores %d out of range [1, %d]", r.Cores, MaxCores)
	}
	if r.View == "" {
		r.View = "data"
	}
	if !validViews[r.View] {
		return fmt.Errorf("unknown view %q", r.View)
	}
	// Limit 0 selects the default; -1 means unlimited (the CLI's
	// historical `-limit 0`).
	if r.Limit == 0 {
		r.Limit = 20
	}
	if r.Limit != -1 && (r.Limit < 1 || r.Limit > MaxLimit) {
		return fmt.Errorf("limit %d out of range [1, %d] (or -1 for unlimited)", r.Limit, MaxLimit)
	}
	if r.Skid < 0 || r.SampleBuffer < 0 {
		return fmt.Errorf("skid and sample_buffer must be non-negative")
	}
	if r.CommInspector {
		r.CommAggregate = true
	}
	if r.CommAggregate && r.CommCache == 0 {
		r.CommCache = comm.DefaultCacheCap
	}
	if r.FaultSpec != "" {
		if _, err := fault.ParseSpec(r.FaultSpec); err != nil {
			return err
		}
		if r.FaultSeed == 0 {
			r.FaultSeed = 1
		}
	}
	if r.DeadlineMs < 0 {
		return fmt.Errorf("deadline_ms must be non-negative")
	}
	return nil
}

// Key returns the content-addressed cache key of a normalized request:
// a hash over the source text and every knob that can change the
// outcome. Comm mode, fault spec/seed, locale count, analysis options
// and the view all feed the key, so no two requests with different
// semantics can ever alias one cache entry (the server-level analogue of
// the compile.SourceCached / core.AnalyzeCached key audit).
func (r *Request) Key() string {
	h := sha256.New()
	put := func(parts ...string) {
		for _, p := range parts {
			var n [8]byte
			binary.LittleEndian.PutUint64(n[:], uint64(len(p)))
			h.Write(n[:])
			h.Write([]byte(p))
		}
	}
	put("v1", r.Name, r.Source, r.View, r.FaultSpec)
	put(fmt.Sprintf("%d|%d|%d|%d|%d|%d|%d|%d",
		r.Locales, r.Cores, r.Limit, r.Threshold, r.Skid,
		r.SampleBuffer, r.CommCache, r.FaultSeed))
	put(fmt.Sprintf("%t|%t|%t|%t|%t|%t|%t|%t|%t",
		r.Lint, r.PerLocale, r.NoImplicit, r.NoInterproc, r.Lines,
		r.CommAggregate, r.NoOwnerComputes, r.FaultSpec != "",
		r.CommInspector))
	// Canonical config order: maps iterate randomly.
	keys := make([]string, 0, len(r.Configs))
	for k := range r.Configs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		put(k, r.Configs[k])
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// Summary is a short human-readable request descriptor for listings and
// logs.
func (r *Request) Summary() string {
	var b strings.Builder
	b.WriteString(r.Name)
	fmt.Fprintf(&b, " view=%s", r.View)
	if r.Lint {
		b.WriteString(" lint")
	}
	if r.Locales > 1 {
		fmt.Fprintf(&b, " locales=%d", r.Locales)
	}
	if r.CommAggregate {
		b.WriteString(" comm-aggregate")
	}
	if r.CommInspector {
		b.WriteString(" comm-inspector")
	}
	if r.FaultSpec != "" {
		fmt.Fprintf(&b, " fault=%s", r.FaultSpec)
	}
	return b.String()
}
