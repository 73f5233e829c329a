package main

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/serve"
)

// program is one benchmark program at one configuration.
type program struct {
	key     string // reference key prefix
	bench   string // serve.ResolveBench name
	locales int
	agg     bool              // comm_aggregate
	insp    bool              // comm_inspector
	configs map[string]string // config const overrides
}

// casePrograms are the paper's three case studies at their default
// configs, the programs of profile-cold and static-cold.
var casePrograms = []program{
	{key: "clomp", bench: "clomp"},
	{key: "minimd", bench: "minimd"},
	{key: "lulesh", bench: "lulesh"},
}

// servePrograms are serve-views' three configurations, one per comm
// mode.
var servePrograms = []program{
	{key: "halo-4L-aggregate-reps2", bench: "halo", locales: 4, agg: true, configs: map[string]string{"reps": "2"}},
	{key: "spmv-2L-inspector", bench: "spmv", locales: 2, insp: true},
	{key: "gather-4L-direct", bench: "gather", locales: 4},
}

// sessionViews is one serve-views session: four distinct views of one
// run, then the first again, which the server's outcome cache answers.
var sessionViews = []string{"data", "code", "comm", "hybrid", "data"}

// resolved is a program with its built-in source text and name.
type resolved struct {
	program
	src, name string
}

func (p program) resolve() (resolved, error) {
	src, name, err := serve.ResolveBench(p.bench)
	return resolved{p, src, name}, err
}

// request builds the normalized request for view, with salt appended to
// the source ("" for the unsalted program).
func (r resolved) request(salt, view string, lint bool) (*serve.Request, error) {
	src := r.src
	if salt != "" {
		src = salted(src, salt)
	}
	req := &serve.Request{Source: src, Name: r.name, View: view, Lint: lint,
		Locales: r.locales, CommAggregate: r.agg, CommInspector: r.insp, Configs: r.configs}
	if err := req.Normalize(); err != nil {
		return nil, fmt.Errorf("%s: %w", r.key, err)
	}
	return req, nil
}

// item is one entry of a request list: a program (index into the
// workload's program table) and the salt appended to its source.
type item struct {
	Prog int
	Salt string
}

// salted appends salt to src as a trailing comment line. Compile and
// analysis memos are keyed by the source text, so a unique salt makes
// every request miss them, as in a fresh process; a trailing comment
// changes no line number and so no output byte.
func salted(src, salt string) string {
	if !strings.HasSuffix(src, "\n") {
		src += "\n"
	}
	return src + "// layerbench salt " + salt + "\n"
}

// salter draws unique salts from a seeded generator.
type salter struct {
	rng  *rand.Rand
	seen map[string]bool
}

func newSalter(rng *rand.Rand) *salter { return &salter{rng: rng, seen: map[string]bool{}} }

func (s *salter) next() string {
	for {
		salt := fmt.Sprintf("%016x", s.rng.Uint64())
		if !s.seen[salt] {
			s.seen[salt] = true
			return salt
		}
	}
}

// cycles draws n cycles over nprogs programs: each cycle holds every
// program once, in a seeded order, each with a fresh salt. Equal weights
// keep p50 and p90 inside one program's latency cluster.
func cycles(s *salter, nprogs, n int) []item {
	list := make([]item, 0, n*nprogs)
	for c := 0; c < n; c++ {
		for _, p := range s.rng.Perm(nprogs) {
			list = append(list, item{Prog: p, Salt: s.next()})
		}
	}
	return list
}
