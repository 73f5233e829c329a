// Package memo is the process's one memoization mechanism: a
// byte-budgeted LRU of computed values, keyed by (stage, key), with
// singleflight computation and per-stage counters.
//
// Every pipeline stage the daemon, the CLIs and the experiment harness
// memoize — compiled IR, static blame analyses, runner builds,
// experiment profiles and timings — lives in Shared, so one budget bounds
// them all; the server's rendered outcomes live in a Store of their own,
// sized by its -cache-mb flag. A stage is a name; its keys are any
// comparable values, and a key's stage is part of its identity, so keys
// of different stages never collide.
package memo

import (
	"container/list"
	"sync"
)

// Shared is the process-wide store behind the compile, analysis, runner
// and experiment stages. Its budget is a constant: every stage value is
// a pure function of its key, so an evicted entry costs only the time to
// recompute it.
var Shared = New(256 << 20)

// Store is a byte-budgeted LRU over completed entries. One mutex guards
// everything; computations run outside it.
type Store struct {
	mu       sync.Mutex
	maxBytes int64
	bytes    int64
	ll       *list.List // completed entries, front = most recently used
	entries  map[any]*entry
	stages   map[string]*Stats
}

type key struct {
	stage string
	k     any
}

type entry struct {
	key  key
	val  any
	err  error
	size int64
	// done is closed once an in-flight computation has finished; ok
	// records that it returned rather than panicked. Both are set before
	// done closes.
	done chan struct{}
	ok   bool
	elem *list.Element // nil while in flight
}

// Stats are the counters of one stage, or of a whole store. MaxBytes is
// the store's budget, which every stage shares.
type Stats struct {
	Entries   int    `json:"entries"`
	Bytes     int64  `json:"bytes"`
	MaxBytes  int64  `json:"max_bytes"`
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
}

// HitRate is hits / (hits + misses), 0 before any lookup.
func (s Stats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// New builds a store bounded at maxBytes of estimated entry size.
func New(maxBytes int64) *Store {
	return &Store{
		maxBytes: maxBytes,
		ll:       list.New(),
		entries:  make(map[any]*entry),
		stages:   make(map[string]*Stats),
	}
}

// Do returns the value memoized under (stage, k), computing it with f on
// a miss. Concurrent calls for one key compute once; the others wait for
// it. An error is memoized like a value, but a computation that panics
// is not: the panic reaches its caller, and each waiter retries. size
// estimates the bytes a value keeps reachable; a value larger than the
// whole budget is returned but not kept.
func Do[V any](s *Store, stage string, k any, f func() (V, error), size func(V) int64) (V, error) {
	v, err := s.do(key{stage, k}, func() (any, int64, error) {
		v, err := f()
		if err != nil {
			return v, int64(len(err.Error())), err
		}
		return v, size(v), nil
	})
	r, _ := v.(V)
	return r, err
}

func (s *Store) do(k key, f func() (any, int64, error)) (any, error) {
	for {
		s.mu.Lock()
		e, ok := s.entries[k]
		if !ok {
			break // still holding the lock
		}
		s.stage(k.stage).Hits++
		if e.elem != nil {
			s.ll.MoveToFront(e.elem)
			s.mu.Unlock()
			return e.val, e.err
		}
		s.mu.Unlock()
		<-e.done
		if e.ok {
			return e.val, e.err
		}
	}
	e := &entry{key: k, done: make(chan struct{})}
	s.entries[k] = e
	s.stage(k.stage).Misses++
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		if s.entries[k] == e {
			if e.ok {
				s.insert(e)
			} else {
				delete(s.entries, k)
			}
		}
		s.mu.Unlock()
		close(e.done)
	}()
	v, size, err := f()
	e.val, e.size, e.err, e.ok = v, size, err, true
	return v, err
}

// Get returns the value stored under (stage, k) and marks it most
// recently used. A computation still in flight is a miss.
func (s *Store) Get(stage string, k any) (any, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stage(stage)
	e, ok := s.entries[key{stage, k}]
	if !ok || e.elem == nil {
		st.Misses++
		return nil, false
	}
	st.Hits++
	s.ll.MoveToFront(e.elem)
	return e.val, true
}

// Put stores v under (stage, k), replacing any completed entry, and
// evicts cold entries until the store fits its budget again. A value
// larger than the whole budget is not stored.
func (s *Store) Put(stage string, k any, v any, size int64) {
	kk := key{stage, k}
	s.mu.Lock()
	defer s.mu.Unlock()
	if old, ok := s.entries[kk]; ok {
		if old.elem == nil {
			return // in flight: its own result lands when it finishes
		}
		s.unlink(old)
	}
	e := &entry{key: kk, val: v, size: size}
	s.entries[kk] = e
	s.insert(e)
}

// insert links a completed entry (already in s.entries) into the LRU and
// evicts from the cold end until the budget holds. Callers hold s.mu.
func (s *Store) insert(e *entry) {
	if e.size > s.maxBytes {
		delete(s.entries, e.key)
		return
	}
	e.elem = s.ll.PushFront(e)
	st := s.stage(e.key.stage)
	st.Entries++
	st.Bytes += e.size
	s.bytes += e.size
	for s.bytes > s.maxBytes {
		cold := s.ll.Back().Value.(*entry)
		s.unlink(cold)
		s.stage(cold.key.stage).Evictions++
	}
}

// unlink drops a completed entry and its accounting. Callers hold s.mu.
func (s *Store) unlink(e *entry) {
	s.ll.Remove(e.elem)
	delete(s.entries, e.key)
	st := s.stage(e.key.stage)
	st.Entries--
	st.Bytes -= e.size
	s.bytes -= e.size
}

func (s *Store) stage(name string) *Stats {
	st, ok := s.stages[name]
	if !ok {
		st = &Stats{}
		s.stages[name] = st
	}
	return st
}

// Stats sums the counters of every stage.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := Stats{MaxBytes: s.maxBytes}
	for _, st := range s.stages {
		out.Entries += st.Entries
		out.Bytes += st.Bytes
		out.Hits += st.Hits
		out.Misses += st.Misses
		out.Evictions += st.Evictions
	}
	return out
}

// StageStats snapshots the counters of each stage used so far.
func (s *Store) StageStats() map[string]Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]Stats, len(s.stages))
	for name, st := range s.stages {
		c := *st
		c.MaxBytes = s.maxBytes
		out[name] = c
	}
	return out
}
