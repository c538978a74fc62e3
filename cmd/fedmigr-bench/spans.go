package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
)

// traceID ties a span to the request it belongs to: one global round of one
// pass of one workload. Round is 0 for spans outside any round.
type traceID struct {
	Workload string `json:"workload"`
	Pass     int    `json:"pass"`
	Round    int    `json:"round"`
}

// span is one timed region. Parent is the id of the span that caused it (0
// for a root). Spans live in memory and are written out only at exit.
type span struct {
	Name    string  `json:"name"`
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Trace   traceID `json:"trace"`
	StartNS int64   `json:"start_ns"`
	EndNS   int64   `json:"end_ns"`
}

func (s span) dur() int64 { return s.EndNS - s.StartNS }

// spanStore collects a traced pass's spans: the driver's own (round, session,
// drl.plan, drl.feedback) and the ones read back from the program's tracer.
type spanStore struct {
	workload string
	pass     int
	spans    []span
}

// add appends a root span and returns its id; nest assigns parents later.
func (st *spanStore) add(name string, round int, start, end int64) int {
	id := len(st.spans) + 1
	st.spans = append(st.spans, span{
		Name: name, ID: id,
		Trace:   traceID{Workload: st.workload, Pass: st.pass, Round: round},
		StartNS: start, EndNS: end,
	})
	return id
}

// appendTo appends the spans to path as JSON lines (the suite truncates the
// file once, then each traced pass appends).
func (st *spanStore) appendTo(path string) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range st.spans {
		if err := enc.Encode(&st.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// nest assigns each span its parent by interval containment: the parent is
// the innermost span that starts no later and ends no earlier. The program's
// tracer records no parent, but every span of a simulated round is emitted
// by the coordinator goroutine, so containment is causation there. Spans
// that merely overlap stay siblings.
func nest(spans []span) {
	order := make([]int, len(spans))
	for i := range order {
		order[i] = i
	}
	// Outer spans first: earlier start, then longer.
	sort.SliceStable(order, func(a, b int) bool {
		x, y := spans[order[a]], spans[order[b]]
		if x.StartNS != y.StartNS {
			return x.StartNS < y.StartNS
		}
		return x.EndNS > y.EndNS
	})
	var stack []int
	for _, i := range order {
		for len(stack) > 0 && spans[stack[len(stack)-1]].EndNS < spans[i].EndNS {
			stack = stack[:len(stack)-1]
		}
		if len(stack) > 0 {
			spans[i].Parent = spans[stack[len(stack)-1]].ID
		} else {
			spans[i].Parent = 0
		}
		stack = append(stack, i)
	}
}

// selfTimes returns, per span id, the span's duration minus the part of its
// interval its direct children cover. Children that overlap each other are
// counted once; a child sticking out of its parent is clipped.
func selfTimes(spans []span) map[int]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].StartNS < kids[b].StartNS })
		covered, edge := int64(0), s.StartNS
		for _, k := range kids {
			lo, hi := k.StartNS, k.EndNS
			if lo < edge {
				lo = edge
			}
			if hi > s.EndNS {
				hi = s.EndNS
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}
