package obs

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestTraceSpansAndAttrs records a few stages (concurrently, as batch
// workers do) and checks the snapshot: spans sorted by start offset,
// attributes copied, error and duration stamped by Finish.
func TestTraceSpansAndAttrs(t *testing.T) {
	tr := NewTrace("solve")
	base := tr.Begin()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tr.Span(StageSolve, "dp", base.Add(time.Duration(i)*time.Millisecond), time.Millisecond)
		}(i)
	}
	wg.Wait()
	tr.Span(StagePrep, "", base, 500*time.Microsecond)
	tr.SetAttr("mode", "auto")
	tr.Finish(errors.New("boom"))

	d := tr.Data()
	if d.Op != "solve" || d.Err != "boom" || d.Dur <= 0 {
		t.Fatalf("bad trace header: %+v", d)
	}
	if d.Attrs["mode"] != "auto" {
		t.Fatalf("attrs = %v", d.Attrs)
	}
	if len(d.Spans) != 5 {
		t.Fatalf("got %d spans, want 5", len(d.Spans))
	}
	for i := 1; i < len(d.Spans); i++ {
		if d.Spans[i].Start < d.Spans[i-1].Start {
			t.Fatalf("spans not sorted by start: %+v", d.Spans)
		}
	}
	if d.Spans[0].Name != StagePrep && d.Spans[0].Name != StageSolve {
		t.Fatalf("unexpected first span %+v", d.Spans[0])
	}

	// Finish stamps once: a second Finish must not overwrite.
	first := d.Dur
	tr.Finish(errors.New("later"))
	if got := tr.Data(); got.Dur != first || got.Err != "boom" {
		t.Fatalf("Finish overwrote: dur %v→%v err %q", first, got.Dur, got.Err)
	}
}

// TestNilTraceAndContext pins the nil-safety contract: recording into
// an absent trace is a no-op, and a context without a trace yields nil.
func TestNilTraceAndContext(t *testing.T) {
	var tr *Trace
	tr.Span(StageSolve, "dp", time.Now(), time.Second)
	tr.SetAttr("k", "v")
	tr.Finish(nil)
	if d := tr.Data(); d.Op != "" || len(d.Spans) != 0 {
		t.Fatalf("nil trace data = %+v", d)
	}
	if got := FromContext(context.Background()); got != nil {
		t.Fatalf("FromContext(empty) = %v", got)
	}
	ctx := With(context.Background(), nil)
	if got := FromContext(ctx); got != nil {
		t.Fatalf("FromContext(With(nil)) = %v", got)
	}
	real := NewTrace("x")
	if got := FromContext(With(context.Background(), real)); got != real {
		t.Fatalf("trace did not round-trip through context")
	}
}

// TestRecorderWraparound fills a small ring far past its capacity and
// checks that exactly the last N traces survive, newest first, with
// monotonically assigned ids.
func TestRecorderWraparound(t *testing.T) {
	const ringSize, total = 4, 11
	r := NewRecorder(ringSize)
	for i := 1; i <= total; i++ {
		tr := NewTrace(fmt.Sprintf("op%d", i))
		tr.Finish(nil)
		r.Add(tr)
	}
	got := r.Traces()
	if len(got) != ringSize {
		t.Fatalf("ring holds %d traces, want %d", len(got), ringSize)
	}
	for i, d := range got {
		wantID := uint64(total - i)
		if d.ID != wantID {
			t.Fatalf("trace %d has id %d, want %d (newest first)", i, d.ID, wantID)
		}
		if want := fmt.Sprintf("op%d", wantID); d.Op != want {
			t.Fatalf("trace id %d has op %q, want %q", d.ID, d.Op, want)
		}
	}
}

// TestRecorderPartialFill reads a ring that has not wrapped yet.
func TestRecorderPartialFill(t *testing.T) {
	r := NewRecorder(8)
	for i := 1; i <= 3; i++ {
		r.Add(NewTrace(fmt.Sprintf("op%d", i)))
	}
	got := r.Traces()
	if len(got) != 3 {
		t.Fatalf("ring holds %d traces, want 3", len(got))
	}
	if got[0].Op != "op3" || got[2].Op != "op1" {
		t.Fatalf("order wrong: %v, %v", got[0].Op, got[2].Op)
	}
	// Add finishes unfinished traces so durations are stamped.
	if got[0].Dur <= 0 {
		t.Fatalf("Add did not stamp duration: %+v", got[0])
	}
}

// TestRecorderConcurrentAdd exercises the ring under concurrent
// writers and readers (race detector coverage).
func TestRecorderConcurrentAdd(t *testing.T) {
	r := NewRecorder(16)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				r.Add(NewTrace("op"))
				r.Traces()
			}
		}()
	}
	wg.Wait()
	got := r.Traces()
	if len(got) != 16 {
		t.Fatalf("ring holds %d traces, want 16", len(got))
	}
	if got[0].ID != 400 {
		t.Fatalf("newest id = %d, want 400", got[0].ID)
	}
	var nilRec *Recorder
	nilRec.Add(NewTrace("x"))
	if nilRec.Traces() != nil {
		t.Fatalf("nil recorder returned traces")
	}
	r.Add(nil) // nil trace is a no-op
	if got := r.Traces(); got[0].ID != 400 {
		t.Fatalf("nil Add bumped ids: %d", got[0].ID)
	}
}

// TestTraceDataStages pins the per-stage aggregation behind the
// slow-solve log line and gapsched -trace: rows in pipeline order with
// one solve row per backend in Backends order, span counts and summed
// durations, cache spans folded into one row whatever their backend,
// empty stages omitted, and unknown stages or backends ignored.
func TestTraceDataStages(t *testing.T) {
	sp := func(name, backend string, d time.Duration) Span { return Span{Name: name, Backend: backend, Dur: d} }
	dp, heur := Backends[BackendDP], Backends[BackendHeur]
	for _, tc := range []struct {
		name  string
		spans []Span
		want  []StageSum
	}{
		{"empty", nil, []StageSum{}},
		{
			"pipeline order regardless of span order",
			[]Span{
				sp(StageAssemble, "", 5),
				sp(StageSolve, heur, 7),
				sp(StageSolve, dp, 3),
				sp(StagePrep, "", 2),
				sp(StageQueueWait, "", 1),
				sp(StageSolve, dp, 4),
			},
			[]StageSum{
				{Stage: StageQueueWait, Count: 1, Dur: 1},
				{Stage: StagePrep, Count: 1, Dur: 2},
				{Stage: StageSolve, Backend: dp, Count: 2, Dur: 7},
				{Stage: StageSolve, Backend: heur, Count: 1, Dur: 7},
				{Stage: StageAssemble, Count: 1, Dur: 5},
			},
		},
		{
			"cache spans fold across backends",
			[]Span{sp(StageCache, dp, 10), sp(StageCache, heur, 20), sp(StageCache, "", 30), sp(StageSolve, heur, 1)},
			[]StageSum{
				{Stage: StageCache, Count: 3, Dur: 60},
				{Stage: StageSolve, Backend: heur, Count: 1, Dur: 1},
			},
		},
		{
			"unknown stages and backends are ignored",
			[]Span{sp("warmup", "", 9), sp(StageSolve, "", 9), sp(StageSolve, "poly", 9), sp(StagePrep, "", 1)},
			[]StageSum{{Stage: StagePrep, Count: 1, Dur: 1}},
		},
	} {
		got := TraceData{Spans: tc.spans}.Stages()
		if len(got) != len(tc.want) {
			t.Fatalf("%s: %d rows %+v, want %+v", tc.name, len(got), got, tc.want)
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Fatalf("%s: row %d = %+v, want %+v", tc.name, i, got[i], tc.want[i])
			}
		}
	}
	if l := (StageSum{Stage: StageSolve, Backend: heur}).Label(); l != "solve[heuristic]" {
		t.Fatalf("solve label %q", l)
	}
	if l := (StageSum{Stage: StageCache}).Label(); l != "cache" {
		t.Fatalf("cache label %q", l)
	}
	for b, name := range Backends {
		if Backend(b).String() != name {
			t.Fatalf("Backend(%d).String() = %q, want %q", b, Backend(b).String(), name)
		}
	}
}
