package service

// Pins the coalescer's context contract: a dispatch serving a single
// request honors that client's context even when it arrives via the
// window timer, while a dispatch shared by several requests ignores
// individual client contexts so no one client can cancel its peers.

import (
	"context"
	"errors"
	"log/slog"
	"testing"
	"time"

	gapsched "repro"
	"repro/internal/sched"
)

func testCoalescer(window time.Duration) *coalescer {
	met := &metrics{}
	po := &pipelineObs{met: met, logger: slog.New(slog.DiscardHandler)}
	return newCoalescer(window, 8, 0, met, po, func(solveKey) gapsched.Solver {
		return gapsched.Solver{}
	})
}

// TestCoalescerSingleRequestWindowHonorsContext: a window that closes
// holding only one request serves only that client, so the client's
// canceled context must cancel the solve — including the timer-flushed
// path, not just the window-disabled immediate path.
func TestCoalescerSingleRequestWindowHonorsContext(t *testing.T) {
	in := gapsched.Instance{Jobs: []sched.Job{{Release: 0, Deadline: 3}}, Procs: 1}
	for _, tc := range []struct {
		name   string
		window time.Duration
	}{
		{"immediate dispatch", 0},
		{"timer-flushed window", 30 * time.Millisecond},
	} {
		c := testCoalescer(tc.window)
		ctx, cancel := context.WithCancel(context.Background())
		done, err := c.enqueue(ctx, solveKey{}, in)
		if err != nil {
			t.Fatalf("%s: enqueue: %v", tc.name, err)
		}
		cancel() // before the window timer can possibly fire
		select {
		case out := <-done:
			if !errors.Is(out.Err, context.Canceled) {
				t.Fatalf("%s: outcome %v, want context.Canceled", tc.name, out.Err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: dispatch never resolved", tc.name)
		}
		c.close()
	}
}

// TestCoalescerSharedWindowIgnoresClientContext: once a second request
// joins the window, the dispatch is shared — canceling the first
// client's context must not cancel its peer (or itself: the shared
// dispatch runs under the coalescer's own deadline).
func TestCoalescerSharedWindowIgnoresClientContext(t *testing.T) {
	c := testCoalescer(30 * time.Millisecond)
	defer c.close()
	in := gapsched.Instance{Jobs: []sched.Job{{Release: 0, Deadline: 3}}, Procs: 1}
	ctx, cancel := context.WithCancel(context.Background())
	done1, err := c.enqueue(ctx, solveKey{}, in)
	if err != nil {
		t.Fatal(err)
	}
	done2, err := c.enqueue(context.Background(), solveKey{}, in)
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	for i, done := range []<-chan gapsched.BatchResult{done1, done2} {
		select {
		case out := <-done:
			if out.Err != nil {
				t.Fatalf("request %d: %v, want success despite peer cancellation", i, out.Err)
			}
			if len(out.Solution.Schedule.Slots) != 1 {
				t.Fatalf("request %d: truncated solution %+v", i, out.Solution)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("request %d never resolved", i)
		}
	}
}
