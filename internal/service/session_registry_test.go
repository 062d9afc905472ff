package service

// Registry-level tests that exercise sessionRegistry directly, below
// the HTTP layer: the rejected-create leak regression and the
// lookup/expire/remove race. Every session handed to create comes from
// a tracking opener, so tests can observe what became of each.

import (
	"errors"
	"sync"
	"testing"
	"time"

	gapsched "repro"
)

// trackingOpener records every session it opens so tests can verify
// none leak: a leaked session is one the registry neither returned to
// the caller nor closed.
type trackingOpener struct {
	mu     sync.Mutex
	opened []*gapsched.Session
}

func (o *trackingOpener) open() *gapsched.Session {
	s, err := gapsched.Solver{}.Open(1)
	if err != nil {
		panic(err) // the zero Solver on one processor is a valid configuration
	}
	o.mu.Lock()
	o.opened = append(o.opened, s)
	o.mu.Unlock()
	return s
}

// closedCount reports how many tracked sessions have been closed,
// probed via the facade's ErrSessionClosed contract.
func (o *trackingOpener) closedCount() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	n := 0
	for _, s := range o.opened {
		if _, err := s.Add(gapsched.Job{Release: 0, Deadline: 1}); errors.Is(err, gapsched.ErrSessionClosed) {
			n++
		}
	}
	return n
}

// TestSessionCreateRejectionClosesSession is the leak regression test:
// with the table full, every rejected create must close the session it
// had already opened. Before the fix, each rejection leaked a live
// gapsched.Session (and its tracker state) with no owner.
func TestSessionCreateRejectionClosesSession(t *testing.T) {
	met := &metrics{}
	r := newSessionRegistry(time.Minute, 2, met)
	defer r.close()
	op := &trackingOpener{}

	// Fill the table to MaxSessions.
	for i := 0; i < 2; i++ {
		if _, err := r.create(op.open(), gapsched.Solver{}); err != nil {
			t.Fatalf("create %d: %v", i, err)
		}
	}

	// Hammer creates beyond the bound, concurrently.
	const rejects = 32
	var wg sync.WaitGroup
	for i := 0; i < rejects; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := r.create(op.open(), gapsched.Solver{})
			if !errors.Is(err, errSessionsFull) {
				t.Errorf("over-bound create: %v, want errSessionsFull", err)
			}
		}()
	}
	wg.Wait()

	if got := len(op.opened); got != 2+rejects {
		t.Fatalf("opener called %d times, want %d", got, 2+rejects)
	}
	// Every rejected session must be closed; the two admitted ones live.
	if got := op.closedCount(); got != rejects {
		t.Fatalf("%d sessions closed, want %d (leak: %d live rejected sessions)", got, rejects, rejects-got)
	}
	if r.open() != 2 {
		t.Fatalf("registry holds %d sessions, want 2", r.open())
	}
}

// TestSessionCreateAfterCloseClosesSession: the shutting-down
// rejection path must close the opened session too.
func TestSessionCreateAfterCloseClosesSession(t *testing.T) {
	r := newSessionRegistry(0, 0, &metrics{})
	r.close()
	op := &trackingOpener{}
	if _, err := r.create(op.open(), gapsched.Solver{}); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("create after close: %v, want ErrShuttingDown", err)
	}
	if len(op.opened) != 1 || op.closedCount() != 1 {
		t.Fatalf("opened %d closed %d, want 1/1", len(op.opened), op.closedCount())
	}
}

// TestSessionRegistryLookupExpireRemoveRace hammers lookup (which
// refreshes the TTL clock and may itself expire), the sweeper's
// expireIdle, and remove on the same ids concurrently. Run under
// -race this pins the locking discipline; the postscript checks that
// exactly one holder closed each session (created = closed + expired,
// no double counting).
func TestSessionRegistryLookupExpireRemoveRace(t *testing.T) {
	met := &metrics{}
	// A tiny TTL so lazy expiry and the explicit sweeps really fire.
	r := newSessionRegistry(200*time.Microsecond, 0, met)
	defer r.close()
	op := &trackingOpener{}

	const ids = 8
	var mu sync.Mutex
	live := make([]string, 0, ids)
	spawn := func() {
		id, err := r.create(op.open(), gapsched.Solver{})
		if err != nil {
			t.Errorf("create: %v", err)
			return
		}
		mu.Lock()
		live = append(live, id)
		mu.Unlock()
	}
	pick := func(i int) string {
		mu.Lock()
		defer mu.Unlock()
		if len(live) == 0 {
			return ""
		}
		return live[i%len(live)]
	}
	for i := 0; i < ids; i++ {
		spawn()
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	worker := func(fn func(i int)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
					fn(i)
				}
			}
		}()
	}
	worker(func(i int) { // lookup-refresh (and lazy expiry)
		if id := pick(i); id != "" {
			r.lookup(id)
		}
	})
	worker(func(i int) { // background sweeps far in the future: expire everything idle
		r.expireIdle(time.Now().Add(time.Hour))
	})
	worker(func(i int) { // explicit removal
		if id := pick(i); id != "" {
			r.remove(id)
		}
	})
	worker(func(i int) { // churn replacements so the other workers stay busy
		spawn()
		time.Sleep(100 * time.Microsecond)
	})

	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()

	// Drain what's left, then account: every created session must have
	// been closed exactly once, by exactly one of the three holders.
	r.expireIdle(time.Now().Add(time.Hour))
	if n := r.open(); n != 0 {
		t.Fatalf("%d sessions survived the final sweep", n)
	}
	created := met.sessionsCreated.Load()
	closed := met.sessionsClosed.Load() + met.sessionsExpired.Load()
	if created != closed {
		t.Fatalf("created %d sessions, closed+expired %d", created, closed)
	}
	if got := op.closedCount(); int64(got) != created {
		t.Fatalf("%d of %d sessions actually closed", got, created)
	}
}
