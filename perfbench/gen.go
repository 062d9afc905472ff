package main

// Input generation. Every input is a pure function of the workload, the
// seed and the run length: each generator draws from its own stream, so
// the program under test sees only generated data and the same command
// line reproduces it byte for byte (TestInputsDependOnlyOnSeed).

import (
	"encoding/json"
	"math"
	"math/rand"
	"sort"

	gapsched "repro"
	"repro/internal/sched"
	"repro/internal/workload"
)

// alpha is the transition cost of every power-objective input.
const alpha = 2.0

// rngFor returns the generator of one input stream of one seed.
func rngFor(seed, stream int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + stream))
}

// objectiveAt alternates objectives, so every pool is half gaps and
// half power.
func objectiveAt(i int) gapsched.Objective {
	if i%2 == 1 {
		return gapsched.ObjectivePower
	}
	return gapsched.ObjectiveGaps
}

// libraryOp is one closed-loop call: a SolveBatch of Instances on
// exact-batch, a Solve of its single instance on auto-scale.
type libraryOp struct {
	Objective gapsched.Objective
	Instances []sched.Instance
}

// exactBatchOps builds the exact-batch pool. Every batch holds, on 2
// and on 3 processors, one dense single-fragment instance of at least
// 192 jobs, which the engine solves through its parallel root, and one
// bursty instance of 64-job fragments, which take the serial path.
// Every batch has the same shape, so step latencies form one mode.
func exactBatchOps(seed int64, quick bool) []libraryOp {
	batches, denseN, burstyN := 24, 192, 2048
	if quick {
		batches, denseN, burstyN = 2, 24, 128
	}
	rng := rngFor(seed, 1)
	ops := make([]libraryOp, batches)
	for b := range ops {
		var ins []sched.Instance
		for p := 2; p <= 3; p++ {
			ins = append(ins, workload.StressDense(rng, denseN+rng.Intn(8), p), workload.StressBursty(rng, burstyN, p))
		}
		ops[b] = libraryOp{Objective: objectiveAt(b), Instances: ins}
	}
	return ops
}

// regionGap separates the regions of an auto-scale instance: an idle run
// wider than alpha splits under both objectives.
const regionGap = 64

// autoScaleOps builds the auto-scale pool: single-processor instances
// laid out as regions that decompose on their own — thousands of
// one-job fragments and 64-job bursty fragments (admitted to the DP
// engine), one dense fragment of 520+ jobs (the polynomial backend),
// and fragments of thousands of jobs with random windows (the
// heuristic).
func autoScaleOps(seed int64, quick bool) []libraryOp {
	count, sparse, bursty, denseN, randomN, randoms := 16, 4000, 32*64, 520, 5000, 3
	if quick {
		// The random region stays large: smaller, it would fit the
		// polynomial backend's budget, which is slow on random windows.
		count, sparse, bursty, denseN, randomN, randoms = 2, 64, 2*64, 60, 3000, 1
	}
	rng := rngFor(seed, 2)
	ops := make([]libraryOp, count)
	for i := range ops {
		parts := []sched.Instance{
			workload.StressSparse(rng, sparse, 1),
			workload.StressBursty(rng, bursty, 1),
			workload.StressDense(rng, denseN+rng.Intn(8), 1),
		}
		for k := 0; k < randoms; k++ {
			parts = append(parts, randomWindows(rng, randomN, 64))
		}
		var jobs []sched.Job
		off := 0
		for _, part := range parts {
			end := off
			for _, j := range part.Jobs {
				jobs = append(jobs, sched.Job{Release: j.Release + off, Deadline: j.Deadline + off})
				end = max(end, j.Deadline+off)
			}
			off = end + regionGap
		}
		ops[i] = libraryOp{Objective: objectiveAt(i), Instances: []sched.Instance{sched.NewInstance(jobs)}}
	}
	return ops
}

// randomWindows draws n single-processor jobs with distinct witness
// times over a horizon of 5n and windows reaching up to slack units
// either side of their witness: feasible by construction, and a shape
// on which the greedy lands well above the optimum. A job that would
// open an idle gap has its release moved back to close it, so the jobs
// form one fragment: a piece split off could be small enough for the
// polynomial backend, whose cost on random windows is unbounded here.
func randomWindows(rng *rand.Rand, n, slack int) sched.Instance {
	witness := rng.Perm(5 * n)[:n]
	jobs := make([]sched.Job, n)
	for i, w := range witness {
		jobs[i] = sched.Job{Release: max(w-rng.Intn(slack+1), 0), Deadline: w + rng.Intn(slack+1)}
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(x, y int) bool { return jobs[order[x]].Release < jobs[order[y]].Release })
	end := jobs[order[0]].Deadline
	for _, i := range order[1:] {
		// Lowering a release keeps the witness inside the window.
		jobs[i].Release = min(jobs[i].Release, end+1)
		end = max(end, jobs[i].Deadline)
	}
	return sched.NewInstance(jobs)
}

// smallBursty draws one instance of the daemon's one-shot traffic: about
// two dozen jobs in three bursts on 2 or 3 processors, redrawn until
// feasible.
func smallBursty(rng *rand.Rand) sched.Instance {
	for {
		n := 16 + rng.Intn(17)
		in := workload.Bursty(rng, n, 3, 6*n, 4, 5)
		in.Procs = 2 + rng.Intn(2)
		if gapsched.Feasible(in) {
			return in
		}
	}
}

// shot is one /v1/solve request: its body, encoded before the run, and
// its cost from a direct library Solve (NaN until computed).
type shot struct {
	req  sched.SolveRequest
	body []byte
	ref  float64
}

// oneShotConfigs is the one-shot objective × mode mix.
var oneShotConfigs = [...]struct{ objective, mode string }{
	{sched.WireGaps, sched.WireModeExact},
	{sched.WireGaps, sched.WireModeAuto},
	{sched.WirePower, sched.WireModeExact},
	{sched.WirePower, sched.WireModeAuto},
}

func newShot(in sched.Instance, config int) *shot {
	c := oneShotConfigs[config]
	req := sched.SolveRequest{Objective: c.objective, Procs: in.Procs, Mode: c.mode, Jobs: in.Jobs}
	if c.objective == sched.WirePower {
		req.Alpha = alpha
	}
	return &shot{req: req, body: mustJSON(req), ref: math.NaN()}
}

// daemonInputs is everything daemon-mixed sends.
type daemonInputs struct {
	hot []*shot
	// stream is the one-shot requests in send order: the nominal phase,
	// then the longest ladder. Hot requests repeat hot-pool entries.
	stream   []*shot
	sessions []sessionScript
}

func daemonMixedInputs(seed int64, p daemonPlan, sessions int) daemonInputs {
	var in daemonInputs
	rng := rngFor(seed, 3)
	for i := 0; i < p.hot; i++ {
		in.hot = append(in.hot, newShot(smallBursty(rng), i%len(oneShotConfigs)))
	}
	rng = rngFor(seed, 4)
	for n := p.requests(); len(in.stream) < n; {
		if rng.Float64() < freshShare {
			in.stream = append(in.stream, newShot(smallBursty(rng), rng.Intn(len(oneShotConfigs))))
		} else {
			in.stream = append(in.stream, in.hot[rng.Intn(len(in.hot))])
		}
	}
	for s := 0; s < sessions; s++ {
		in.sessions = append(in.sessions, sessionScriptFor(rngFor(seed, 5+int64(s)), s, p))
	}
	return in
}

// Session scripts. A session's jobs sit in clusters separated by idle
// runs, so its instance decomposes into many fragments, and each step
// removes and adds a job or two. Every tenth step also adds a bridge, a
// job whose window spans the idle run inside a pair of clusters and
// merges the pair into one fragment, and removes the bridge added
// bridgeLife steps before, which splits its pair again. Bridges follow a
// fixed schedule, so every session has the same number of bridged pairs
// at every step: a bridged pair costs the engine several times what a
// lone cluster does, and random bridges made a run's work depend on how
// its seed happened to chain them. Every live job owns a distinct
// (processor, time) witness slot inside its window, so every state is
// feasible.
const (
	sessionProcs  = 2
	clusterLen    = 8   // time units one cluster covers
	clusterStride = 32  // distance between cluster starts
	clusterFill   = 6   // initial jobs per cluster, of clusterLen·sessionProcs slots
	bridgeEvery   = 10  // steps between bridge adds
	bridgeLife    = 100 // steps a bridge stays
)

// sessionScript is one session's create request and delta steps.
type sessionScript struct {
	create     sched.SessionCreateRequest
	createBody []byte
	steps      []sessionStep
}

// sessionStep is one delta; ids are the ids the daemon must assign to
// its added jobs.
type sessionStep struct {
	delta sched.SessionDeltaRequest
	body  []byte
	ids   []int
}

type witness struct{ proc, time int }

// sessionGen evolves one session's job set, numbering jobs in arrival
// order as the daemon does. live holds the clustered jobs, the ones a
// step may remove at random; bridges leave on their schedule.
type sessionGen struct {
	rng      *rand.Rand
	clusters int
	next     int
	live     []int
	slot     map[int]witness
	used     map[witness]bool
}

// sessionScriptFor builds session s's script: even sessions minimize
// gaps exactly, odd ones minimize power in auto mode.
func sessionScriptFor(rng *rand.Rand, s int, p daemonPlan) sessionScript {
	g := &sessionGen{rng: rng, clusters: 32, slot: map[int]witness{}, used: map[witness]bool{}}
	if p.quick {
		g.clusters = 4
	}
	sc := sessionScript{create: sched.SessionCreateRequest{
		Objective: sched.WireGaps, Procs: sessionProcs, Mode: sched.WireModeExact}}
	if s%2 == 1 {
		sc.create.Objective, sc.create.Alpha, sc.create.Mode = sched.WirePower, alpha, sched.WireModeAuto
	}
	for c := 0; c < g.clusters; c++ {
		for k := 0; k < clusterFill; k++ {
			sc.create.Jobs = append(sc.create.Jobs, g.add(c))
		}
	}
	sc.createBody = mustJSON(sc.create)
	size := len(sc.create.Jobs)
	bridges := map[int]int{} // step → the bridge it added
	for k := 0; k < p.sessionSteps; k++ {
		remove, add := 1+rng.Intn(2), 1+rng.Intn(2)
		switch n := len(g.live); { // keep the job count near its initial size
		case n > size+8:
			remove, add = 2, 1
		case n < size-8:
			remove, add = 1, 2
		}
		var st sessionStep
		if id, ok := bridges[k-bridgeLife]; ok {
			g.free(id)
			st.delta.Remove = append(st.delta.Remove, id)
		}
		for i := 0; i < remove; i++ {
			st.delta.Remove = append(st.delta.Remove, g.remove())
		}
		for i := 0; i < add; i++ {
			st.delta.Add = append(st.delta.Add, g.add(rng.Intn(g.clusters)))
			st.ids = append(st.ids, g.next-1)
		}
		if k%bridgeEvery == 0 {
			// Consecutive bridges go to consecutive pairs: with 16
			// pairs and 10 bridges alive, no pair holds two.
			pair := k / bridgeEvery % (g.clusters / 2)
			bridges[k] = g.next
			st.delta.Add = append(st.delta.Add, g.bridge(2*pair))
			st.ids = append(st.ids, g.next-1)
		}
		st.body = mustJSON(st.delta)
		sc.steps = append(sc.steps, st)
	}
	return sc
}

// add places a job on a free witness slot of cluster c, or of the next
// cluster with room, with its window jittered around the slot inside
// the cluster.
func (g *sessionGen) add(c int) sched.Job {
	for tries := 0; ; tries++ {
		lo := (c + tries/32) % g.clusters * clusterStride
		w := witness{g.rng.Intn(sessionProcs), lo + g.rng.Intn(clusterLen)}
		if g.used[w] {
			continue
		}
		g.take(w)
		g.live = append(g.live, g.next-1)
		return sched.Job{Release: max(lo, w.time-g.rng.Intn(3)), Deadline: min(lo+clusterLen-1, w.time+g.rng.Intn(3))}
	}
}

// bridge adds a job whose window spans the idle run after cluster c, so
// the two clusters form one fragment until the job leaves. Its witness
// is the first free slot of the run: the run has more slots than the
// bridges a pair can hold at once.
func (g *sessionGen) bridge(c int) sched.Job {
	lo, hi := c*clusterStride+clusterLen-1, (c+1)*clusterStride
	t := lo + 1
	for g.used[witness{0, t}] {
		t++
	}
	g.take(witness{0, t})
	return sched.Job{Release: lo, Deadline: hi}
}

func (g *sessionGen) take(w witness) {
	g.used[w] = true
	g.slot[g.next] = w
	g.next++
}

// free releases a leaving job's witness slot.
func (g *sessionGen) free(id int) {
	delete(g.used, g.slot[id])
	delete(g.slot, id)
}

// remove drops a random clustered job and frees its witness slot.
func (g *sessionGen) remove() int {
	i := g.rng.Intn(len(g.live))
	id := g.live[i]
	g.live[i] = g.live[len(g.live)-1]
	g.live = g.live[:len(g.live)-1]
	g.free(id)
	return id
}

// mustJSON encodes a generated wire value. The wire types always
// encode, so a failure is a bug.
func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}
