package gapsched

// Native fuzz targets hardening the full pipeline: for any decodable
// instance, the preprocessed pipeline (with and without the fragment
// cache, solo and batched) must agree exactly with a NoPreprocess
// direct DP solve — same feasibility verdict, same optimal cost, valid
// schedules. Seeds come from the internal/workload generators; the
// decoder clamps every field so all byte strings map to small valid
// instances and the DP stays fast enough to fuzz.

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/sched"
	"repro/internal/workload"
)

const (
	fuzzMaxJobs    = 7
	fuzzMaxProcs   = 3
	fuzzMaxRelease = 40
	fuzzMaxSlack   = 6
	fuzzMaxAlpha   = 9 // half-units: alpha ∈ {0, 0.5, …, 4}
)

// encodeFuzzInstance serializes an instance into the byte format that
// decodeFuzzInstance parses, for seeding the corpus. Out-of-range
// fields are clamped by the modulus, which only matters for seeds drawn
// beyond the fuzz ranges (the workload calls below stay inside them).
func encodeFuzzInstance(in Instance, alphaHalves byte) []byte {
	data := []byte{alphaHalves % fuzzMaxAlpha, byte(len(in.Jobs)-1) % fuzzMaxJobs, byte(in.Procs-1) % fuzzMaxProcs}
	for _, j := range in.Jobs {
		data = append(data, byte(j.Release)%fuzzMaxRelease, byte(j.Deadline-j.Release)%fuzzMaxSlack)
	}
	return data
}

// decodeFuzzInstance maps arbitrary bytes onto a small always-valid
// instance plus a transition cost; ok is false when data is too short.
func decodeFuzzInstance(data []byte) (in Instance, alpha float64, ok bool) {
	if len(data) < 3 {
		return Instance{}, 0, false
	}
	alpha = float64(data[0]%fuzzMaxAlpha) / 2
	n := int(data[1]%fuzzMaxJobs) + 1
	p := int(data[2]%fuzzMaxProcs) + 1
	if len(data) < 3+2*n {
		return Instance{}, 0, false
	}
	jobs := make([]Job, n)
	for i := range jobs {
		r := int(data[3+2*i] % fuzzMaxRelease)
		w := int(data[4+2*i] % fuzzMaxSlack)
		jobs[i] = Job{Release: r, Deadline: r + w}
	}
	return Instance{Jobs: jobs, Procs: p}, alpha, true
}

// seedFuzzCorpus adds workload-generator instances as the corpus.
func seedFuzzCorpus(f *testing.F) {
	f.Helper()
	rng := rand.New(rand.NewSource(51))
	for i := 0; i < 12; i++ {
		in := workload.Multiproc(rng, 1+rng.Intn(fuzzMaxJobs), 1+rng.Intn(fuzzMaxProcs), 6+rng.Intn(30), 5)
		f.Add(encodeFuzzInstance(in, byte(rng.Intn(fuzzMaxAlpha))))
	}
	for i := 0; i < 4; i++ {
		in := workload.Bursty(rng, 1+rng.Intn(fuzzMaxJobs), 1+rng.Intn(3), 30, 4, 4)
		f.Add(encodeFuzzInstance(in, byte(rng.Intn(fuzzMaxAlpha))))
	}
	f.Add(encodeFuzzInstance(workload.TightChain(5), 2))
	f.Add([]byte{0, 0, 0, 0, 0})
}

// checkFuzzAgreement runs one instance through the direct, full, and
// cached pipelines plus a duplicate-pair cached batch, and fails unless
// every path agrees on feasibility and cost with valid schedules.
// cost extracts the objective value from a Solution.
func checkFuzzAgreement(t *testing.T, s Solver, in Instance, cost func(Solution) float64) {
	t.Helper()
	direct := s
	direct.NoPreprocess = true
	cached := s
	cached.Cache = NewFragmentCache(64)
	batched := s
	batched.Cache = NewFragmentCache(64)

	want, directErr := direct.Solve(in)
	full, fullErr := s.Solve(in)
	hot, cachedErr := cached.Solve(in)
	pair := batched.SolveBatch([]Instance{in, in})

	for name, err := range map[string]error{
		"full": fullErr, "cached": cachedErr, "batch[0]": pair[0].Err, "batch[1]": pair[1].Err,
	} {
		if (directErr == nil) != (err == nil) {
			t.Fatalf("%s err %v, direct err %v (jobs %v procs %d)", name, err, directErr, in.Jobs, in.Procs)
		}
	}
	if directErr != nil {
		// The only error a valid instance can produce is infeasibility,
		// and every path must classify it identically.
		for name, err := range map[string]error{
			"direct": directErr, "full": fullErr, "cached": cachedErr, "batch": pair[0].Err,
		} {
			if !errors.Is(err, ErrInfeasible) {
				t.Fatalf("%s failed with %v, want ErrInfeasible (jobs %v procs %d)", name, err, in.Jobs, in.Procs)
			}
		}
		return
	}
	for name, sol := range map[string]Solution{
		"full": full, "cached": hot, "batch[0]": pair[0].Solution, "batch[1]": pair[1].Solution,
	} {
		if math.Abs(cost(sol)-cost(want)) > 1e-9 {
			t.Fatalf("%s cost %v, direct %v (jobs %v procs %d)", name, cost(sol), cost(want), in.Jobs, in.Procs)
		}
		if err := sol.Schedule.Validate(in); err != nil {
			t.Fatalf("%s schedule invalid: %v (jobs %v procs %d)", name, err, in.Jobs, in.Procs)
		}
	}
}

// FuzzSessionDeltas decodes bytes as a bounded add/remove delta
// sequence and replays it through incremental sessions — both
// objectives, each with and without a shared fragment cache — checking
// after every delta that Session.Resolve agrees exactly with a
// from-scratch Solve of the session's snapshot instance under the
// same configuration: same feasibility verdict, equal cost, valid
// schedule, and fragment counters that cover the decomposition.
func FuzzSessionDeltas(f *testing.F) {
	f.Add([]byte{2, 1, 1, 0, 2, 1, 5, 1, 0, 0, 0, 1, 9, 3})
	f.Add([]byte{0, 2, 1, 10, 0, 1, 10, 0, 1, 10, 0, 0, 1, 0})
	f.Add([]byte{7, 0, 1, 0, 5, 1, 30, 5, 1, 12, 2, 0, 0, 0, 1, 3, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			t.Skip()
		}
		alpha := float64(data[0]%fuzzMaxAlpha) / 2
		procs := int(data[1]%fuzzMaxProcs) + 1
		type lane struct {
			cfg  Solver
			sess *Session
		}
		lanes := make([]lane, 0, 4)
		for _, cfg := range []Solver{
			{},
			{Cache: NewFragmentCache(64)},
			{Objective: ObjectivePower, Alpha: alpha},
			{Objective: ObjectivePower, Alpha: alpha, Cache: NewFragmentCache(64)},
		} {
			sess, err := cfg.Open(procs)
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			defer sess.Close()
			lanes = append(lanes, lane{cfg, sess})
		}

		var live []int
		deltas := 0
		for i := 2; i+2 < len(data) && deltas < 12; i += 3 {
			deltas++
			if data[i]%4 == 0 && len(live) > 0 {
				k := int(data[i+1]) % len(live)
				for _, l := range lanes {
					if err := l.sess.Remove(live[k]); err != nil {
						t.Fatalf("Remove(%d): %v", live[k], err)
					}
				}
				live = append(live[:k], live[k+1:]...)
			} else {
				r := int(data[i+1] % fuzzMaxRelease)
				j := Job{Release: r, Deadline: r + int(data[i+2]%fuzzMaxSlack)}
				var id int
				for li, l := range lanes {
					got, err := l.sess.Add(j)
					if err != nil {
						t.Fatalf("Add(%v): %v", j, err)
					}
					if li == 0 {
						id = got
					} else if got != id {
						t.Fatalf("lanes assigned different ids %d and %d", id, got)
					}
				}
				live = append(live, id)
			}
			for _, l := range lanes {
				snapshot := l.sess.Instance()
				want, wantErr := l.cfg.Solve(snapshot)
				got, gotErr := l.sess.Resolve()
				if (wantErr == nil) != (gotErr == nil) {
					t.Fatalf("session err %v, scratch err %v (jobs %v procs %d)", gotErr, wantErr, snapshot.Jobs, procs)
				}
				if gotErr != nil {
					if !errors.Is(gotErr, ErrInfeasible) {
						t.Fatalf("session err %v, want ErrInfeasible", gotErr)
					}
					continue
				}
				cost := func(sol Solution) float64 {
					if l.cfg.Objective == ObjectivePower {
						return sol.Power
					}
					return float64(sol.Spans)
				}
				if cost(got) != cost(want) {
					t.Fatalf("session cost %v, scratch %v (jobs %v procs %d alpha %v)",
						cost(got), cost(want), snapshot.Jobs, procs, alpha)
				}
				if err := got.Schedule.Validate(snapshot); err != nil {
					t.Fatalf("session schedule invalid: %v (jobs %v)", err, snapshot.Jobs)
				}
				if got.ResolvedFragments+got.ReusedFragments != got.Subinstances {
					t.Fatalf("counters %d+%d != %d fragments",
						got.ResolvedFragments, got.ReusedFragments, got.Subinstances)
				}
			}
		}
	})
}

// FuzzHeuristicQuality certifies the heuristic tier against the exact
// tier on every decodable instance, for both objectives: the two tiers
// agree on feasibility; heuristic schedules are valid; the cost is
// sandwiched LowerBound ≤ exact ≤ heuristic (with the exact tier
// certifying itself: LowerBound == cost); cached heuristic solves are
// bit-identical to uncached ones; ModeAuto under an unbounded
// StateBudget is bit-for-bit the exact tier (cost, schedule, and
// counters), and under a negative budget bit-for-bit the heuristic.
func FuzzHeuristicQuality(f *testing.F) {
	seedFuzzCorpus(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		in, alpha, ok := decodeFuzzInstance(data)
		if !ok {
			t.Skip()
		}
		for _, base := range []Solver{
			{},
			{Objective: ObjectivePower, Alpha: alpha},
		} {
			cost := func(sol Solution) float64 { return base.Objective.Cost(sol) }
			exact := base
			h := base
			h.Mode = ModeHeuristic
			cached := h
			cached.Cache = NewFragmentCache(64)
			auto := base
			auto.Mode, auto.StateBudget = ModeAuto, math.MaxInt
			autoHeur := base
			autoHeur.Mode, autoHeur.StateBudget = ModeAuto, -1

			want, exactErr := exact.Solve(in)
			got, heurErr := h.Solve(in)
			if (exactErr == nil) != (heurErr == nil) {
				t.Fatalf("tiers disagree on feasibility: exact %v, heuristic %v (jobs %v procs %d)",
					exactErr, heurErr, in.Jobs, in.Procs)
			}
			if exactErr != nil {
				for name, err := range map[string]error{"exact": exactErr, "heuristic": heurErr} {
					if !errors.Is(err, ErrInfeasible) {
						t.Fatalf("%s failed with %v, want ErrInfeasible", name, err)
					}
				}
				continue
			}
			if err := got.Schedule.Validate(in); err != nil {
				t.Fatalf("heuristic schedule invalid: %v (jobs %v procs %d)", err, in.Jobs, in.Procs)
			}
			if got.LowerBound > cost(want)+1e-9 || cost(got) < cost(want)-1e-9 {
				t.Fatalf("sandwich violated: lb %v ≤ exact %v ≤ heur %v fails (jobs %v procs %d alpha %v)",
					got.LowerBound, cost(want), cost(got), in.Jobs, in.Procs, alpha)
			}
			if want.LowerBound != cost(want) {
				t.Fatalf("exact tier does not certify itself: lb %v, cost %v", want.LowerBound, cost(want))
			}

			hot, err := cached.Solve(in)
			if err != nil || cost(hot) != cost(got) || hot.LowerBound != got.LowerBound {
				t.Fatalf("cached heuristic drifted: %v/%v vs %v/%v (err %v)",
					cost(hot), hot.LowerBound, cost(got), got.LowerBound, err)
			}

			asExact, err := auto.Solve(in)
			if err != nil {
				t.Fatalf("auto(unbounded): %v", err)
			}
			if cost(asExact) != cost(want) || !reflect.DeepEqual(asExact.Schedule, want.Schedule) ||
				asExact.HeuristicFragments != 0 || asExact.States != want.States {
				t.Fatalf("auto(unbounded) differs from exact: cost %v vs %v (jobs %v procs %d)",
					cost(asExact), cost(want), in.Jobs, in.Procs)
			}
			asHeur, err := autoHeur.Solve(in)
			if err != nil {
				t.Fatalf("auto(-1): %v", err)
			}
			if cost(asHeur) != cost(got) || asHeur.LowerBound != got.LowerBound ||
				asHeur.HeuristicFragments != asHeur.Subinstances {
				t.Fatalf("auto(-1) differs from heuristic: %v/%v vs %v/%v",
					cost(asHeur), asHeur.LowerBound, cost(got), got.LowerBound)
			}
		}
	})
}

// FuzzPrunedExact certifies the branch-and-bound layer at the engine
// boundary on every decodable instance, both objectives: the bounded
// solve (greedy incumbent + per-node lower bounds, the default) must
// agree with the NoPrune ablation bit for bit — same feasibility
// verdict, same optimal cost, byte-identical schedule — and the
// NoPrune run must report zero pruned states, proving the disable
// switch really disables every cut.
func FuzzPrunedExact(f *testing.F) {
	seedFuzzCorpus(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		in, alpha, ok := decodeFuzzInstance(data)
		if !ok {
			t.Skip()
		}
		pruned, err1 := core.SolveGaps(in)
		plain, err2 := core.SolveGapsOpt(in, core.Options{NoPrune: true})
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("gaps feasibility disagreement: %v vs %v (jobs %v procs %d)", err1, err2, in.Jobs, in.Procs)
		}
		if err1 == nil {
			if pruned.Spans != plain.Spans || !reflect.DeepEqual(pruned.Schedule, plain.Schedule) {
				t.Fatalf("pruned gaps solve differs: %d vs %d (jobs %v procs %d)",
					pruned.Spans, plain.Spans, in.Jobs, in.Procs)
			}
			if plain.PrunedStates != 0 {
				t.Fatalf("NoPrune gaps run reported %d pruned states", plain.PrunedStates)
			}
		}

		pp, err1 := core.SolvePower(in, alpha)
		pl, err2 := core.SolvePowerOpt(in, alpha, core.Options{NoPrune: true})
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("power feasibility disagreement: %v vs %v (jobs %v procs %d α=%v)", err1, err2, in.Jobs, in.Procs, alpha)
		}
		if err1 == nil {
			if pp.Power != pl.Power || !reflect.DeepEqual(pp.Schedule, pl.Schedule) {
				t.Fatalf("pruned power solve differs: %v vs %v (jobs %v procs %d α=%v)",
					pp.Power, pl.Power, in.Jobs, in.Procs, alpha)
			}
			if pl.PrunedStates != 0 {
				t.Fatalf("NoPrune power run reported %d pruned states", pl.PrunedStates)
			}
		}
	})
}

// FuzzOnlineCommit certifies the online tier's commit contract on
// every decodable instance fed in release order, both objectives:
// once a slot is committed its assignment is bit-exact forever (also
// across Resolve, which projects but must not mutate); Resolve fails
// with ErrInfeasible exactly when the revealed prefix is infeasible by
// the Hall-condition oracle; and on feasible prefixes the online cost
// dominates the exact offline optimum of the revealed prefix, with a
// measured CompetitiveRatio ≥ 1.
func FuzzOnlineCommit(f *testing.F) {
	seedFuzzCorpus(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		in, alpha, ok := decodeFuzzInstance(data)
		if !ok {
			t.Skip()
		}
		jobs := append([]Job(nil), in.Jobs...)
		sort.SliceStable(jobs, func(a, b int) bool {
			if jobs[a].Release != jobs[b].Release {
				return jobs[a].Release < jobs[b].Release
			}
			return jobs[a].Deadline < jobs[b].Deadline
		})
		for _, lane := range []Solver{
			{},
			{Objective: ObjectivePower, Alpha: alpha},
		} {
			ss, err := lane.OpenOnline(in.Procs)
			if err != nil {
				t.Fatalf("OpenOnline: %v", err)
			}
			var prevSlots []sched.Assignment
			var prevDone []bool
			checkPrefix := func(when string) {
				slots, done := ss.onl.CommittedPrefix()
				for i, was := range prevDone {
					if !was {
						continue
					}
					if !done[i] || slots[i] != prevSlots[i] {
						t.Fatalf("%s: committed slot %d mutated: %+v/%v → %+v/%v (jobs %v procs %d)",
							when, i, prevSlots[i], was, slots[i], done[i], jobs, in.Procs)
					}
				}
				prevSlots, prevDone = slots, done
			}
			for k, j := range jobs {
				if _, err := ss.Add(j); err != nil {
					t.Fatalf("Add(%v): %v", j, err)
				}
				checkPrefix("after add")
				revealed := ss.Instance()
				feasible := exact.HallFeasible(revealed)
				sol, err := ss.Resolve()
				checkPrefix("after resolve")
				if feasible != (err == nil) {
					t.Fatalf("prefix %d: oracle says feasible=%v, Resolve err %v (jobs %v procs %d)",
						k, feasible, err, revealed.Jobs, in.Procs)
				}
				if err != nil {
					if !errors.Is(err, ErrInfeasible) {
						t.Fatalf("Resolve failed with %v, want ErrInfeasible", err)
					}
					continue
				}
				opt, err := lane.Solve(revealed)
				if err != nil {
					t.Fatalf("offline prefix solve: %v", err)
				}
				online, offline := lane.Objective.Cost(sol), lane.Objective.Cost(opt)
				if online < offline-1e-9 {
					t.Fatalf("online cost %v beats offline optimum %v (jobs %v procs %d alpha %v)",
						online, offline, revealed.Jobs, in.Procs, alpha)
				}
				if sol.CompetitiveRatio < 1-1e-12 {
					t.Fatalf("CompetitiveRatio %v < 1 (jobs %v procs %d)", sol.CompetitiveRatio, revealed.Jobs, in.Procs)
				}
				if err := sol.Schedule.Validate(revealed); err != nil {
					t.Fatalf("online schedule invalid: %v (jobs %v procs %d)", err, revealed.Jobs, in.Procs)
				}
			}
			ss.Close()
		}
	})
}

// FuzzWireDecode hardens the daemon's wire decoders against arbitrary
// request bodies: no sched.Decode* function may panic on any byte
// string, and every request a decoder accepts must survive a round
// trip — re-encoded and decoded again, it yields the same value (up to
// nil versus empty for omitempty lists, which JSON cannot tell apart).
func FuzzWireDecode(f *testing.F) {
	for _, seed := range []string{
		`{"jobs":[{"release":0,"deadline":2},{"release":1,"deadline":1}]}`,
		`{"objective":"power","alpha":2.5,"procs":2,"mode":"auto","stateBudget":-1,"jobs":[]}`,
		`{"requests":[{"jobs":[{"release":3,"deadline":4}]},{"objective":"nope","jobs":null}]}`,
		`{"mode":"heuristic","online":true,"jobs":[{"release":0,"deadline":0}]}`,
		`{"add":[{"release":5,"deadline":9}],"remove":[0,2]}`,
		`{"session":"s1","jobIds":[0,1],"jobs":2}`,
		`{"spans":1,"schedule":{"procs":1,"slots":[{"proc":0,"time":0}]},"timings":{"prepNs":5}}`,
		`{"responses":[{"error":{"code":"infeasible","message":"no"}}]}`,
		`{"jobs":[]} {}`,
		`{"jobs":[{"release":1e400}]}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		decode := func() io.Reader { return bytes.NewReader(data) }
		// Responses are decoded only by clients; they need only not panic.
		_, _ = sched.DecodeSolveResponse(decode())
		_, _ = sched.DecodeBatchResponse(decode())
		_, _ = sched.DecodeSessionResponse(decode())
		if req, err := sched.DecodeSolveRequest(decode()); err == nil {
			checkWireRoundTrip(t, req, sched.DecodeSolveRequest)
		}
		if req, err := sched.DecodeBatchRequest(decode()); err == nil {
			checkWireRoundTrip(t, req, sched.DecodeBatchRequest)
		}
		if req, err := sched.DecodeSessionCreateRequest(decode()); err == nil {
			if len(req.Jobs) == 0 {
				req.Jobs = nil
			}
			checkWireRoundTrip(t, req, sched.DecodeSessionCreateRequest)
		}
		if req, err := sched.DecodeSessionDeltaRequest(decode()); err == nil {
			if len(req.Add) == 0 {
				req.Add = nil
			}
			if len(req.Remove) == 0 {
				req.Remove = nil
			}
			checkWireRoundTrip(t, req, sched.DecodeSessionDeltaRequest)
		}
	})
}

// checkWireRoundTrip encodes an accepted request and decodes it with
// the decoder that accepted it, failing unless the decoder accepts the
// encoding and returns a value equal to req.
func checkWireRoundTrip[T any](t *testing.T, req T, decode func(io.Reader) (T, error)) {
	t.Helper()
	enc, err := json.Marshal(req)
	if err != nil {
		t.Fatalf("re-encoding accepted %T: %v", req, err)
	}
	got, err := decode(bytes.NewReader(enc))
	if err != nil {
		t.Fatalf("decoder rejected its own re-encoding %s: %v", enc, err)
	}
	if !reflect.DeepEqual(got, req) {
		t.Fatalf("round trip changed %T:\n got %#v\nwant %#v", req, got, req)
	}
}

func FuzzSolveGaps(f *testing.F) {
	seedFuzzCorpus(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		in, _, ok := decodeFuzzInstance(data)
		if !ok {
			t.Skip()
		}
		checkFuzzAgreement(t, Solver{}, in, func(sol Solution) float64 { return float64(sol.Spans) })
	})
}

func FuzzSolvePower(f *testing.F) {
	seedFuzzCorpus(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		in, alpha, ok := decodeFuzzInstance(data)
		if !ok {
			t.Skip()
		}
		s := Solver{Objective: ObjectivePower, Alpha: alpha}
		checkFuzzAgreement(t, s, in, func(sol Solution) float64 { return sol.Power })
	})
}
