package gapsched_test

import (
	"fmt"

	gapsched "repro"
)

// ExampleMinimizeGaps demonstrates exact single-machine gap
// minimization (Theorem 1 with p = 1, Baptiste's problem): three jobs
// whose windows admit a two-span schedule.
func ExampleMinimizeGaps() {
	in := gapsched.NewInstance([]gapsched.Job{
		{Release: 0, Deadline: 2},
		{Release: 1, Deadline: 3},
		{Release: 8, Deadline: 9},
	})
	res, err := gapsched.MinimizeGaps(in)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("spans:", res.Spans, "gaps:", res.Gaps)
	// Output:
	// spans: 2 gaps: 1
}

// ExampleMinimizePower shows the idle-active bridging of Theorem 2: a
// gap of length 2 is cheaper to bridge than an α = 5 wake-up.
func ExampleMinimizePower() {
	in := gapsched.NewInstance([]gapsched.Job{
		{Release: 0, Deadline: 0},
		{Release: 3, Deadline: 3},
	})
	res, err := gapsched.MinimizePower(in, 5)
	if err != nil {
		fmt.Println(err)
		return
	}
	// 2 busy units + one α wake-up + 2 bridged idle units.
	fmt.Printf("power: %.0f\n", res.Power)
	// Output:
	// power: 9
}

// ExampleMinimizeGaps_multiprocessor shows Lemma 1's staircase: two
// simultaneous jobs need two processors, and the optimal schedule
// stacks them into a prefix.
func ExampleMinimizeGaps_multiprocessor() {
	in := gapsched.NewMultiprocInstance([]gapsched.Job{
		{Release: 0, Deadline: 0},
		{Release: 0, Deadline: 0},
		{Release: 1, Deadline: 1},
	}, 2)
	res, err := gapsched.MinimizeGaps(in)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("total wake-ups:", res.Spans)
	// Output:
	// total wake-ups: 2
}

// ExampleApproxMultiPower runs the Theorem 3 pipeline on a
// multi-interval instance.
func ExampleApproxMultiPower() {
	mi := gapsched.MultiInstance{Jobs: []gapsched.MultiJob{
		gapsched.MultiJobFromTimes(0, 1, 2, 3),
		gapsched.MultiJobFromTimes(0, 1, 2, 3),
		gapsched.MultiJobFromTimes(2, 3, 9),
	}}
	ms, st, err := gapsched.ApproxMultiPower(mi, 2, gapsched.ApproxOptions{})
	if err != nil {
		fmt.Println(err)
		return
	}
	if err := ms.Validate(mi); err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("spans:", st.Spans)
	// Output:
	// spans: 1
}

// ExampleMaxThroughput books the consultant of §6 for one working
// stretch: the greedy picks the longest fully-fillable interval.
func ExampleMaxThroughput() {
	tasks := gapsched.MultiInstance{Jobs: []gapsched.MultiJob{
		gapsched.MultiJobFromTimes(0),
		gapsched.MultiJobFromTimes(1),
		gapsched.MultiJobFromTimes(2),
		gapsched.MultiJobFromTimes(10),
	}}
	res, err := gapsched.MaxThroughput(tasks, 1)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("tasks done:", res.Jobs(), "in", res.Spans, "stretch")
	// Output:
	// tasks done: 3 in 1 stretch
}

// ExampleSolveArithmetic solves a homogeneous arithmetic family (the
// §2 corollary): each job's two intervals are one period apart.
func ExampleSolveArithmetic() {
	mi := gapsched.MultiInstance{Jobs: []gapsched.MultiJob{
		gapsched.NewMultiJob(gapsched.Interval{Lo: 0, Hi: 1}, gapsched.Interval{Lo: 10, Hi: 11}),
		gapsched.NewMultiJob(gapsched.Interval{Lo: 0, Hi: 1}, gapsched.Interval{Lo: 10, Hi: 11}),
	}}
	res, err := gapsched.SolveArithmetic(mi)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("spans:", res.Spans, "period:", res.Period)
	// Output:
	// spans: 1 period: 10
}

// ExampleSession_Apply keeps a session's solution current under one
// atomic delta: the delta re-solves only the fragment it touches, and
// a rejected delta changes nothing.
func ExampleSession_Apply() {
	sess, err := gapsched.Solver{Objective: gapsched.ObjectivePower, Alpha: 2}.Open(1)
	if err != nil {
		fmt.Println(err)
		return
	}
	defer sess.Close()
	ids, _, _ := sess.Apply([]gapsched.Job{
		{Release: 0, Deadline: 3},
		{Release: 1, Deadline: 4},   // same cluster
		{Release: 40, Deadline: 44}, // far away: own fragment
	}, nil)
	sol, _ := sess.Resolve()
	fmt.Println("power", sol.Power, "resolved", sol.ResolvedFragments, "reused", sol.ReusedFragments)

	// Drop the first job and add one next to it, in one delta.
	_, live, _ := sess.Apply([]gapsched.Job{{Release: 2, Deadline: 5}}, []int{ids[0]})
	sol, _ = sess.Resolve()
	fmt.Println("jobs", live, "power", sol.Power, "resolved", sol.ResolvedFragments, "reused", sol.ReusedFragments)

	// The first job is gone, so this delta is rejected whole.
	_, _, err = sess.Apply([]gapsched.Job{{Release: 9, Deadline: 9}}, []int{ids[0]})
	fmt.Println(err, "- jobs", sess.Len())
	// Output:
	// power 7 resolved 2 reused 0
	// jobs 3 power 7 resolved 1 reused 1
	// gapsched: session has no job 0 - jobs 3
}
