package sched_test

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/simtime"
)

// TestGroupMigrationCarriesEveryMember moves a mixed group — two live
// CBS servers and one bare best-effort task with backlog — across
// cores and checks that the claim runs while every member is still on
// the old core and that every member arrives with its state intact.
func TestGroupMigrationCarriesEveryMember(t *testing.T) {
	eng, a, b := twoCores(t)
	s1 := a.NewServer("g1", 10*ms, 100*ms, sched.HardCBS)
	t1 := a.NewTask("g1")
	t1.AttachTo(s1, 0)
	startPeriodic(eng, t1, 10*ms, 100*ms, 0)
	s2 := a.NewServer("g2", 20*ms, 80*ms, sched.HardCBS)
	t2 := a.NewTask("g2")
	t2.AttachTo(s2, 0)
	startPeriodic(eng, t2, 20*ms, 80*ms, 0)
	bare := a.NewTask("bare")
	eng.At(0, func() {
		bare.Release(bare.NewJob(0, 300*ms, simtime.Never))
	})

	eng.RunUntil(simtime.Time(210 * ms))
	g := sched.Group{Servers: []*sched.Server{s1, s2}, Tasks: []*sched.Task{bare}}
	bwBefore := g.Bandwidth()
	q1, d1 := s1.RemainingBudget(), s1.Deadline()
	consumedBefore := bare.Stats().Consumed

	claim := func() error {
		if !a.Owns(s1) || !a.Owns(s2) || !slices.Contains(a.Tasks(), bare) ||
			b.Owns(s1) || b.Owns(s2) || slices.Contains(b.Tasks(), bare) {
			t.Error("claim ran after a member left the old core")
		}
		return nil
	}
	if err := a.MoveAll(g, b, claim); err != nil {
		t.Fatalf("MoveAll: %v", err)
	}
	if !b.Owns(s1) || !b.Owns(s2) || a.Owns(s1) || a.Owns(s2) {
		t.Fatal("servers not owned by the new core alone")
	}
	if got := g.Bandwidth(); got != bwBefore {
		t.Errorf("group bandwidth changed across migration: %v -> %v", bwBefore, got)
	}
	if s1.RemainingBudget() != q1 || s1.Deadline() != d1 {
		t.Errorf("server state changed: q %v->%v d %v->%v", q1, s1.RemainingBudget(), d1, s1.Deadline())
	}

	eng.RunUntil(simtime.Time(2 * simtime.Second))
	if st := t1.Stats(); st.Missed != 0 || st.Completed < 15 {
		t.Errorf("g1 after migration: completed=%d missed=%d", st.Completed, st.Missed)
	}
	if st := t2.Stats(); st.Missed != 0 || st.Completed < 15 {
		t.Errorf("g2 after migration: completed=%d missed=%d", st.Completed, st.Missed)
	}
	// The bare task kept its backlog and finished on the new core.
	if got := bare.Stats().Completed; got != 1 {
		t.Errorf("bare task completed=%d on the new core", got)
	}
	if got := bare.Stats().Consumed; got <= consumedBefore {
		t.Error("bare task never ran on the new core")
	}
	if err := a.Validate(); err != nil {
		t.Errorf("old core: %v", err)
	}
	if err := b.Validate(); err != nil {
		t.Errorf("new core: %v", err)
	}
}

// TestDetachAllValidatesBeforeMutating: a group with one foreign member
// must leave every member untouched.
func TestDetachAllValidatesBeforeMutating(t *testing.T) {
	_, a, b := twoCores(t)
	mine := a.NewServer("mine", 10*ms, 100*ms, sched.HardCBS)
	foreign := b.NewServer("foreign", 10*ms, 100*ms, sched.HardCBS)
	g := sched.Group{Servers: []*sched.Server{mine, foreign}}
	if err := a.DetachAll(g); err == nil {
		t.Fatal("DetachAll with a foreign server succeeded")
	}
	if !a.Owns(mine) {
		t.Error("valid member detached by a failed DetachAll")
	}
	if err := a.DetachAll(sched.Group{}); err == nil {
		t.Error("DetachAll of an empty group succeeded")
	}
	// A task inside a reservation may not be listed as a bare task.
	attached := a.NewTask("attached")
	attached.AttachTo(mine, 0)
	if err := a.DetachAll(sched.Group{Tasks: []*sched.Task{attached}}); err == nil {
		t.Error("DetachAll accepted a server-attached task as bare")
	}
	// Duplicate members are an error, not a post-validation panic.
	if err := a.DetachAll(sched.Group{Servers: []*sched.Server{mine, mine}}); err == nil {
		t.Error("DetachAll accepted a duplicated server")
	}
	if !a.Owns(mine) {
		t.Error("duplicate-member DetachAll moved the server")
	}
	bare := a.NewTask("bare")
	if err := a.DetachAll(sched.Group{Tasks: []*sched.Task{bare, bare}}); err == nil {
		t.Error("DetachAll accepted a duplicated task")
	}
}

// TestMoveAllValidatesBeforeMutating mirrors the detach side: one
// foreign or duplicated member, or a dispatch in progress on either
// scheduler, aborts the whole move before anything leaves.
func TestMoveAllValidatesBeforeMutating(t *testing.T) {
	eng, a, b := twoCores(t)
	s1 := a.NewServer("s1", 10*ms, 100*ms, sched.HardCBS)
	foreign := b.NewServer("foreign", 10*ms, 100*ms, sched.HardCBS)
	if err := a.MoveAll(sched.Group{Servers: []*sched.Server{s1, foreign}}, b, nil); err == nil {
		t.Fatal("MoveAll with a foreign server succeeded")
	}
	if !a.Owns(s1) {
		t.Error("valid member moved by a failed MoveAll")
	}
	if err := a.MoveAll(sched.Group{Servers: []*sched.Server{s1, s1}}, b, nil); err == nil {
		t.Error("MoveAll accepted a duplicated server")
	}
	// Job completion callbacks run inside dispatch: a move started
	// there, from either scheduler's dispatch, must be refused.
	var fromA, intoB error
	hookA, hookB := a.NewTask("hookA"), b.NewTask("hookB")
	hookA.OnJobComplete = func(*sched.Job, simtime.Time) { fromA = a.MoveAll(single(s1), b, nil) }
	hookB.OnJobComplete = func(*sched.Job, simtime.Time) { intoB = a.MoveAll(single(s1), b, nil) }
	eng.At(0, func() {
		hookA.Release(hookA.NewJob(0, ms, simtime.Never))
		hookB.Release(hookB.NewJob(0, ms, simtime.Never))
	})
	eng.RunUntil(simtime.Time(10 * ms))
	if fromA == nil || intoB == nil {
		t.Errorf("MoveAll inside dispatch: from a %v, into b %v; want both refused", fromA, intoB)
	}
	if !a.Owns(s1) {
		t.Fatal("a move refused inside dispatch moved the server")
	}
	if err := a.MoveAll(single(s1), b, nil); err != nil {
		t.Fatalf("MoveAll after fixing the group: %v", err)
	}
	if !b.Owns(s1) {
		t.Error("server not moved")
	}
}

// TestDetachTaskErrors covers the bare-task error surface of the group
// operations.
func TestDetachTaskErrors(t *testing.T) {
	_, a, b := twoCores(t)
	srv := a.NewServer("s", 10*ms, 100*ms, sched.HardCBS)
	attached := a.NewTask("attached")
	attached.AttachTo(srv, 0)
	bare := a.NewTask("bare")
	for name, g := range map[string]sched.Group{
		"foreign task":           {Tasks: []*sched.Task{b.NewTask("foreign")}},
		"nil task":               {Tasks: []*sched.Task{nil}},
		"server-attached task":   {Tasks: []*sched.Task{attached}},
		"task beside its server": {Servers: []*sched.Server{srv}, Tasks: []*sched.Task{attached}},
	} {
		if err := a.DetachAll(g); err == nil {
			t.Errorf("DetachAll of a group with a %s succeeded", name)
		}
		if err := a.MoveAll(g, b, nil); err == nil {
			t.Errorf("MoveAll of a group with a %s succeeded", name)
		}
	}
	if !a.Owns(srv) || !slices.Contains(a.Tasks(), attached) || !slices.Contains(a.Tasks(), bare) {
		t.Fatal("a refused group operation moved a member")
	}
	if err := a.MoveAll(sched.Group{Tasks: []*sched.Task{bare}}, b, nil); err != nil {
		t.Fatalf("MoveAll: %v", err)
	}
	if !slices.Contains(b.Tasks(), bare) {
		t.Error("bare task not on the destination after MoveAll")
	}
	if err := a.DetachAll(sched.Group{Tasks: []*sched.Task{bare}}); err == nil {
		t.Error("DetachAll of a task that already left succeeded")
	}
	if err := b.DetachAll(sched.Group{Tasks: []*sched.Task{bare}}); err != nil {
		t.Fatalf("DetachAll: %v", err)
	}
	if slices.Contains(b.Tasks(), bare) {
		t.Error("bare task still listed after DetachAll")
	}
	if err := b.DetachAll(sched.Group{Tasks: []*sched.Task{bare}}); err == nil {
		t.Error("double DetachAll of a bare task succeeded")
	}
}

// TestBareTaskMigrationMidSlice detaches a running best-effort task:
// accounting settles on the old core and the job finishes on the new.
func TestBareTaskMigrationMidSlice(t *testing.T) {
	eng, a, b := twoCores(t)
	task := a.NewTask("be")
	eng.At(0, func() {
		task.Release(task.NewJob(0, 40*ms, simtime.Never))
	})
	var migErr error
	eng.At(simtime.Time(13*ms), func() {
		migErr = a.MoveAll(sched.Group{Tasks: []*sched.Task{task}}, b, nil)
	})
	eng.RunUntil(simtime.Time(simtime.Second))
	if migErr != nil {
		t.Fatalf("migration: %v", migErr)
	}
	if got := task.Stats().Completed; got != 1 {
		t.Fatalf("job did not complete, completed=%d", got)
	}
	if got := a.BusyTime(); got != 13*ms {
		t.Errorf("old core busy %v, want 13ms", got)
	}
	if got := b.BusyTime(); got != 27*ms {
		t.Errorf("new core busy %v, want 27ms", got)
	}
}

// TestMoveAllRandomRefusals moves a random group at a random instant
// between two schedulers sharing one engine, with a commit that
// refuses half the time. A refusal must return the commit's error and
// leave both schedulers' server and task lists as they were, so their
// reserved bandwidth sums to the same float; an accepted move must put
// every member on the destination. Either way every member keeps its
// CBS state, PID, backlog and server. Every parameter is a whole
// number of milliseconds and every move falls half-way between two,
// so no slice ends, job completes or replenishment fires at the move
// instant itself.
func TestMoveAllRandomRefusals(t *testing.T) {
	errRefused := errors.New("refused")
	refusals := 0
	for seed := uint64(1); seed <= 300; seed++ {
		r := rng.New(seed)
		eng, a, b := twoCores(t)
		var srvs []*sched.Server
		for i, n := 0, 1+r.Intn(4); i < n; i++ {
			on := a
			if i > 0 && r.Bool(0.3) {
				on = b
			}
			period := simtime.Duration(5+r.Intn(96)) * ms
			mode := sched.HardCBS
			if r.Bool(0.5) {
				mode = sched.SoftCBS
			}
			srv := on.NewServer(fmt.Sprintf("s%d", i), simtime.Duration(1+r.Int63n(int64(period/ms)-1))*ms, period, mode)
			for k, n := 0, 1+r.Intn(2); k < n; k++ {
				task := on.NewTask(fmt.Sprintf("s%d.%d", i, k))
				task.AttachTo(srv, k)
				startPeriodic(eng, task, simtime.Duration(1+r.Intn(5))*ms,
					simtime.Duration(10+r.Intn(91))*ms, simtime.Time(r.Intn(20))*simtime.Time(ms))
			}
			srvs = append(srvs, srv)
		}
		var bare []*sched.Task
		for i, n := 0, r.Intn(3); i < n; i++ {
			on := a
			if r.Bool(0.3) {
				on = b
			}
			task := on.NewTask(fmt.Sprintf("be%d", i))
			for k, n := 0, 1+r.Intn(3); k < n; k++ {
				demand := simtime.Duration(5+r.Intn(50)) * ms
				eng.At(0, func() { task.Release(task.NewJob(0, demand, simtime.Never)) })
			}
			bare = append(bare, task)
		}
		var g sched.Group
		for _, srv := range srvs {
			if a.Owns(srv) && r.Bool(0.5) {
				g.Servers = append(g.Servers, srv)
			}
		}
		for _, task := range bare {
			if slices.Contains(a.Tasks(), task) && r.Bool(0.5) {
				g.Tasks = append(g.Tasks, task)
			}
		}
		if g.Empty() {
			g.Servers = srvs[:1]
		}
		members := slices.Clone(g.Tasks)
		for _, srv := range g.Servers {
			members = append(members, srv.Tasks()...)
		}
		refuse := r.Bool(0.5)
		at := simtime.Time(1+r.Intn(199))*simtime.Time(ms) + simtime.Time(ms/2)

		eng.At(at, func() {
			type srvState struct {
				d        simtime.Time
				q        simtime.Duration
				bw       float64
				runnable bool
			}
			state := func(srv *sched.Server) srvState {
				runnable := slices.ContainsFunc(srv.Tasks(), func(t *sched.Task) bool { return t.Backlog() > 0 })
				return srvState{srv.Deadline(), srv.RemainingBudget(), srv.Bandwidth(), runnable}
			}
			type taskState struct {
				pid, backlog int
				srv          *sched.Server
			}
			srvBefore := map[*sched.Server]srvState{}
			for _, srv := range g.Servers {
				srvBefore[srv] = state(srv)
			}
			taskBefore := map[*sched.Task]taskState{}
			for _, task := range members {
				taskBefore[task] = taskState{task.PID(), task.Backlog(), task.Server()}
			}
			aSrv, aTasks, aBW := slices.Clone(a.Servers()), slices.Clone(a.Tasks()), a.TotalReservedBandwidth()
			bSrv, bTasks, bBW := slices.Clone(b.Servers()), slices.Clone(b.Tasks()), b.TotalReservedBandwidth()

			err := a.MoveAll(g, b, func() error {
				if refuse {
					return errRefused
				}
				return nil
			})
			home, away := a, b
			if refuse {
				refusals++
				if !errors.Is(err, errRefused) {
					t.Fatalf("seed %d: MoveAll error %v, want the commit's refusal", seed, err)
				}
				for _, c := range []struct {
					name      string
					sd        *sched.Scheduler
					srvs      []*sched.Server
					tasks     []*sched.Task
					bandwidth float64
				}{{"source", a, aSrv, aTasks, aBW}, {"destination", b, bSrv, bTasks, bBW}} {
					if !slices.Equal(c.sd.Servers(), c.srvs) || !slices.Equal(c.sd.Tasks(), c.tasks) {
						t.Fatalf("seed %d: refused move changed the %s's servers or tasks", seed, c.name)
					}
					if got := c.sd.TotalReservedBandwidth(); got != c.bandwidth {
						t.Fatalf("seed %d: refused move changed the %s's reserved bandwidth %v -> %v",
							seed, c.name, c.bandwidth, got)
					}
				}
			} else {
				if err != nil {
					t.Fatalf("seed %d: MoveAll: %v", seed, err)
				}
				home, away = b, a
			}
			for srv, was := range srvBefore {
				if !home.Owns(srv) || away.Owns(srv) {
					t.Fatalf("seed %d: server %s on the wrong scheduler (refused %v)", seed, srv.Name(), refuse)
				}
				// A server that moves with work pending resumes under the
				// CBS wake-up rule: its (q, d) survives only if q <=
				// (d-now)*Q/T, otherwise it gets (Q, now+T).
				want := was
				lead := int64(was.d.Sub(at))
				if !refuse && was.runnable && (lead <= 0 || int64(was.q)*int64(srv.Period()) > lead*int64(srv.Budget())) {
					want.q, want.d = srv.Budget(), at.Add(srv.Period())
				}
				if now := state(srv); now != want {
					t.Fatalf("seed %d: server %s state %+v -> %+v, want %+v", seed, srv.Name(), was, now, want)
				}
			}
			for task, was := range taskBefore {
				if !slices.Contains(home.Tasks(), task) || slices.Contains(away.Tasks(), task) {
					t.Fatalf("seed %d: task %s on the wrong scheduler (refused %v)", seed, task.Name(), refuse)
				}
				if now := (taskState{task.PID(), task.Backlog(), task.Server()}); now != was {
					t.Fatalf("seed %d: task %s state %+v -> %+v", seed, task.Name(), was, now)
				}
			}
			for _, sd := range []*sched.Scheduler{a, b} {
				if err := sd.Validate(); err != nil {
					t.Fatalf("seed %d: after the move: %v", seed, err)
				}
			}
		})
		eng.RunUntil(simtime.Time(500 * ms))
		for _, sd := range []*sched.Scheduler{a, b} {
			if err := sd.Validate(); err != nil {
				t.Fatalf("seed %d: at 500ms: %v", seed, err)
			}
		}
	}
	if refusals < 100 {
		t.Errorf("only %d of 300 moves refused", refusals)
	}
}

// TestRefusedMoveKeepsEDFOrder checks that a refused move keeps the
// EDF tie-break between servers with equal deadlines. A and B each
// get a 1ms job at t=0, so both servers hold the deadline 10ms and
// A's lower id runs it first. Moving A away and back with a refusing
// commit must not give it a fresh id, or B would now win the tie.
func TestRefusedMoveKeepsEDFOrder(t *testing.T) {
	run := func(move bool) []string {
		eng, a, b := twoCores(t)
		var order []string
		var tasks []*sched.Task
		for _, name := range []string{"A", "B"} {
			srv := a.NewServer(name, 2*ms, 10*ms, sched.HardCBS)
			task := a.NewTask(name)
			task.AttachTo(srv, 0)
			task.OnJobComplete = func(*sched.Job, simtime.Time) { order = append(order, name) }
			tasks = append(tasks, task)
		}
		eng.At(0, func() {
			for _, task := range tasks {
				task.Release(task.NewJob(0, 1*ms, simtime.Time(10*ms)))
			}
			if move {
				err := a.MoveAll(single(tasks[0].Server()), b, func() error { return errors.New("refused") })
				if err == nil {
					t.Fatal("MoveAll accepted a refusing commit")
				}
			}
		})
		eng.RunUntil(simtime.Time(20 * ms))
		for _, sd := range []*sched.Scheduler{a, b} {
			if err := sd.Validate(); err != nil {
				t.Fatal(err)
			}
		}
		return order
	}
	want := run(false)
	if !slices.Equal(want, []string{"A", "B"}) {
		t.Fatalf("without a move the jobs completed in order %v, want [A B]", want)
	}
	if got := run(true); !slices.Equal(got, want) {
		t.Errorf("after a refused move the jobs completed in order %v, want %v", got, want)
	}
}

// TestRefusedMoveKeepsBestEffortOrder checks that a refused move
// leaves the best-effort round robin exactly as it was. A, B and C
// each get a 1s job at t=0 and share the CPU in 10ms quanta. A move
// refused at 5ms, of an idle server that no best-effort task belongs
// to or of B itself, must neither change the order in which the round
// robin runs them nor cut the running task's quantum short: each task
// has the CPU time at 100ms it has without the move.
func TestRefusedMoveKeepsBestEffortOrder(t *testing.T) {
	run := func(move string) (string, [3]simtime.Duration) {
		eng, a, b := twoCores(t)
		idle := a.NewServer("idle", ms, 10*ms, sched.HardCBS)
		var tasks []*sched.Task
		for _, name := range []string{"A", "B", "C"} {
			tasks = append(tasks, a.NewTask(name))
		}
		eng.At(0, func() {
			for _, task := range tasks {
				task.Release(task.NewJob(0, simtime.Duration(simtime.Second), simtime.Never))
			}
		})
		if move != "" {
			eng.At(simtime.Time(5*ms), func() {
				g := single(idle)
				if move == "B" {
					g = sched.Group{Tasks: tasks[1:2]}
				}
				if err := a.MoveAll(g, b, func() error { return errors.New("refused") }); err == nil {
					t.Fatal("MoveAll accepted a refusing claim")
				}
			})
		}
		var order string
		for at := 10 * ms; at <= 60*ms; at += 10 * ms {
			eng.RunUntil(simtime.Time(at))
			order += a.Running().Name()
		}
		eng.RunUntil(simtime.Time(100 * ms))
		var cpu [3]simtime.Duration
		for i, task := range tasks {
			cpu[i] = task.Stats().Consumed
		}
		for _, sd := range []*sched.Scheduler{a, b} {
			if err := sd.Validate(); err != nil {
				t.Fatal(err)
			}
		}
		return order, cpu
	}
	want, wantCPU := run("")
	if want != "CBACBA" {
		t.Fatalf("without a move the round robin ran %s, want CBACBA", want)
	}
	for _, move := range []string{"idle", "B"} {
		got, cpu := run(move)
		if got != want {
			t.Errorf("after a refused move of %s the round robin ran %s, want %s", move, got, want)
		}
		if cpu != wantCPU {
			t.Errorf("after a refused move of %s A, B and C had %v of CPU at 100ms, want %v", move, cpu, wantCPU)
		}
	}
}
