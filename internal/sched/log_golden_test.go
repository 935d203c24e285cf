package sched_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/simtime"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata")

// logScenario runs two schedulers sharing one engine, with logging on,
// through every path that writes to the scheduler log:
//
//   - a hard server whose jobs overrun their budget (exhaust, throttle,
//     replenish), resized by SetParams and then moved to core B while
//     throttled (MoveAll: detach, adopt);
//   - a soft server whose jobs overrun too (exhaust, deadline postponed);
//   - a hard server idle long enough for the CBS wake-up rule to hand it
//     a fresh pair (replenish at wakeup);
//   - two best-effort hogs sharing the CPU round robin, one of which
//     moves to core B (MoveAll: detachTask, adoptTask).
//
// It returns both logs, core A's first.
func logScenario(t *testing.T) string {
	t.Helper()
	eng := sim.New()
	a := sched.New(sched.Config{Engine: eng, BEQuantum: 4 * ms, LogCapacity: 1 << 12, PIDBase: 1000})
	b := sched.New(sched.Config{Engine: eng, BEQuantum: 4 * ms, LogCapacity: 1 << 12, PIDBase: 2000})

	hard := a.NewServer("hard", 2*ms, 10*ms, sched.HardCBS)
	h := a.NewTask("h")
	h.AttachTo(hard, 0)
	startPeriodic(eng, h, 3*ms, 20*ms, 0)

	soft := a.NewServer("soft", 3*ms, 15*ms, sched.SoftCBS)
	s := a.NewTask("s")
	s.AttachTo(soft, 0)
	startPeriodic(eng, s, 5*ms, 30*ms, simtime.Time(ms))

	sparse := a.NewServer("sparse", ms, 10*ms, sched.HardCBS)
	sp := a.NewTask("sp")
	sp.AttachTo(sparse, 0)
	startPeriodic(eng, sp, ms/2, 70*ms, simtime.Time(2*ms))

	var hogs [2]*sched.Task
	for i := range hogs {
		hog := a.NewTask(fmt.Sprintf("be%d", i))
		hogs[i] = hog
		eng.At(0, func() { hog.Release(hog.NewJob(0, 60*ms, simtime.Never)) })
	}
	local := b.NewTask("local")
	eng.At(simtime.Time(5*ms), func() { local.Release(local.NewJob(0, 10*ms, simtime.Never)) })

	eng.At(simtime.Time(45*ms), func() { hard.SetParams(ms+ms/2, 10*ms) })
	eng.At(simtime.Time(83*ms), func() {
		if err := a.MoveAll(single(hard), b, nil); err != nil {
			t.Fatal(err)
		}
	})
	eng.At(simtime.Time(101*ms), func() {
		if err := a.MoveAll(sched.Group{Tasks: []*sched.Task{hogs[1]}}, b, nil); err != nil {
			t.Fatal(err)
		}
	})
	eng.RunUntil(simtime.Time(200 * ms))

	var out strings.Builder
	for _, c := range []struct {
		name string
		sd   *sched.Scheduler
	}{{"A", a}, {"B", b}} {
		entries := c.sd.Log().Entries()
		fmt.Fprintf(&out, "core %s: %d entries, %d dropped\n", c.name, len(entries), c.sd.Log().Dropped())
		for _, e := range entries {
			fmt.Fprintln(&out, e)
		}
	}
	return out.String()
}

// TestSchedulerLogGolden pins the full text of the scheduler log across
// commits: the formatting of every entry kind and the order in which
// the scheduler writes them. The scenario must reach each site that
// writes an entry; the markers below name one distinctive fragment per
// site, so a scenario edit that stops reaching one fails here.
func TestSchedulerLogGolden(t *testing.T) {
	got := logScenario(t)
	for _, marker := range []string{
		" dispatch ",                      // Scheduler.start
		" release ",                       // Task.Release
		" complete ",                      // Task.completeCurrent
		" exhaust srv=hard ",              // Server.exhaust, hard
		" exhaust srv=soft ",              // Server.exhaust, soft
		" throttle srv=",                  // Server.throttle
		" replenish srv=hard q=",          // Server.replenish
		" replenish srv=sparse wakeup q=", // Server.taskWoke, fresh pair
		" wakeup srv=",                    // Server.taskWoke
		" params srv=hard Q=",             // Server.SetParams
		" params srv=hard detached ",      // Scheduler.detach
		" params srv=hard adopted ",       // Scheduler.adopt
		" params task=be1 detached ",      // Scheduler.detachTask
		" params task=be1 adopted ",       // Scheduler.adoptTask
	} {
		if !strings.Contains(got, marker) {
			t.Errorf("scenario log lacks %q", marker)
		}
	}
	path := filepath.Join("testdata", "scheduler_log.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run go test -update): %v", err)
	}
	if !bytes.Equal([]byte(got), want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("scheduler log drifted from testdata/scheduler_log.golden at line %d:\n got: %s\nwant: %s",
					i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("scheduler log drifted from testdata/scheduler_log.golden: %d lines, want %d", len(gl), len(wl))
	}
}
