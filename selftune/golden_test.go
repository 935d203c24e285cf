package selftune

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata")

// checkGolden compares got against testdata/name, or rewrites the file
// under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run go test -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden file (run go test -update after intentional changes)\n%s",
			name, firstDiff(string(want), string(got)))
	}
}

// TestLanedEventLogGolden pins the observer event stream of the laned
// scenario across commits: the fence-time merge order (timestamp, lane
// index, staging order) and every event's payload. The determinism
// tests compare worker counts within one build; this one compares
// builds.
func TestLanedEventLogGolden(t *testing.T) {
	log, steps := lanedScenario(t, WithCoreParallelism(1))
	checkGolden(t, "laned_events.golden", []byte(fmt.Sprintf("steps %d\n%s", steps, log)))
}

// TestSingleEngineEventLogGolden pins the same scenario on the
// single-engine machine, where events publish immediately instead of
// staging on lanes. The log is stored as its digest.
func TestSingleEngineEventLogGolden(t *testing.T) {
	log, steps := lanedScenario(t)
	checkGolden(t, "single_engine_events.sha256",
		[]byte(fmt.Sprintf("steps %d\nlog %x\n", steps, sha256.Sum256([]byte(log)))))
}

// sharedScenario drives a two-thread application (20 ms and 40 ms
// players) in one TuneShared reservation next to three tuned video
// neighbours, all on core 0 of a 2-CPU machine under work stealing,
// then migrates the group by hand. It returns one text record of the
// run: every observer event, the shared tuner's snapshots, thread
// periods and the machine's step and migration counts.
func sharedScenario(t *testing.T, opts ...Option) string {
	t.Helper()
	sys, err := NewSystem(append([]Option{
		WithSeed(16),
		WithCPUs(2),
		WithBalancer(BalanceWorkStealing()),
	}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	var log strings.Builder
	sys.Subscribe(eventLogger(&log))

	threads := []PlayerConfig{
		{
			Name:          "app:audio",
			Period:        20 * Millisecond,
			ReleaseJitter: 200 * Microsecond,
			MeanDemand:    Duration(0.08 * float64(20*Millisecond)),
			DemandJitter:  0.05,
			StartBurstMin: 4, StartBurstMax: 7,
			EndBurstMin: 4, EndBurstMax: 7,
		},
		{
			Name:          "app:video",
			Period:        40 * Millisecond,
			ReleaseJitter: 300 * Microsecond,
			MeanDemand:    Duration(0.18 * float64(40*Millisecond)),
			DemandJitter:  0.08,
			StartBurstMin: 6, StartBurstMax: 10,
			EndBurstMin: 6, EndBurstMax: 10,
		},
	}
	var app []*Handle
	for _, cfg := range threads {
		h, err := sys.Spawn("player", SpawnName(cfg.Name), SpawnPlayer(cfg), OnCore(0))
		if err != nil {
			t.Fatal(err)
		}
		app = append(app, h)
	}
	tuner, err := sys.TuneShared(app, []int{0, 1}, DefaultTunerConfig())
	if err != nil {
		t.Fatal(err)
	}
	handles := append([]*Handle(nil), app...)
	for i := 0; i < 3; i++ {
		h, err := sys.Spawn("video", SpawnName(fmt.Sprintf("vid%d", i)), SpawnUtil(0.15),
			OnCore(0), Tuned(DefaultTunerConfig()))
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	for _, h := range handles {
		h.Start(0)
	}
	sys.Run(6 * Second)
	if err := sys.Migrate(app[0], 1-app[0].Core().Index); err != nil {
		t.Fatalf("Migrate: %v", err)
	}
	sys.Run(6 * Second)

	for _, s := range tuner.Snapshots() {
		fmt.Fprintf(&log, "tick %+v\n", s)
	}
	fmt.Fprintf(&log, "threads %v steps %d migrations %d\n",
		tuner.ThreadPeriods(), sys.Steps(), sys.Migrations())
	return log.String()
}

// TestSharedTunerEventLogGolden pins the shared-reservation tuner
// (TuneShared) across commits, on the single-engine machine and on a
// laned one: its activations, its migration with the group, and every
// event the run publishes. The records are stored as digests.
func TestSharedTunerEventLogGolden(t *testing.T) {
	single := sharedScenario(t)
	laned := sharedScenario(t, WithCoreParallelism(1))
	checkGolden(t, "shared_tuner_events.sha256", []byte(fmt.Sprintf(
		"single-engine %x\nlaned %x\n", sha256.Sum256([]byte(single)), sha256.Sum256([]byte(laned)))))
}
