package selftune

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
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
