package cluster

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/selftune"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata")

// telemetryDigest runs the determinism scenario for 4 simulated seconds
// and renders the sha256 of every determinism witness: engine steps,
// the fleet snapshot, the cluster-scope collector and (when enabled)
// the machine-scope collector.
func telemetryDigest(t *testing.T, opts ...Option) []byte {
	t.Helper()
	c := buildDeterministic(t, opts...)
	defer c.Close()
	c.Run(4 * selftune.Second)
	digest := func(v any) string {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		return fmt.Sprintf("%x", sha256.Sum256(b))
	}
	var b bytes.Buffer
	fmt.Fprintf(&b, "steps %d\n", c.Steps())
	fmt.Fprintf(&b, "fleet %s\n", digest(c.Snapshot()))
	fmt.Fprintf(&b, "collector %s\n", digest(c.Collector().Snapshot()))
	if m := c.MachineCollector(); m != nil {
		fmt.Fprintf(&b, "machine %s\n", digest(m.Snapshot()))
	}
	return b.Bytes()
}

// TestTelemetryGolden pins the tick-barrier merge across commits: the
// digests of both collectors and the fleet snapshot for the
// determinism scenario, with request stats and machine telemetry, and
// with request stats only. The determinism tests compare parallelism
// levels within one build; this one compares builds.
func TestTelemetryGolden(t *testing.T) {
	cases := []struct {
		name string
		opts []Option
	}{
		{"stats_machine", []Option{WithRequestStats(), WithMachineTelemetry()}},
		{"stats_only", []Option{WithRequestStats()}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := telemetryDigest(t, append([]Option{WithParallelism(2)}, tc.opts...)...)
			path := filepath.Join("testdata", "telemetry_"+tc.name+".sha256")
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
				t.Errorf("%s drifted from golden file\ngot:\n%s\nwant:\n%s", path, got, want)
			}
		})
	}
}
