package cluster

import (
	"runtime"
	"testing"

	"repro/selftune"
)

// TestClusterOptionValidation mirrors the machine-level option tests:
// every out-of-range value must surface as an error from New, never be
// clamped or deferred to run time.
func TestClusterOptionValidation(t *testing.T) {
	bad := []struct {
		name string
		opt  Option
	}{
		{"WithMachines(0)", WithMachines(0)},
		{"WithMachines(-2)", WithMachines(-2)},
		{"WithCores(0)", WithCores(0)},
		{"WithCores(-1)", WithCores(-1)},
		{"WithDetail(-1)", WithDetail(-1)},
		{"WithFleetBalanceInterval(0)", WithFleetBalanceInterval(0)},
		{"WithFleetBalanceInterval(-1s)", WithFleetBalanceInterval(-selftune.Second)},
		{"WithParallelism(0)", WithParallelism(0)},
		{"WithParallelism(-4)", WithParallelism(-4)},
		{"WithAutoscaler(negative interval)", WithAutoscaler(AutoscalerConfig{Every: -selftune.Second})},
		{"WithAutoscaler(GrowFactor 1)", WithAutoscaler(AutoscalerConfig{GrowFactor: 1})},
	}
	for _, tc := range bad {
		if _, err := New(tc.opt); err == nil {
			t.Errorf("%s: accepted, want error", tc.name)
		}
	}
}

func TestParallelismOption(t *testing.T) {
	// Explicit parallelism sticks...
	c, err := New(WithMachines(8), WithParallelism(3))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if got := c.Parallelism(); got != 3 {
		t.Errorf("Parallelism() = %d, want 3", got)
	}
	// ...but never exceeds the fleet: workers beyond the machine count
	// would never be dealt a machine.
	c, err = New(WithMachines(2), WithParallelism(64))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if got := c.Parallelism(); got != 2 {
		t.Errorf("Parallelism() = %d with 2 machines, want the cap 2", got)
	}
	// The default is GOMAXPROCS, likewise capped.
	c, err = New(WithMachines(1))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if got := c.Parallelism(); got != 1 {
		t.Errorf("default Parallelism() = %d on one machine, want 1", got)
	}
	want := runtime.GOMAXPROCS(0)
	if want > 128 {
		want = 128
	}
	c, err = New(WithMachines(128))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if got := c.Parallelism(); got != want {
		t.Errorf("default Parallelism() = %d, want min(GOMAXPROCS, machines) = %d", got, want)
	}
}

func TestMachineTelemetryOption(t *testing.T) {
	c := testCluster(t)
	if c.MachineCollector() != nil {
		t.Error("MachineCollector non-nil without WithMachineTelemetry")
	}
	c = testCluster(t, WithMachineTelemetry())
	if c.MachineCollector() == nil {
		t.Fatal("MachineCollector nil despite WithMachineTelemetry")
	}
	if c.MachineCollector() == c.Collector() {
		t.Error("machine and cluster collectors must be distinct")
	}
}
