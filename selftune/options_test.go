package selftune_test

import (
	"testing"

	"repro/selftune"
)

func TestOptionValidation(t *testing.T) {
	bad := []struct {
		name string
		opt  selftune.Option
	}{
		{"WithULub(0)", selftune.WithULub(0)},
		{"WithULub(-0.5)", selftune.WithULub(-0.5)},
		{"WithULub(1.5)", selftune.WithULub(1.5)},
		{"WithCPUs(0)", selftune.WithCPUs(0)},
		{"WithCPUs(-2)", selftune.WithCPUs(-2)},
		{"WithTracerCapacity(0)", selftune.WithTracerCapacity(0)},
		{"WithTracerCapacity(-1)", selftune.WithTracerCapacity(-1)},
		{"WithLoadSampling(0)", selftune.WithLoadSampling(0)},
	}
	for _, tc := range bad {
		if _, err := selftune.NewSystem(tc.opt); err == nil {
			t.Errorf("%s: accepted, want error", tc.name)
		}
	}
}

// TestULubRejectedNotClamped is the regression test for the seed's
// silent clamping: out-of-range bounds must surface as errors from the
// options path.
func TestULubRejectedNotClamped(t *testing.T) {
	if _, err := selftune.NewSystem(selftune.WithULub(1.0001)); err == nil {
		t.Fatal("ULub > 1 accepted by WithULub")
	}
	sys := newSystem(t, selftune.WithULub(0.8))
	if got := sys.Core(0).Supervisor().ULub(); got != 0.8 {
		t.Errorf("ULub = %v, want 0.8", got)
	}
}

func TestOptionsApply(t *testing.T) {
	sys := newSystem(t,
		selftune.WithSeed(5),
		selftune.WithCPUs(3),
		selftune.WithULub(0.6),
		selftune.WithTracerCapacity(1024),
	)
	if got := sys.CPUs(); got != 3 {
		t.Fatalf("CPUs = %d, want 3", got)
	}
	for i := 0; i < sys.CPUs(); i++ {
		if got := sys.Core(i).Supervisor().ULub(); got != 0.6 {
			t.Errorf("core %d ULub = %v, want 0.6", i, got)
		}
	}
	// Distinct cores are distinct schedulers sharing one clock.
	if sys.Core(0).Scheduler() == sys.Core(1).Scheduler() {
		t.Error("cores share a scheduler")
	}
	if sys.Core(0).Scheduler().Engine() != sys.Core(1).Scheduler().Engine() {
		t.Error("cores do not share the engine")
	}
}

func TestNilOptionIgnored(t *testing.T) {
	sys := newSystem(t, nil, selftune.WithSeed(1), nil)
	if sys.CPUs() != 1 {
		t.Errorf("CPUs = %d", sys.CPUs())
	}
}
