package experiments

import (
	"testing"

	"repro/internal/simtime"
)

func TestMigrationContentionRebalanceAdmitsWhatStaticRejects(t *testing.T) {
	// The acceptance scenario of the cross-core work: on 8 cores the
	// fragmenting spawn sequence overflows frozen worst-fit placement,
	// and a single admission-triggered migration packs it.
	r := MigrationContention(42, 8, 2*simtime.Second)
	if r.AdmittedStatic >= r.Offered {
		t.Fatalf("static placement admitted the whole sequence (%d/%d); the scenario lost its teeth",
			r.AdmittedStatic, r.Offered)
	}
	if r.AdmittedRebalance != r.Offered {
		t.Errorf("rebalancing admission took %d/%d workloads, want all",
			r.AdmittedRebalance, r.Offered)
	}
	if r.AdmittedRebalance <= r.AdmittedStatic {
		t.Errorf("rebalance admitted %d, static %d: no win", r.AdmittedRebalance, r.AdmittedStatic)
	}
	if r.AdmissionMigrations != 1 {
		t.Errorf("admission used %d migrations, want exactly 1", r.AdmissionMigrations)
	}
	if r.RecoveryMigrations == 0 {
		t.Error("work-stealing policy performed no recovery migrations")
	}
	if r.RecoverySpreadEnd >= r.RecoverySpreadStart/2 {
		t.Errorf("recovery left spread %.3f of initial %.3f",
			r.RecoverySpreadEnd, r.RecoverySpreadStart)
	}
	if r.FramesDecoded == 0 {
		t.Error("no frames decoded during recovery")
	}
}

func TestMigrationContentionScalesDown(t *testing.T) {
	// The same sequence keeps its shape on smaller machines.
	r := MigrationContention(7, 4, simtime.Second)
	if r.AdmittedRebalance <= r.AdmittedStatic {
		t.Errorf("4 cores: rebalance admitted %d, static %d", r.AdmittedRebalance, r.AdmittedStatic)
	}
}

// TestMigrationContention64CoreStealingRecovery is the acceptance
// scenario of the work-stealing policy: 62 tenants consolidated on
// core 0 of a 64-core machine must reach a load spread of 0.15 within
// the 2s recovery window — single-move-per-tick policies manage ~9
// migrations and a spread near 1.0 in the same window.
func TestMigrationContention64CoreStealingRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("64-core recovery is a long simulation")
	}
	r := MigrationContention(1, 64, 2*simtime.Second)
	if r.RecoverySpreadStart < 0.8 {
		t.Fatalf("recovery started at spread %.3f; the consolidation lost its teeth", r.RecoverySpreadStart)
	}
	if r.RecoverySpreadEnd > 0.15 {
		t.Errorf("recovery left spread %.3f after 2s, want <= 0.15 under work stealing",
			r.RecoverySpreadEnd)
	}
	// De-consolidating 62 tenants takes at least one migration each
	// minus the one that may stay home.
	if r.RecoveryMigrations < 60 {
		t.Errorf("only %d recovery migrations for 62 consolidated tenants", r.RecoveryMigrations)
	}
	if r.FramesDecoded == 0 {
		t.Error("no frames decoded during recovery")
	}
}
