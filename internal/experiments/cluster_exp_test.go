package experiments

import (
	"strings"
	"testing"

	"repro/internal/simtime"
)

// TestClusterContentionFullSize is the acceptance scenario of the
// cluster work: 100 machines x 64 cores x 8 realms, with the surge
// realms tripling their arrival rate for the middle third of the run.
// The autoscaler must keep every realm's admission-reject fraction at
// or below its static-reservation baseline, cut the fleet-wide reject
// fraction strictly, and reduce cross-realm unfairness.
func TestClusterContentionFullSize(t *testing.T) {
	if testing.Short() {
		t.Skip("hundred-machine fleet is a long simulation")
	}
	r := ClusterContention(1, 100, 64, 8, 30*simtime.Second, 0)
	if len(r.Static.Realms) != 8 || len(r.Auto.Realms) != 8 {
		t.Fatalf("scenario shaped %d/%d realms, want 8", len(r.Static.Realms), len(r.Auto.Realms))
	}
	if r.Static.RejectFraction < 0.02 {
		t.Fatalf("static baseline rejected only %.4f; the surge lost its teeth", r.Static.RejectFraction)
	}
	for i := range r.Static.Realms {
		s, a := r.Static.Realms[i], r.Auto.Realms[i]
		if s.Name != a.Name {
			t.Fatalf("realm order diverged: %s vs %s", s.Name, a.Name)
		}
		if s.Arrived != a.Arrived {
			t.Fatalf("realm %s saw different arrival streams: %d vs %d — the comparison is not paired",
				s.Name, s.Arrived, a.Arrived)
		}
		if a.RejectFraction() > s.RejectFraction()+1e-9 {
			t.Errorf("realm %s: autoscaled reject fraction %.4f exceeds static %.4f",
				s.Name, a.RejectFraction(), s.RejectFraction())
		}
	}
	if r.Auto.RejectFraction >= r.Static.RejectFraction {
		t.Errorf("autoscaler did not cut fleet rejects: %.4f vs static %.4f",
			r.Auto.RejectFraction, r.Static.RejectFraction)
	}
	if r.Auto.Unfairness >= r.Static.Unfairness {
		t.Errorf("autoscaler did not cut unfairness: %.4f vs static %.4f",
			r.Auto.Unfairness, r.Static.Unfairness)
	}
	var grows int
	for _, st := range r.Auto.Realms {
		grows += st.Grows
	}
	if grows == 0 {
		t.Error("autoscaled run never grew a reservation")
	}
}

// TestClusterContentionScalesDown keeps the scenario's shape at a size
// the full test budget runs un-skipped, on 4 machine workers.
func TestClusterContentionScalesDown(t *testing.T) {
	r := ClusterContention(3, 12, 16, 4, 9*simtime.Second, 4)
	if r.Machines != 12 || r.Cores != 16 || r.RealmN != 4 {
		t.Fatalf("scenario shaped %d x %d x %d", r.Machines, r.Cores, r.RealmN)
	}
	if r.Static.RejectFraction == 0 {
		t.Fatal("small static baseline rejected nothing; the surge lost its teeth")
	}
	if r.Auto.RejectFraction > r.Static.RejectFraction {
		t.Errorf("autoscaler worsened rejects: %.4f vs %.4f",
			r.Auto.RejectFraction, r.Static.RejectFraction)
	}
	tbl := r.Table()
	for _, want := range []string{"static", "auto", "surge", "steady", "events/s"} {
		if !strings.Contains(tbl, want) {
			t.Errorf("table lacks %q:\n%s", want, tbl)
		}
	}
}
