package supervisor

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
	"repro/internal/simtime"
)

const ms = simtime.Millisecond

func TestGrantsInFullUnderCapacity(t *testing.T) {
	s := New(1)
	a, ok := s.Register("a", 0.01)
	if !ok {
		t.Fatal("register failed")
	}
	b, _ := s.Register("b", 0.01)
	qa := a.Request(20*ms, 100*ms)
	qb := b.Request(30*ms, 100*ms)
	if qa != 20*ms || qb != 30*ms {
		t.Errorf("grants %v,%v, want full 20ms,30ms", qa, qb)
	}
	if s.Saturated() {
		t.Error("supervisor claims saturation at 50% load")
	}
}

func TestCompressionUnderOverload(t *testing.T) {
	s := New(1)
	a, _ := s.Register("a", 0.05)
	b, _ := s.Register("b", 0.05)
	a.Request(80*ms, 100*ms)
	qb := b.Request(60*ms, 100*ms)
	if !s.Saturated() {
		t.Fatal("140% demand did not saturate")
	}
	if total := s.TotalGranted(); total > 1+1e-9 {
		t.Errorf("granted total %.4f > 1", total)
	}
	if qb >= 60*ms {
		t.Errorf("b granted %v, want compressed below request", qb)
	}
	if b.Granted() < 0.05 {
		t.Errorf("b granted %.4f below its minimum", b.Granted())
	}
}

func TestCompressionProportionalAboveFloors(t *testing.T) {
	s := New(1)
	a, _ := s.Register("a", 0.1)
	b, _ := s.Register("b", 0.1)
	a.Request(80*ms, 100*ms) // 0.8 requested
	b.Request(60*ms, 100*ms) // 0.6 requested, total 1.4
	// Residual above floors: 1 - 0.2 = 0.8, headrooms 0.7 and 0.5.
	wantA := 0.1 + 0.8*0.7/1.2
	wantB := 0.1 + 0.8*0.5/1.2
	if math.Abs(a.Granted()-wantA) > 1e-9 {
		t.Errorf("a granted %.4f, want %.4f", a.Granted(), wantA)
	}
	if math.Abs(b.Granted()-wantB) > 1e-9 {
		t.Errorf("b granted %.4f, want %.4f", b.Granted(), wantB)
	}
}

func TestCompressionNeverExceedsRequest(t *testing.T) {
	s := New(1)
	small, _ := s.Register("small", 0.3) // big floor, small request
	big, _ := s.Register("big", 0.0)
	small.Request(5*ms, 100*ms) // wants only 5%
	big.Request(200*ms, 200*ms) // wants 100%
	if small.Granted() > small.Requested()+1e-12 {
		t.Errorf("small granted %.4f above its request %.4f", small.Granted(), small.Requested())
	}
	if total := s.TotalGranted(); total > 1+1e-9 {
		t.Errorf("total granted %.4f", total)
	}
	// The big client should receive the rest of the CPU.
	if big.Granted() < 0.94 {
		t.Errorf("big granted %.4f, want ~0.95", big.Granted())
	}
}

func TestAdmissionControlOnMinimums(t *testing.T) {
	s := New(1)
	if _, ok := s.Register("a", 0.6); !ok {
		t.Fatal("first registration rejected")
	}
	if _, ok := s.Register("b", 0.5); ok {
		t.Error("registration accepted with Σ minimums > 1")
	}
	_, _, rejected := s.Stats()
	if rejected != 1 {
		t.Errorf("rejected = %d, want 1", rejected)
	}
}

func TestReleaseFreesBandwidth(t *testing.T) {
	s := New(1)
	a, _ := s.Register("a", 0)
	b, _ := s.Register("b", 0)
	a.Request(90*ms, 100*ms)
	qb := b.Request(90*ms, 100*ms)
	if qb >= 90*ms {
		t.Fatalf("b granted %v despite contention", qb)
	}
	a.Release()
	qb = b.Request(90*ms, 100*ms)
	if qb != 90*ms {
		t.Errorf("after release, b granted %v, want 90ms", qb)
	}
}

func TestUnregister(t *testing.T) {
	s := New(1)
	a, _ := s.Register("a", 0.2)
	s.Unregister(a)
	if _, ok := s.Register("b", 0.9); !ok {
		t.Error("bandwidth of unregistered client not freed")
	}
	defer func() {
		if recover() == nil {
			t.Error("request on unregistered client did not panic")
		}
	}()
	a.Request(10*ms, 100*ms)
}

func TestULubBelowOne(t *testing.T) {
	s := New(0.7)
	a, _ := s.Register("a", 0)
	q := a.Request(90*ms, 100*ms)
	if got := float64(q) / float64(100*ms); math.Abs(got-0.7) > 1e-9 {
		t.Errorf("granted %.3f, want capped at U_lub=0.7", got)
	}
}

func TestInvalidULubPanics(t *testing.T) {
	for _, u := range []float64{0, -1, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%v) did not panic", u)
				}
			}()
			New(u)
		}()
	}
}

func TestQuickInvariants(t *testing.T) {
	// Property: for arbitrary request patterns, (1) Σ granted ≤ U_lub,
	// (2) granted ≤ requested per client, (3) granted ≥ min(floor,
	// requested) per client.
	check := func(seed uint64) bool {
		r := rng.New(seed)
		s := New(1)
		n := 1 + r.Intn(6)
		clients := make([]*Client, 0, n)
		var floorSum float64
		for i := 0; i < n; i++ {
			floor := r.Float64() * 0.3
			if floorSum+floor > 1 {
				floor = 0
			}
			c, ok := s.Register("c", floor)
			if ok {
				floorSum += floor
				clients = append(clients, c)
			}
		}
		if len(clients) == 0 {
			return true
		}
		for step := 0; step < 20; step++ {
			c := clients[r.Intn(len(clients))]
			if r.Bool(0.1) {
				c.Release()
				continue
			}
			period := simtime.Duration(1+r.Intn(200)) * ms
			budget := simtime.Duration(r.Int63n(int64(period))) + 1
			c.Request(budget, period)
			var sum float64
			for _, cl := range clients {
				g := cl.Granted()
				req := cl.Requested()
				if g > req+1e-9 {
					t.Logf("seed %d: granted %v > requested %v", seed, g, req)
					return false
				}
				sum += g
			}
			if sum > s.ULub()+1e-9 {
				t.Logf("seed %d: total granted %v", seed, sum)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestStatsCounters(t *testing.T) {
	s := New(1)
	a, _ := s.Register("a", 0)
	b, _ := s.Register("b", 0)
	a.Request(50*ms, 100*ms)
	b.Request(80*ms, 100*ms) // forces compression
	grants, compressed, _ := s.Stats()
	if grants != 2 {
		t.Errorf("grants = %d, want 2", grants)
	}
	if compressed != 1 {
		t.Errorf("compressed = %d, want 1", compressed)
	}
}
