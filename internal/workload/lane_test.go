package workload

import (
	"sync"
	"testing"

	"repro/internal/sim"
)

// TestLaneMoveLeavesNoHandleOnTheOldLane moves a workload's timers
// between two lanes and checks that no slot keeps a handle into the
// old lane's event storage: the pending timer is re-armed on the new
// lane and the fired one is cleared. After the fence both lanes run
// concurrently, the old one recycling its storage while the workload
// schedules through its slots on the new one; under -race the second
// half of the test fails if a slot still reads the old lane's events.
func TestLaneMoveLeavesNoHandleOnTheOldLane(t *testing.T) {
	src, dst := sim.New(), sim.New()
	lt := &laneTimers{eng: src}
	fired := 0
	fn := func() { fired++ }
	lt.at(1, fn)
	lt.at(5, fn)
	src.RunUntil(2) // the first timer fires, the second stays pending
	dst.RunUntil(2)
	lt.move(dst)
	for i, s := range lt.slots {
		if !s.ev.Pending() && s.ev != (sim.Timer{}) {
			t.Errorf("slot %d keeps a fired timer's handle from the old lane", i)
		}
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 1000; i++ {
			a, b := src.After(1, fn), src.After(2, fn)
			src.Cancel(a)
			src.Cancel(b)
		}
	}()
	for i := 0; i < 1000; i++ {
		lt.at(lt.now().Add(1), fn)
		dst.Step()
	}
	wg.Wait()
	dst.Run()
	if fired != 1002 {
		t.Errorf("fired %d timers, want 1002", fired)
	}
}
