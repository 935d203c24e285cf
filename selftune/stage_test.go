package selftune_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/selftune"
)

// tagged is a staged event identified by its Source.
func tagged(at selftune.Time, tag string) selftune.Event {
	return selftune.Event{Kind: selftune.TunerTickEvent, At: at, Source: tag}
}

// replay collects the Sources of a drain, in delivery order.
func replay(drain func(func(selftune.Event))) string {
	var got []string
	drain(func(e selftune.Event) { got = append(got, e.Source) })
	return strings.Join(got, " ")
}

func TestStageDrainReplaysInAppendOrderAndResets(t *testing.T) {
	var st selftune.Stage
	for i, at := range []selftune.Time{30, 10, 20} {
		st.Observe(tagged(at, fmt.Sprint(i)))
	}
	if got := replay(st.Drain); got != "0 1 2" {
		t.Errorf("drain order %q, want append order", got)
	}
	if got := replay(st.Drain); got != "" {
		t.Errorf("second drain replayed %q", got)
	}
}

func TestDrainMergedOrdersByTimeIndexFIFO(t *testing.T) {
	stages := make([]selftune.Stage, 5) // 1 and 3 stay empty
	stages[4].Observe(tagged(5, "e0"))
	stages[4].Observe(tagged(10, "e1"))
	stages[4].Observe(tagged(10, "e2"))
	stages[2].Observe(tagged(10, "c0"))
	stages[2].Observe(tagged(10, "c1"))
	stages[2].Observe(tagged(20, "c2"))
	stages[0].Observe(tagged(10, "a0"))
	stages[0].Observe(tagged(30, "a1"))
	got := replay(func(fn func(selftune.Event)) { selftune.DrainMerged(stages, fn) })
	if want := "e0 a0 c0 c1 e1 e2 c2 a1"; got != want {
		t.Errorf("merged order %q, want %q", got, want)
	}
	for i := range stages {
		if got := replay(stages[i].Drain); got != "" {
			t.Errorf("stage %d still holds %q after the merged drain", i, got)
		}
	}
}

func TestStageCopiesLoadsAtObserve(t *testing.T) {
	var st selftune.Stage
	buf := []float64{0.1, 0.2}
	st.Observe(selftune.Event{Kind: selftune.CoreLoadEvent, Loads: buf})
	buf[0], buf[1] = 9, 9
	st.Observe(selftune.Event{Kind: selftune.CoreLoadEvent, Loads: buf})
	var got [][]float64
	st.Drain(func(e selftune.Event) { got = append(got, append([]float64(nil), e.Loads...)) })
	if len(got) != 2 || got[0][0] != 0.1 || got[0][1] != 0.2 || got[1][0] != 9 {
		t.Errorf("drained loads %v, want [[0.1 0.2] [9 9]]", got)
	}
}

// TestStageKeepsEventsStagedDuringDrain checks that an event observed
// back into a stage while it drains waits for the next drain instead
// of joining the current one.
func TestStageKeepsEventsStagedDuringDrain(t *testing.T) {
	stages := make([]selftune.Stage, 2)
	stages[0].Observe(tagged(1, "a"))
	stages[1].Observe(tagged(2, "b"))
	got := replay(func(fn func(selftune.Event)) {
		selftune.DrainMerged(stages, func(e selftune.Event) {
			fn(e)
			if e.Source == "a" {
				stages[1].Observe(tagged(1, "late"))
			}
		})
	})
	if got != "a b" {
		t.Errorf("first drain %q, want %q", got, "a b")
	}
	if got := replay(stages[1].Drain); got != "late" {
		t.Errorf("second drain %q, want %q", got, "late")
	}
}

func TestStageDrainAllocatesNothing(t *testing.T) {
	stages := make([]selftune.Stage, 8)
	loads := []float64{0.5, 0.25}
	sink := func(selftune.Event) {}
	fill := func() {
		for i := range stages {
			for k := 0; k < 16; k++ {
				stages[i].Observe(selftune.Event{At: selftune.Time(k * (i + 1)), Loads: loads})
			}
		}
	}
	fill()
	selftune.DrainMerged(stages, sink) // warm-up: grow the storage once
	if n := testing.AllocsPerRun(50, func() {
		fill()
		selftune.DrainMerged(stages, sink)
	}); n != 0 {
		t.Errorf("merged drain allocates %.1f times per run", n)
	}
	if n := testing.AllocsPerRun(50, func() {
		fill()
		for i := range stages {
			stages[i].Drain(sink)
		}
	}); n != 0 {
		t.Errorf("drain allocates %.1f times per run", n)
	}
}
