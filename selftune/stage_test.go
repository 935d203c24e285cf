package selftune_test

import (
	"cmp"
	"fmt"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"

	"repro/selftune"
)

// tagged is a staged event identified by its Source.
func tagged(at selftune.Time, tag string) selftune.Event {
	return selftune.Event{Kind: selftune.TunerTickEvent, At: at, Source: tag}
}

// replay collects the Sources of a drain, in delivery order.
func replay(drain func(func(*selftune.Event))) string {
	var got []string
	drain(func(e *selftune.Event) { got = append(got, e.Source) })
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
	got := replay(func(fn func(*selftune.Event)) { selftune.DrainMerged(stages, fn) })
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
	st.Drain(func(e *selftune.Event) { got = append(got, append([]float64(nil), e.Loads...)) })
	if len(got) != 2 || got[0][0] != 0.1 || got[0][1] != 0.2 || got[1][0] != 9 {
		t.Errorf("drained loads %v, want [[0.1 0.2] [9 9]]", got)
	}
}

// TestStageKeepsEventsStagedDuringDrain checks that an event observed
// back into a stage while it drains waits for the next drain instead
// of joining the current one, through DrainMerged and through Drain.
func TestStageKeepsEventsStagedDuringDrain(t *testing.T) {
	stages := make([]selftune.Stage, 2)
	stages[0].Observe(tagged(1, "a"))
	stages[1].Observe(tagged(2, "b"))
	got := replay(func(fn func(*selftune.Event)) {
		selftune.DrainMerged(stages, func(e *selftune.Event) {
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

	st := &stages[0]
	st.Observe(tagged(3, "c"))
	got = replay(func(fn func(*selftune.Event)) {
		st.Drain(func(e *selftune.Event) {
			fn(e)
			if e.Source == "c" {
				st.Observe(tagged(3, "again"))
			}
		})
	})
	if got != "c" {
		t.Errorf("single-stage drain %q, want %q", got, "c")
	}
	if got := replay(st.Drain); got != "again" {
		t.Errorf("next single-stage drain %q, want %q", got, "again")
	}
}

func TestStageDrainAllocatesNothing(t *testing.T) {
	stages := make([]selftune.Stage, 8)
	loads := []float64{0.5, 0.25}
	sink := func(*selftune.Event) {}
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

// staged is one generated event: its instant, its stage and its
// identity, which the test carries in the event's Count.
type staged struct {
	at        selftune.Time
	stage, id int
}

// drainIDs drains stages through DrainMerged and returns the identities
// of the delivered events in delivery order. during, if non-nil, runs
// after each delivery.
func drainIDs(stages []selftune.Stage, during func(*selftune.Event)) []int {
	var got []int
	selftune.DrainMerged(stages, func(e *selftune.Event) {
		got = append(got, e.Count)
		if during != nil {
			during(e)
		}
	})
	return got
}

// stableOrder returns the identities of evs stably sorted by instant,
// then stage; evs lists each stage's events in append order, stage by
// stage, so the stable sort keeps append order among ties.
func stableOrder(evs []staged) []int {
	evs = slices.Clone(evs)
	slices.SortStableFunc(evs, func(a, b staged) int {
		return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.stage, b.stage))
	})
	ids := make([]int, len(evs))
	for i, e := range evs {
		ids[i] = e.id
	}
	return ids
}

// TestDrainMergedMatchesStableSort drains 500 generated sets of 1–64
// stages holding 0–40 events each, their instants drawn from five
// values so that ties across and within stages dominate. The merged
// stream must equal a stable sort of the events by (At, stage index,
// append order). While draining, the test stages some events back,
// each at the instant being delivered into a random stage: those must
// wait for the next drain, which must deliver them in the same order
// and leave every stage empty.
func TestDrainMergedMatchesStableSort(t *testing.T) {
	r := rand.New(rand.NewPCG(31, 7))
	for trial := 0; trial < 500; trial++ {
		stages := make([]selftune.Stage, 1+r.IntN(64))
		var first []staged
		for i := range stages {
			ats := make([]selftune.Time, r.IntN(41))
			for k := range ats {
				ats[k] = selftune.Time(r.IntN(5))
			}
			slices.Sort(ats)
			for _, at := range ats {
				e := staged{at: at, stage: i, id: len(first)}
				first = append(first, e)
				stages[i].Observe(selftune.Event{At: at, Core: i, Count: e.id})
			}
		}
		var second []staged
		restage := func(e *selftune.Event) {
			if r.IntN(4) != 0 {
				return
			}
			i := r.IntN(len(stages))
			back := staged{at: e.At, stage: i, id: -1 - len(second)}
			second = append(second, back)
			stages[i].Observe(selftune.Event{At: back.at, Core: i, Count: back.id})
		}
		if got, want := drainIDs(stages, restage), stableOrder(first); !slices.Equal(got, want) {
			t.Fatalf("trial %d (%d stages): merged order %v, want %v", trial, len(stages), got, want)
		}
		// A stable sort by stage first restores each stage's append
		// order, which the expected order then sorts from.
		slices.SortStableFunc(second, func(a, b staged) int { return cmp.Compare(a.stage, b.stage) })
		if got, want := drainIDs(stages, nil), stableOrder(second); !slices.Equal(got, want) {
			t.Fatalf("trial %d: events staged during the drain came back as %v, want %v", trial, got, want)
		}
		if got := drainIDs(stages, nil); len(got) != 0 {
			t.Fatalf("trial %d: a third drain delivered %v", trial, got)
		}
	}
}

// BenchmarkDrainMerged measures the fence drain of the dense benchmark
// workload's shape: 64 core stages, each holding about 12 request
// completions at increasing instants within a 10 ms epoch. Only the
// drain is timed; the stages are refilled between iterations with the
// timer stopped. It reports ns per delivered event.
func BenchmarkDrainMerged(b *testing.B) {
	const cores, perStage = 64, 12
	r := rand.New(rand.NewPCG(1, 2))
	evs := make([][]selftune.Event, cores)
	total := 0
	for i := range evs {
		n := perStage - 2 + r.IntN(5)
		ats := make([]selftune.Time, n)
		for k := range ats {
			ats[k] = selftune.Time(r.IntN(int(10 * selftune.Millisecond)))
		}
		slices.Sort(ats)
		for _, at := range ats {
			evs[i] = append(evs[i], selftune.Event{
				Kind: selftune.RequestCompleteEvent, At: at, Core: i,
				Source: "web", Workload: "webserver", Latency: selftune.Millisecond,
			})
		}
		total += n
	}
	stages := make([]selftune.Stage, cores)
	fill := func() {
		for i := range stages {
			for _, e := range evs[i] {
				stages[i].Observe(e)
			}
		}
	}
	var sum selftune.Duration
	sink := func(e *selftune.Event) { sum += e.Latency }
	fill()
	selftune.DrainMerged(stages, sink) // grow the stages once
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		fill()
		b.StartTimer()
		selftune.DrainMerged(stages, sink)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*total), "ns/event")
	if sum == 0 {
		b.Fatal("no event delivered")
	}
}
