package selftune

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestConcurrentSubscribeCancelWhilePublishing hammers the observer
// bus from many goroutines — subscribers arriving, cancelling and
// being delivered to while a publisher streams events — and must run
// clean under the race detector. The simulation itself stays
// single-goroutine; this is the contract for external drainers that
// attach and detach collectors while a run publishes. The sampler is
// armed up front (first Subscribe below, engine idle), matching the
// documented caveat that arming it must not race a running engine.
func TestConcurrentSubscribeCancelWhilePublishing(t *testing.T) {
	sys, err := NewSystem(WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	var delivered atomic.Int64
	stopPub := make(chan struct{})
	var publisher, churners sync.WaitGroup

	publisher.Add(1)
	go func() {
		defer publisher.Done()
		for i := 0; ; i++ {
			select {
			case <-stopPub:
				return
			default:
			}
			sys.publish(&Event{Kind: BudgetExhaustedEvent, At: Time(i), Core: 0, Source: "srv"})
		}
	}()

	for g := 0; g < 8; g++ {
		churners.Add(1)
		go func() {
			defer churners.Done()
			for i := 0; i < 200; i++ {
				cancel := sys.Subscribe(ObserverFunc(func(Event) {
					delivered.Add(1)
				}))
				cancel()
			}
		}()
	}

	// One long-lived observer that must keep receiving throughout.
	got := make(chan struct{})
	var once sync.Once
	cancel := sys.Subscribe(ObserverFunc(func(Event) {
		once.Do(func() { close(got) })
	}))

	churners.Wait()
	<-got
	close(stopPub)
	publisher.Wait()
	cancel()

	// A final publish after every cancel must deliver to no one and
	// compact the list.
	before := delivered.Load()
	sys.publish(&Event{Kind: BudgetExhaustedEvent, Core: 0, Source: "srv"})
	if delivered.Load() != before {
		t.Error("cancelled observers still delivered to")
	}
	if live := len(sys.subscribers()); live != 0 {
		t.Errorf("%d subscriptions survive cancellation", live)
	}
}

// TestPublishCompactsOnlyAfterCancel checks that publish reads the
// subscription list without replacing it or allocating while no
// cancel is pending, and that the publish after a cancel drops the
// cancelled entry once.
func TestPublishCompactsOnlyAfterCancel(t *testing.T) {
	sys, err := NewSystem(WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	var kept, dropped int
	sys.Subscribe(ObserverFunc(func(Event) { kept++ }))
	cancel := sys.Subscribe(ObserverFunc(func(Event) { dropped++ }))
	list := sys.observers.Load()
	e := Event{Kind: BudgetExhaustedEvent, Core: 0, Source: "srv"}
	if n := testing.AllocsPerRun(10, func() { sys.publish(&e) }); n != 0 {
		t.Errorf("publish allocates %v times, want 0", n)
	}
	if sys.observers.Load() != list {
		t.Error("publish replaced the subscription list with no cancel pending")
	}
	cancel()
	cancel() // a second call drops nothing more
	sys.publish(&e)
	if got := len(sys.subscribers()); got != 1 {
		t.Errorf("%d subscriptions after the cancel, want 1", got)
	}
	list = sys.observers.Load()
	sys.publish(&e)
	if sys.observers.Load() != list {
		t.Error("a publish after the compaction replaced the list again")
	}
	if kept != 13 || dropped != 11 {
		t.Errorf("delivered %d and %d events, want 13 and 11", kept, dropped)
	}
}
