package topology

import (
	"sync"
	"testing"
	"time"
)

// collectEvents subscribes a recorder before any transitions fire.
type collectEvents struct {
	mu     sync.Mutex
	events []Event
}

func (c *collectEvents) record(e Event) {
	c.mu.Lock()
	c.events = append(c.events, e)
	c.mu.Unlock()
}

func (c *collectEvents) snapshot() []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Event(nil), c.events...)
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestSweepDetectsDeathAndPulseRecovers(t *testing.T) {
	topo := New(Config{Machines: 3, PulseTimeout: 100 * time.Millisecond})
	defer topo.Close()
	rec := &collectEvents{}
	topo.Subscribe(rec.record)

	base := time.Now()
	for m := 0; m < 3; m++ {
		topo.Pulse(m, base)
	}
	// Within the timeout nothing dies.
	if dead := topo.Sweep(base.Add(50 * time.Millisecond)); len(dead) != 0 {
		t.Fatalf("premature deaths: %v", dead)
	}
	// Machine 1 goes silent; the others keep pulsing.
	later := base.Add(200 * time.Millisecond)
	topo.Pulse(0, later)
	topo.Pulse(2, later)
	dead := topo.Sweep(later)
	if len(dead) != 1 || dead[0] != 1 {
		t.Fatalf("Sweep returned %v, want [1]", dead)
	}
	if topo.IsLive(1) || !topo.IsLive(0) || !topo.IsLive(2) {
		t.Fatalf("state after sweep: live=%v", topo.Live())
	}
	if got := topo.Live(); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("Live() = %v, want [0 2]", got)
	}
	// A re-sweep is idempotent: machine 1 is already dead, and 0/2
	// pulsed recently enough to stay live.
	if dead := topo.Sweep(later.Add(50 * time.Millisecond)); len(dead) != 0 {
		t.Fatalf("re-sweep killed %v", dead)
	}
	// A pulse from the dead machine is the recovery signal.
	epochBefore := topo.Epoch()
	topo.Pulse(1, later.Add(300*time.Millisecond))
	if !topo.IsLive(1) {
		t.Fatal("pulse did not recover machine 1")
	}
	if topo.Epoch() <= epochBefore {
		t.Fatal("recovery did not advance the epoch")
	}
	waitFor(t, "dead+recovered events", func() bool { return len(rec.snapshot()) >= 2 })
	evs := rec.snapshot()
	if evs[0] != (Event{Machine: 1, To: Dead}) || evs[1] != (Event{Machine: 1, To: Live}) {
		t.Fatalf("events %v, want dead(1) then live(1)", evs)
	}
}

func TestExplicitTransitions(t *testing.T) {
	topo := New(Config{Machines: 4})
	defer topo.Close()
	rec := &collectEvents{}
	topo.Subscribe(rec.record)

	topo.MarkDead(2)
	topo.MarkDead(2) // idempotent: no second event
	if topo.IsLive(2) {
		t.Fatal("MarkDead left machine live")
	}
	topo.MarkRecovered(2)
	topo.MarkRecovered(2)
	if !topo.IsLive(2) {
		t.Fatal("MarkRecovered left machine dead")
	}
	waitFor(t, "both transitions", func() bool { return len(rec.snapshot()) >= 2 })
	time.Sleep(5 * time.Millisecond) // allow any spurious duplicates to land
	if evs := rec.snapshot(); len(evs) != 2 {
		t.Fatalf("expected exactly 2 events, got %v", evs)
	}
	// A recovered machine survives an immediate sweep: its pulse window
	// restarted at recovery.
	if dead := topo.Sweep(time.Now()); len(dead) != 0 {
		t.Fatalf("sweep re-killed recovered machine: %v", dead)
	}
}

// TestMarkDeadHoldsAgainstPulses: a machine MarkDead took down ignores
// pulses (one sent before the kill may be delivered after it) until
// MarkRecovered, while a sweep-detected death still recovers on the
// next pulse.
func TestMarkDeadHoldsAgainstPulses(t *testing.T) {
	topo := New(Config{Machines: 3, PulseTimeout: 100 * time.Millisecond})
	defer topo.Close()
	now := time.Now()
	topo.MarkDead(1)
	topo.Pulse(1, now)
	if topo.IsLive(1) {
		t.Fatal("a pulse revived a machine MarkDead holds down")
	}
	topo.MarkRecovered(1)
	if !topo.IsLive(1) {
		t.Fatal("MarkRecovered left machine dead")
	}
	if dead := topo.Sweep(now.Add(time.Second)); len(dead) != 3 {
		t.Fatalf("sweep after silence retired %v, want all 3", dead)
	}
	topo.Pulse(1, now.Add(time.Second))
	if !topo.IsLive(1) {
		t.Fatal("a pulse did not recover a sweep-detected death")
	}
}

func TestPlace(t *testing.T) {
	live := []int{0, 1, 2, 3}
	// R=1 over a fully-live cluster is the identity layout.
	for s := 0; s < 4; s++ {
		if got := Place(s, 1, live); len(got) != 1 || got[0] != s {
			t.Fatalf("Place(%d,1) = %v, want [%d]", s, got, s)
		}
	}
	// Replicas land on distinct machines, wrapping.
	if got := Place(3, 2, live); got[0] != 3 || got[1] != 0 {
		t.Fatalf("Place(3,2) = %v, want [3 0]", got)
	}
	// R clamps to the live count; all entries stay distinct.
	got := Place(1, 9, []int{4, 7})
	if len(got) != 2 || got[0] != 7 || got[1] != 4 {
		t.Fatalf("Place clamp = %v, want [7 4]", got)
	}
	if Place(0, 2, nil) != nil {
		t.Fatal("empty live set must place nowhere")
	}
	// Deterministic: same inputs, same layout.
	a := Place(5, 3, []int{1, 2, 5, 8})
	b := Place(5, 3, []int{1, 2, 5, 8})
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic placement: %v vs %v", a, b)
		}
	}
}

func TestCloseStopsDelivery(t *testing.T) {
	topo := New(Config{Machines: 2})
	rec := &collectEvents{}
	topo.Subscribe(rec.record)
	topo.Close()
	topo.Close() // idempotent
	// Post-close transitions still update state but deliver nothing.
	topo.MarkDead(0)
	if topo.IsLive(0) {
		t.Fatal("post-close MarkDead lost")
	}
	time.Sleep(5 * time.Millisecond)
	if len(rec.snapshot()) != 0 {
		t.Fatal("event delivered after Close")
	}
}
