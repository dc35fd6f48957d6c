package omega_test

import (
	"testing"

	"repro/internal/consensus"
	"repro/internal/omega"
	"repro/internal/sim"
)

func TestDetectorConvergesOnLowestCorrect(t *testing.T) {
	const n = 5
	delta := consensus.Duration(10)
	cl, err := sim.New(sim.Options{
		N:       n,
		Delta:   delta,
		Policy:  sim.NewPartialSync(delta, 0, delta, 1),
		Horizon: consensus.Time(100 * delta),
	})
	if err != nil {
		t.Fatal(err)
	}
	detectors := make([]*omega.Detector, n)
	for i := 0; i < n; i++ {
		cfg := consensus.Config{ID: consensus.ProcessID(i), N: n, F: 2, E: 1, Delta: delta}
		detectors[i] = omega.New(cfg, 0)
		cl.SetNode(consensus.ProcessID(i), detectors[i])
	}
	cl.ScheduleCrash(0, consensus.Time(5*delta))
	cl.ScheduleCrash(1, consensus.Time(20*delta))
	cl.Run(nil)

	for i := 2; i < n; i++ {
		if got := detectors[i].Leader(); got != 2 {
			t.Errorf("detector %d: leader = %s, want p2", i, got)
		}
	}
}

func TestDetectorTrustsSelfWhenAlone(t *testing.T) {
	cfg := consensus.Config{ID: 3, N: 5, F: 2, E: 1, Delta: 10}
	d := omega.New(cfg, 2)
	// Without any heartbeats, after enough epochs everyone below us is
	// suspected and we elect ourselves.
	for i := 0; i < 10; i++ {
		d.Tick(omega.TimerPeriod)
	}
	if got := d.Leader(); got != 3 {
		t.Fatalf("leader = %s, want self p3", got)
	}
}

func TestDetectorInitiallyTrustsLowest(t *testing.T) {
	cfg := consensus.Config{ID: 3, N: 5, F: 2, E: 1, Delta: 10}
	d := omega.New(cfg, 0)
	if got := d.Leader(); got != 0 {
		t.Fatalf("leader = %s, want p0 before any suspicion", got)
	}
}

// A host that owns the clock and the wire drives the detector through Beat
// and Heard alone: silence demotes, a heartbeat reinstates, and a sender
// outside the membership is nobody.
func TestBeatAndHeard(t *testing.T) {
	d := omega.New(consensus.Config{ID: 2, N: 3, F: 1, E: 1, Delta: 10}, 0)
	for i := 0; i <= omega.DefaultTimeoutPeriods; i++ {
		d.Beat()
		d.Heard(1)
	}
	if got := d.Leader(); got != 1 {
		t.Fatalf("p0 silent for %d periods, p1 heard every one: leader = %s", omega.DefaultTimeoutPeriods+1, got)
	}
	d.Heard(-1)
	d.Heard(3)
	if got := d.Leader(); got != 1 {
		t.Fatalf("a heartbeat from outside the membership moved the leader to %s", got)
	}
	if d.LeaderStable(1) {
		t.Fatal("an estimate that just changed reads as stable")
	}
	d.Heard(0)
	if got := d.Leader(); got != 0 {
		t.Fatalf("p0 heard again: leader = %s", got)
	}
}
