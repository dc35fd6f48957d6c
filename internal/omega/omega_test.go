package omega_test

import (
	"testing"

	"repro/internal/consensus"
	"repro/internal/omega"
)

// The detectors run one Beat/Heard schedule, as shard.Runtime drives them:
// each period every live process beats, and its heartbeat reaches every
// other live process in the same period — or, before GST, some a period
// late. p0 crashes at period 5 and p1 at period 20: the survivors trust p1
// in between and p2 at the end.
func TestDetectorConvergesOnLowestCorrect(t *testing.T) {
	const n, periods, gst = 5, 100, 30
	crashAt := map[int]int{0: 5, 1: 20}
	up := func(p, period int) bool {
		at, crashes := crashAt[p]
		return !crashes || period < at
	}
	detectors := make([]*omega.Detector, n)
	for i := range detectors {
		detectors[i] = omega.New(consensus.Config{ID: consensus.ProcessID(i), N: n, F: 2, E: 1, Delta: 10}, 0)
	}
	type link struct{ from, to int }
	var late []link
	for k := 0; k < periods; k++ {
		for p := 0; p < n; p++ {
			if up(p, k) {
				detectors[p].Beat()
			}
		}
		held := late
		late = nil
		for _, l := range held {
			if up(l.to, k) {
				detectors[l.to].Heard(consensus.ProcessID(l.from))
			}
		}
		for from := 0; from < n; from++ {
			for to := 0; to < n; to++ {
				switch {
				case to == from || !up(from, k) || !up(to, k):
				case k < gst && (from+to+k)%3 == 0:
					late = append(late, link{from, to})
				default:
					detectors[to].Heard(consensus.ProcessID(from))
				}
			}
		}
		if k == 19 {
			for i := 1; i < n; i++ {
				if got := detectors[i].Leader(); got != 1 {
					t.Errorf("period %d, detector %d: leader = %s, want p1", k, i, got)
				}
			}
		}
	}
	for i := 2; i < n; i++ {
		if got := detectors[i].Leader(); got != 2 {
			t.Errorf("detector %d: leader = %s, want p2", i, got)
		}
	}
}

func TestDetectorTrustsSelfWhenAlone(t *testing.T) {
	cfg := consensus.Config{ID: 3, N: 5, F: 2, E: 1, Delta: 10}
	d := omega.New(cfg, 2)
	// Without any heartbeats, after enough periods everyone below us is
	// suspected and we elect ourselves.
	for i := 0; i < 10; i++ {
		d.Beat()
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
