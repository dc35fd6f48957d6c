// Package wan models multi-region deployments for the WAN scenario suite:
// named regions, a pairwise RTT matrix, and replica→region placements
// ("topologies"), with helpers that turn a topology into per-link one-way
// delays for transport.Mesh (a deterministic fault injector) and
// transport.TCP (the writer-side LinkDelay shim).
//
// The package is pure arithmetic over the matrix — it reads no clocks and
// owns no goroutines — so it is held to the protocol determinism contract
// (cmd/protolint): the same topology and scale always yield the same delay
// schedule.
//
// Placement semantics follow the F3 experiment: a topology's Slots list is
// in deployment order, and a protocol that needs n processes occupies the
// first n slots (Prefix). This is what makes the paper's C5 claim
// measurable — on a one-region-per-slot spread, a protocol with a smaller
// fast quorum stops one region-hop earlier.
package wan

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/consensus"
)

// sites are the canonical deployment regions, in deployment order: a
// topology (or the F3 experiment) that needs r regions uses the first r
// entries. This is the single source of the region list; bench delegates
// here.
var sites = []string{
	"eu-west",  // proxy focus: Dublin
	"eu-cent",  // Frankfurt
	"us-east",  // Virginia
	"us-west",  // Oregon
	"ap-se",    // Singapore
	"sa-east",  // São Paulo
	"ap-ne",    // Tokyo
	"ap-south", // Mumbai
}

// siteRTT holds approximate public-cloud inter-region round-trip times in
// milliseconds (symmetric). Indexed like sites. Values are in the ballpark
// of published cloud latency matrices; the experiments' conclusions depend
// only on their relative order.
var siteRTT = [][]consensus.Duration{
	//            euW  euC  usE  usW  apSE saE  apNE apS
	{0, 25, 75, 130, 180, 185, 210, 125},   // eu-west
	{25, 0, 90, 145, 160, 200, 225, 110},   // eu-cent
	{75, 90, 0, 65, 215, 115, 145, 185},    // us-east
	{130, 145, 65, 0, 165, 175, 100, 220},  // us-west
	{180, 160, 215, 165, 0, 320, 70, 60},   // ap-se
	{185, 200, 115, 175, 320, 0, 255, 300}, // sa-east
	{210, 225, 145, 100, 70, 255, 0, 120},  // ap-ne
	{125, 110, 185, 220, 60, 300, 120, 0},  // ap-south
}

// Sites returns the canonical 8-region site list and RTT matrix (in
// milliseconds), as copies.
func Sites() ([]string, [][]consensus.Duration) {
	names := make([]string, len(sites))
	copy(names, sites)
	rtt := make([][]consensus.Duration, len(siteRTT))
	for i, row := range siteRTT {
		rtt[i] = make([]consensus.Duration, len(row))
		copy(rtt[i], row)
	}
	return names, rtt
}

// Topology is a geo deployment: a set of regions with pairwise RTTs and an
// ordered assignment of replica slots to regions. Slot i's process ID is i.
type Topology struct {
	// Name identifies the topology in bench tables and JSON reports.
	Name string
	// Regions are the region names, indexed by the values in Slots.
	Regions []string
	// RTT is the square, symmetric, zero-diagonal round-trip matrix
	// between regions, in milliseconds.
	RTT [][]consensus.Duration
	// Slots maps each replica slot (process ID) to a region index, in
	// deployment order: protocols needing n < len(Slots) processes use
	// Prefix(n).
	Slots []int
}

// Validate checks structural sanity: a square symmetric RTT matrix with a
// zero diagonal and non-negative entries, region names for every row, and
// every slot naming a valid region.
func (t Topology) Validate() error {
	r := len(t.Regions)
	if r == 0 {
		return fmt.Errorf("wan: topology %q has no regions", t.Name)
	}
	if len(t.RTT) != r {
		return fmt.Errorf("wan: topology %q: %d regions but %d RTT rows", t.Name, r, len(t.RTT))
	}
	for i, row := range t.RTT {
		if len(row) != r {
			return fmt.Errorf("wan: topology %q: RTT row %d has %d entries, want %d", t.Name, i, len(row), r)
		}
		if row[i] != 0 {
			return fmt.Errorf("wan: topology %q: RTT[%d][%d] = %d, diagonal must be 0", t.Name, i, i, row[i])
		}
		for j, d := range row {
			if d < 0 {
				return fmt.Errorf("wan: topology %q: RTT[%d][%d] = %d negative", t.Name, i, j, d)
			}
			if d != t.RTT[j][i] {
				return fmt.Errorf("wan: topology %q: RTT[%d][%d]=%d != RTT[%d][%d]=%d, matrix must be symmetric",
					t.Name, i, j, d, j, i, t.RTT[j][i])
			}
		}
	}
	if len(t.Slots) == 0 {
		return fmt.Errorf("wan: topology %q has no slots", t.Name)
	}
	for s, reg := range t.Slots {
		if reg < 0 || reg >= r {
			return fmt.Errorf("wan: topology %q: slot %d names region %d, have %d regions", t.Name, s, reg, r)
		}
	}
	return nil
}

// N returns the number of replica slots.
func (t Topology) N() int { return len(t.Slots) }

// Region returns the region name of a replica slot.
func (t Topology) Region(slot int) string { return t.Regions[t.Slots[slot]] }

// RTTBetween returns the round-trip time between two replica slots, in
// milliseconds. Slots in the same region are 0ms apart.
func (t Topology) RTTBetween(i, j int) consensus.Duration {
	return t.RTT[t.Slots[i]][t.Slots[j]]
}

// OneWayDelay returns the one-way link latency between two replica slots as
// a wall duration: RTT/2 milliseconds multiplied by scale. Scale < 1
// compresses the geography so timer-driven harnesses (chaos) stay fast;
// scale 1 is real milliseconds.
func (t Topology) OneWayDelay(i, j int, scale float64) time.Duration {
	return time.Duration(float64(t.RTTBetween(i, j)) / 2 * scale * float64(time.Millisecond))
}

// MaxOneWayDelay returns the largest scaled one-way latency between any two
// replica slots.
func (t Topology) MaxOneWayDelay(scale float64) time.Duration {
	var max time.Duration
	for i := range t.Slots {
		for j := range t.Slots {
			if d := t.OneWayDelay(i, j, scale); d > max {
				max = d
			}
		}
	}
	return max
}

// Delta returns the protocol's Δ, in ticks of one millisecond, for a
// cluster on this topology: three times the largest scaled round trip plus
// 100. Δ must dominate the round trip so that no protocol timer — and hence
// no recovery ballot — fires on a healthy run.
func (t Topology) Delta(scale float64) consensus.Duration {
	return consensus.Duration(3*(2*t.MaxOneWayDelay(scale)/time.Millisecond) + 100)
}

// Prefix returns the topology restricted to its first n slots (deployment
// order), for protocols needing fewer processes than the topology offers.
func (t Topology) Prefix(n int) (Topology, error) {
	if n < 1 || n > len(t.Slots) {
		return Topology{}, fmt.Errorf("wan: topology %q has %d slots, cannot take prefix %d", t.Name, len(t.Slots), n)
	}
	p := t
	p.Slots = t.Slots[:n]
	return p, nil
}

// QuorumRTT returns the round-trip time within which a process at slot
// `from` can assemble q replies (counting its own, at 0ms): the q-th
// smallest RTT to any slot. It is the analytical floor for a quorum-q
// protocol phase initiated at `from`, used by the bench to sanity-check
// measured latencies and by tests to rank protocols without running them.
func (t Topology) QuorumRTT(from, q int) consensus.Duration {
	rtts := make([]consensus.Duration, 0, len(t.Slots))
	for j := range t.Slots {
		rtts = append(rtts, t.RTTBetween(from, j))
	}
	sort.Slice(rtts, func(i, j int) bool { return rtts[i] < rtts[j] })
	if q < 1 {
		q = 1
	}
	if q > len(rtts) {
		q = len(rtts)
	}
	return rtts[q-1]
}

// presets are the named topologies of the WAN suite. geo3x*/geo5x* place
// replicas round-robin over 3 or 5 regions (the AWS-like multi-replica
// layouts, where co-located replicas soak up quorums locally); spread7 and
// spread9 place one replica per region in deployment order — the layout
// where a smaller fast quorum avoids a region hop, i.e. the paper's C5
// setting.
func presets() map[string]Topology {
	names, rtt := Sites()
	sub := func(r int) ([]string, [][]consensus.Duration) {
		m := make([][]consensus.Duration, r)
		for i := 0; i < r; i++ {
			m[i] = rtt[i][:r:r]
		}
		return names[:r:r], m
	}
	build := func(name string, regions int, slots []int) Topology {
		rn, rm := sub(regions)
		return Topology{Name: name, Regions: rn, RTT: rm, Slots: slots}
	}
	// The 3-region family uses eu-west, us-east, ap-se (indices 0, 2, 4 of
	// the canonical list): one site per continent, like a classic
	// EU/US/APAC deployment.
	triRegions := []string{names[0], names[2], names[4]}
	triRTT := [][]consensus.Duration{
		{0, rtt[0][2], rtt[0][4]},
		{rtt[2][0], 0, rtt[2][4]},
		{rtt[4][0], rtt[4][2], 0},
	}
	tri := func(name string, slots []int) Topology {
		return Topology{Name: name, Regions: triRegions, RTT: triRTT, Slots: slots}
	}
	return map[string]Topology{
		"geo3x5":  tri("geo3x5", []int{0, 1, 2, 0, 1}),
		"geo3x7":  tri("geo3x7", []int{0, 1, 2, 0, 1, 2, 0}),
		"geo3x9":  tri("geo3x9", []int{0, 1, 2, 0, 1, 2, 0, 1, 2}),
		"geo5x5":  build("geo5x5", 5, []int{0, 1, 2, 3, 4}),
		"geo5x7":  build("geo5x7", 5, []int{0, 1, 2, 3, 4, 0, 1}),
		"geo5x9":  build("geo5x9", 5, []int{0, 1, 2, 3, 4, 0, 1, 2, 3}),
		"spread7": build("spread7", 7, []int{0, 1, 2, 3, 4, 5, 6}),
		"spread9": build("spread9", 8, []int{0, 1, 2, 3, 4, 5, 6, 7, 0}),
	}
}

// Preset returns a named topology. See PresetNames for the list.
func Preset(name string) (Topology, error) {
	t, ok := presets()[name]
	if !ok {
		return Topology{}, fmt.Errorf("wan: unknown topology %q (have %v)", name, PresetNames())
	}
	return t, nil
}

// PresetNames lists the preset topology names, sorted.
func PresetNames() []string {
	ps := presets()
	out := make([]string, 0, len(ps))
	for name := range ps {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
