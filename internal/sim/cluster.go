package sim

import (
	"container/heap"
	"fmt"

	"repro/internal/consensus"
	"repro/internal/trace"
)

// Options configures a simulated cluster.
type Options struct {
	// N is the number of processes.
	N int
	// Delta is the round length Δ in ticks.
	Delta consensus.Duration
	// Policy decides message delays. Required.
	Policy DelayPolicy
	// PriorityFn, if set, biases the processing order of deliveries that
	// land on the same tick: lower return values are handled first. This
	// is the hook scenario drivers use to construct the existentially
	// quantified runs of Definitions 4 and A.1.
	PriorityFn func(Envelope) int
	// Horizon is the hard stop time. Zero means 10000·Δ.
	Horizon consensus.Time
	// KeepMessages retains every delivery in the trace (expensive).
	KeepMessages bool
	// Duplicator, if set, returns how many extra copies of a message to
	// deliver (each re-delayed through the policy). Models at-least-once
	// links; protocols must be idempotent under it.
	Duplicator func(env Envelope) int
}

// Cluster is a deterministic discrete-event simulation of n processes
// running consensus.Protocol state machines.
type Cluster struct {
	opts  Options
	nodes []consensus.Protocol
	alive []bool
	queue eventQueue
	now   consensus.Time
	seq   int64
	gens  []map[consensus.TimerID]int64
	tr    *trace.Trace
	ran   bool

	// silencedAt[p], when ≥ 0, drops every message p sends at or after
	// that time. See SilenceFrom.
	silencedAt []consensus.Time
}

// New builds an empty cluster; populate it with SetNode before Run.
func New(opts Options) (*Cluster, error) {
	if opts.N < 1 {
		return nil, fmt.Errorf("sim: n=%d must be positive", opts.N)
	}
	if opts.Policy == nil {
		return nil, fmt.Errorf("sim: delay policy is required")
	}
	if opts.Delta <= 0 {
		return nil, fmt.Errorf("sim: delta=%d must be positive", opts.Delta)
	}
	if opts.Horizon == 0 {
		opts.Horizon = consensus.Time(10000 * opts.Delta)
	}
	c := &Cluster{
		opts:  opts,
		nodes: make([]consensus.Protocol, opts.N),
		alive: make([]bool, opts.N),
		gens:  make([]map[consensus.TimerID]int64, opts.N),
		tr:    trace.New(opts.N),
	}
	c.tr.KeepMessages = opts.KeepMessages
	c.silencedAt = make([]consensus.Time, opts.N)
	for i := range c.alive {
		c.alive[i] = true
		c.gens[i] = make(map[consensus.TimerID]int64)
		c.silencedAt[i] = -1
	}
	return c, nil
}

// SetNode installs the protocol instance for process p. All processes must
// be populated before Run.
func (c *Cluster) SetNode(p consensus.ProcessID, node consensus.Protocol) {
	c.nodes[p] = node
}

// Oracle returns an Ω leader oracle backed by the live cluster state: the
// lowest-id process that has not crashed. Because crashes are the only
// failures and are permanent, this oracle eventually stabilizes on the same
// correct process for everyone, as Ω requires.
func (c *Cluster) Oracle() consensus.LeaderOracle {
	return consensus.LeaderFunc(func() consensus.ProcessID {
		for i, up := range c.alive {
			if up {
				return consensus.ProcessID(i)
			}
		}
		return consensus.NoProcess
	})
}

// Now returns the current simulated time.
func (c *Cluster) Now() consensus.Time { return c.now }

// Trace returns the (live) execution trace.
func (c *Cluster) Trace() *trace.Trace { return c.tr }

// ScheduleCrash makes p crash at time at (before deliveries on that tick).
func (c *Cluster) ScheduleCrash(p consensus.ProcessID, at consensus.Time) {
	c.push(&event{at: at, prio: prioCrash, kind: evCrash, p: p})
}

// SilenceFrom drops every message p sends at or after time at, while p keeps
// processing its inputs. Combined with a crash one tick later this models
// the fine-grained crash used by the paper's Appendix-B constructions: a
// process takes a step (for example, decides), then crashes before any of
// the step's messages reach the network.
func (c *Cluster) SilenceFrom(p consensus.ProcessID, at consensus.Time) {
	c.silencedAt[p] = at
}

// SchedulePropose invokes Propose(v) on p at time at. The proposal is
// recorded in the trace whether or not the protocol registers it.
func (c *Cluster) SchedulePropose(p consensus.ProcessID, at consensus.Time, v consensus.Value) {
	c.push(&event{at: at, prio: prioPropose, kind: evPropose, p: p, value: v})
}

// push assigns a sequence number and enqueues e.
func (c *Cluster) push(e *event) {
	e.seq = c.seq
	c.seq++
	heap.Push(&c.queue, e)
}

// Run starts every process at time 0 and processes events until the
// predicate returns true, the queue drains, or the horizon passes. A nil
// predicate runs to horizon/drain. Run may be called repeatedly with
// different predicates to continue the same execution.
func (c *Cluster) Run(until func(*Cluster) bool) *trace.Trace {
	if !c.ran {
		c.ran = true
		for i := range c.nodes {
			if c.nodes[i] == nil {
				panic(fmt.Sprintf("sim: process %d has no protocol instance", i))
			}
			c.push(&event{at: 0, prio: prioStart, kind: evStart, p: consensus.ProcessID(i)})
		}
	}
	for len(c.queue) > 0 {
		if until != nil && until(c) {
			break
		}
		e := heap.Pop(&c.queue).(*event)
		if e.at > c.opts.Horizon {
			break
		}
		c.now = e.at
		c.dispatch(e)
	}
	return c.tr
}

// AllDecided reports whether every non-crashed process has decided.
func (c *Cluster) AllDecided() bool {
	for i, up := range c.alive {
		if !up {
			continue
		}
		if _, ok := c.nodes[i].Decision(); !ok {
			return false
		}
	}
	return true
}

func (c *Cluster) dispatch(e *event) {
	switch e.kind {
	case evCrash:
		if c.alive[e.p] {
			c.alive[e.p] = false
			c.tr.RecordCrash(e.p, e.at)
		}
	case evStart:
		if c.alive[e.p] {
			c.apply(e.p, c.nodes[e.p].Start())
		}
	case evPropose:
		c.tr.RecordProposal(e.p, e.at, e.value)
		if c.alive[e.p] {
			c.apply(e.p, c.nodes[e.p].Propose(e.value))
		}
	case evDeliver:
		if c.alive[e.env.To] {
			c.tr.RecordDelivery(e.at, e.env.From, e.env.To, e.env.Msg.Kind())
			c.apply(e.env.To, c.nodes[e.env.To].Deliver(e.env.From, e.env.Msg))
		}
	case evTimer:
		if c.alive[e.p] && c.gens[e.p][e.timer] == e.gen {
			c.apply(e.p, c.nodes[e.p].Tick(e.timer))
		}
	}
}

// apply interprets the effects emitted by one protocol step at process p.
func (c *Cluster) apply(p consensus.ProcessID, effects []consensus.Effect) {
	for _, eff := range effects {
		switch eff := eff.(type) {
		case consensus.Send:
			c.send(p, eff.To, eff.Msg)
		case consensus.Broadcast:
			for i := 0; i < c.opts.N; i++ {
				to := consensus.ProcessID(i)
				if to == p && !eff.Self {
					continue
				}
				c.send(p, to, eff.Msg)
			}
		case consensus.StartTimer:
			c.gens[p][eff.Timer]++
			c.push(&event{
				at:    c.now + consensus.Time(eff.After),
				prio:  prioTimer,
				kind:  evTimer,
				p:     p,
				timer: eff.Timer,
				gen:   c.gens[p][eff.Timer],
			})
		case consensus.StopTimer:
			c.gens[p][eff.Timer]++
		case consensus.Decide:
			c.tr.RecordDecision(p, c.now, eff.Value)
		}
	}
}

// send schedules one unicast delivery. Self-addressed messages are ordinary
// messages: they go through the delay policy like everything else, exactly
// as in the paper's round model (a process's proposal to itself is delivered
// at the next round boundary and can be ordered against other deliveries by
// the scheduler).
func (c *Cluster) send(from, to consensus.ProcessID, msg consensus.Message) {
	if s := c.silencedAt[from]; s >= 0 && c.now >= s {
		return
	}
	env := Envelope{From: from, To: to, Msg: msg, SentAt: c.now}
	copies := 1
	if c.opts.Duplicator != nil {
		copies += c.opts.Duplicator(env)
	}
	for i := 0; i < copies; i++ {
		at := c.now + consensus.Time(c.opts.Policy.Delay(c.now, from, to))
		prio := prioDeliver
		if c.opts.PriorityFn != nil {
			prio += c.opts.PriorityFn(env)
		}
		c.push(&event{at: at, prio: prio, kind: evDeliver, env: env})
	}
}
