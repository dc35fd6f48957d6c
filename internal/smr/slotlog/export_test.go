package slotlog

import "repro/internal/consensus"

// Observe sets the hook every log of the test binary calls on each input
// (observe); nil removes it.
func Observe(fn func(*Log, Input) func(Effects)) { observe = fn }

// Config is what New built l with, but for a lease table.
func (l *Log) Config() (consensus.Config, int) { return l.cfg, l.snapEvery }
