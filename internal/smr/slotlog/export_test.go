package slotlog

import (
	"time"

	"repro/internal/consensus"
)

// Observe sets the hook every log of the test binary calls on each input
// (observe); nil removes it.
func Observe(fn func(*Log, Input) func(Effects)) { observe = fn }

// Config is the configuration of l's process.
func (l *Log) Config() consensus.Config { return l.cfg }

// Fresh is an empty log built as l was.
func (l *Log) Fresh() *Log {
	return New(l.cfg, time.Duration(l.tick), l.leaseCfg, l.grantEvery != 0, l.snapEvery)
}
