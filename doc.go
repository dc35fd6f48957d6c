// Package repro is a from-scratch Go reproduction of "Revisiting Lower
// Bounds for Two-Step Consensus" (Ryabinin, Gotsman, Sutra; PODC 2025).
//
// The library lives under internal/: the paper's protocol (internal/core),
// the Paxos / Fast Paxos / EPaxos-style baselines, a deterministic
// discrete-event simulator for the paper's partial-synchrony model, the
// executable Appendix-B lower-bound constructions, real transports and an
// SMR key-value store, and the benchmark harness that regenerates every
// table and figure of the reproduction (see DESIGN.md and EXPERIMENTS.md).
//
// Entry points: cmd/bench (regenerate the evaluation), cmd/simrun (explore
// single scenarios), cmd/kv (a live TCP key-value cluster: every PUT is a
// consensus instance), and the runnable walkthroughs under examples/.
package repro
