package sim

import (
	"repro/internal/elab"
	"repro/internal/logic"
)

// DUV is the design-under-verification contract the testbench layers
// (uvm driver/monitor, coverage monitors, property checker, fuzzing
// engine) program against. Two backends implement it: the event-driven
// four-state interpreter in this package (*Simulator) and the compiled
// backend in internal/simc (*Machine). Both expose identical
// observable semantics — same values, same branch-event stream, same
// snapshot bytes — so a campaign's trajectory is backend-independent.
type DUV interface {
	// Design returns the elaborated design under simulation.
	Design() *elab.Design
	// Get returns the current value of a signal by index.
	Get(sig int) logic.BV
	// Words returns the current aval/bval planes of a signal by index,
	// LSB-word first, without copying. They alias the backend's state:
	// the compiled arena on simc, the stored value's planes on the
	// interpreter. They are read-only, and valid only until the next
	// Set, Settle, Tick, AdvanceCycle or Restore: a reader that keeps a
	// value across those copies it, which is what Get does. Bits above
	// the signal's width are zero, so two reads of one signal hold the
	// same value iff their words are equal.
	Words(sig int) (a, b []uint64)
	// GetMem returns a memory word (X for out-of-range).
	GetMem(mem int, addr uint64) logic.BV
	// Set performs a blocking input write, scheduling dependents.
	Set(sig int, v logic.BV)
	// Settle runs the event loop to quiescence.
	Settle() error
	// Tick drives one full clock cycle on the given clock signal.
	Tick(clk int) error
	// AdvanceCycle counts one cycle without toggling a clock
	// (combinational DUVs).
	AdvanceCycle()
	// Cycle returns the number of completed clock cycles.
	Cycle() uint64
	// SignalIndex resolves a hierarchical signal name; -1 if unknown.
	SignalIndex(name string) int
	// Peek reads a signal by name.
	Peek(name string) (logic.BV, error)
	// SetTracer installs the branch-event tracer (coverage monitor).
	SetTracer(t Tracer)
	// OnCycle registers a listener invoked after every completed cycle.
	OnCycle(fn CycleListener)
	// ApplyReset asserts the detected reset and deasserts it, leaving
	// the design in its deterministic start state.
	ApplyReset(info ResetInfo, cycles int) error
	// Snapshot captures all architectural state.
	Snapshot() *Snapshot
	// Restore rewinds to a snapshot, discarding pending events.
	Restore(snap *Snapshot)
	// EnableProfile turns on per-process evaluation counting with an
	// injected clock for sampled eval timing.
	EnableProfile(clock func() int64, sampleEvery uint64)
	// ProfileCounts returns the per-process profile (nil when off).
	ProfileCounts() (evals []uint64, sampledNS []int64, sampled []uint64)
}

// RunReset drives the standard reset sequence on any backend: assert
// the detected reset, start the clock from a defined low level, run the
// given number of cycles, deassert. Both backends route their
// ApplyReset through this one implementation so the sequence cannot
// diverge between them.
func RunReset(s DUV, info ResetInfo, cycles int) error {
	if info.Reset >= 0 {
		v := logic.Zero(1)
		if !info.ActiveLow {
			v = logic.Ones(1)
		}
		s.Set(info.Reset, v)
		if err := s.Settle(); err != nil {
			return err
		}
	}
	if info.Clock >= 0 {
		// Start the clock from a defined low level.
		s.Set(info.Clock, logic.Zero(1))
		if err := s.Settle(); err != nil {
			return err
		}
		for i := 0; i < cycles; i++ {
			if err := s.Tick(info.Clock); err != nil {
				return err
			}
		}
	}
	if info.Reset >= 0 {
		v := logic.Ones(1)
		if !info.ActiveLow {
			v = logic.Zero(1)
		}
		s.Set(info.Reset, v)
		if err := s.Settle(); err != nil {
			return err
		}
	}
	return nil
}
